"""Command-line entry points for the training and experiment pipeline.

Verbs:
  train-forecaster  generate (or load) a dataset, train both quality models
  train-agent       one (variant, scenario, steps, seed) training cell
  run-grid          the full scenario grid from the experiment plan
  run-ablations     every variant on the representative scenario
  evaluate          greedy evaluation of a stored checkpoint (surrogate or plant)
  emit-plots        rebuild aggregate tables and plots from persisted records
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import harness
from .agent import MultiPathPpoAgent, evaluate_greedy
from .environment import FilmLineEnv, ForecastBackend, oracle_eval
from .forecaster import load_series, save_series
from .harness import (
    load_config, parse_scenario, run_ablations, run_cell, run_grid, stable_seed,
    train_or_load_forecasters, variant_setup,
)


def _add_common(p):
    p.add_argument("--config", default=None, help="path to an INI configuration file")
    p.add_argument("--out-dir", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=0)


def cmd_train_forecaster(args):
    cfg = load_config(args.config)
    dataset = load_series(args.dataset) if args.dataset else harness.build_dataset(cfg)
    if args.save_dataset:
        os.makedirs(args.out_dir, exist_ok=True)
        save_series(os.path.join(args.out_dir, "dataset.csv"), dataset)
    width, thickness = train_or_load_forecasters(cfg, args.out_dir, dataset=dataset,
                                                 force=True, verbose=args.verbose)
    print(f"saved forecasters under {os.path.join(args.out_dir, 'forecaster')}")
    with open(os.path.join(args.out_dir, "forecaster", "metrics.csv")) as fh:
        print(fh.read().rstrip())


def cmd_train_agent(args):
    cfg = load_config(args.config)
    models = train_or_load_forecasters(cfg, args.out_dir)
    rec = run_cell(cfg, models, args.variant, args.scenario, args.steps, args.seed,
                   out_dir=args.out_dir)
    if rec.failed:
        print(f"run failed: {rec.error}")
        sys.exit(1)
    print(f"average optimize step over {len(rec.eval_steps)} greedy episodes: "
          f"{rec.average_optimize_step:.1f}")
    print(f"artifacts in {harness.cell_dir(args.out_dir, rec)}")


def cmd_run_grid(args):
    cfg = load_config(args.config)
    models = train_or_load_forecasters(cfg, args.out_dir)
    records = run_grid(cfg, args.out_dir, models=models)
    harness.emit_outputs(records, args.out_dir)
    print(f"grid complete: {len(records)} runs; aggregates in "
          f"{os.path.join(args.out_dir, 'aggregate')}")


def cmd_run_ablations(args):
    cfg = load_config(args.config)
    models = train_or_load_forecasters(cfg, args.out_dir)
    records = run_ablations(cfg, args.out_dir, models=models)
    rows = harness.emit_outputs(records, args.out_dir)
    for row in rows:
        print(f"{row['variant']:34s} mean optimize step {row['mean_step']:.1f}")


def cmd_evaluate(args):
    cfg = load_config(args.config)
    scenario = tuple(args.scenario)
    episode_cfg = replace(cfg.env, width_target=scenario[0], thickness_target=scenario[1],
                          max_steps=args.steps)
    branches, shared, reward_cfg = variant_setup(args.variant, cfg.agent, cfg.reward)
    agent = MultiPathPpoAgent(episode_cfg.state_dim, branches, cfg.agent.update,
                              seed=0, shared_advantage=shared)
    agent.load(os.path.join(harness.cell_path(args.out_dir, args.variant, scenario, args.steps,
                                              args.seed), "checkpoint.npz"))

    if args.oracle:
        records = oracle_eval(agent.mean_action, cfg.plant, episode_cfg, reward_cfg,
                              seed=args.seed, episodes=args.episodes)
    else:
        models = train_or_load_forecasters(cfg, args.out_dir)
        env = FilmLineEnv(ForecastBackend(*models), episode_cfg, reward_cfg,
                          seed=stable_seed("eval", args.variant, scenario, args.seed))
        records = evaluate_greedy(env, agent, episodes=args.episodes)
    steps = [r["optimize_step"] for r in records]
    where = "true plant" if args.oracle else "forecaster surrogate"
    print(f"greedy evaluation on the {where}: "
          f"mean optimize step {np.mean(steps):.1f} over {len(steps)} episodes")
    for r in records:
        print(f"  episode {r['episode']}: step {r['optimize_step']}, "
              f"terminal width err {r['width_err']:+.2f} mm, "
              f"thickness err {r['thickness_err']:+.3f} mm")


def cmd_emit_plots(args):
    records = harness.load_records(args.out_dir)
    if not records:
        print(f"no persisted runs under {args.out_dir}/runs")
        sys.exit(1)
    harness.emit_outputs(records, args.out_dir)
    print(f"wrote aggregates and plots for {len(records)} records under {args.out_dir}")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="filmline", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-forecaster", help="train the width/thickness forecasters")
    _add_common(p)
    p.add_argument("--dataset", default=None, help="existing dataset CSV to train on")
    p.add_argument("--save-dataset", action="store_true")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train_forecaster)

    p = sub.add_parser("train-agent", help="train one grid cell")
    _add_common(p)
    p.add_argument("--variant", default="mpd-ppo", choices=harness.VARIANTS)
    p.add_argument("--scenario", default="480/3.0", metavar="WIDTH/THICKNESS", type=parse_scenario)
    p.add_argument("--steps", type=int, default=100)
    p.set_defaults(func=cmd_train_agent)

    p = sub.add_parser("run-grid", help="run the full experiment grid")
    _add_common(p)
    p.set_defaults(func=cmd_run_grid)

    p = sub.add_parser("run-ablations", help="run the variant comparison")
    _add_common(p)
    p.set_defaults(func=cmd_run_ablations)

    p = sub.add_parser("evaluate", help="evaluate a stored checkpoint")
    _add_common(p)
    p.add_argument("--variant", default="mpd-ppo", choices=harness.VARIANTS)
    p.add_argument("--scenario", default="480/3.0", metavar="WIDTH/THICKNESS", type=parse_scenario)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--oracle", action="store_true",
                   help="evaluate against the noise-free true plant instead of the surrogate")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("emit-plots", help="rebuild tables and plots from stored runs")
    _add_common(p)
    p.set_defaults(func=cmd_emit_plots)

    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
