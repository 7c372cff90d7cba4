"""Experiment harness: configuration tree, scenario grid, ablations, outputs.

A run "cell" is one (variant, scenario, steps-per-episode, seed) training job
against the shared forecaster surrogate, evaluated afterwards with greedy
(mean) actions over fresh episodes. Cells are deterministic functions of the
configuration and seed; aggregates are pure functions of the persisted
records.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import traceback
import zlib
from configparser import ConfigParser
from dataclasses import dataclass, field, replace

import numpy as np

from .agent import (
    MultiPathPpoAgent, UpdateConfig, default_branches, evaluate_greedy, train_agent,
)
from .environment import (
    OBJECTIVES, REWARD_TERMS, EpisodeConfig, FilmLineEnv, ForecastBackend, RewardConfig,
)
from .forecaster import (
    ForecasterConfig, LstnetModel, SeriesDataset, evaluate_forecaster,
    linreg_baseline, train_forecaster,
)
from .nets import BranchSpec
from .plant import PlantParams, generate_dataset
from .svgplot import LinePlot

VARIANTS = (
    "mpd-ppo",
    "ppo-single-net",
    "ppo-multibranch-uniform-clip",
    "mpd-ppo-uniform-clip",
    "reward-1",
    "reward-2",
    "reward-3",
    "reward-4",
)

DEFAULT_SCENARIOS = ((480.0, 3.0), (480.0, 2.2), (380.0, 3.0), (380.0, 2.2))
ABLATION_SCENARIO = (480.0, 3.0)


@dataclass
class AgentConfig:
    update: UpdateConfig = field(default_factory=UpdateConfig)
    width: BranchSpec = field(default_factory=lambda: default_branches()[0])
    thickness: BranchSpec = field(default_factory=lambda: default_branches()[1])


@dataclass
class ExperimentPlan:
    scenarios: list = field(default_factory=lambda: [list(s) for s in DEFAULT_SCENARIOS])
    steps_options: list = field(default_factory=lambda: [50, 100])
    episodes: int = 100
    seeds: int = 5
    eval_episodes: int = 10
    variants: list = field(default_factory=lambda: ["mpd-ppo"])
    dataset_steps: int = 50000
    dataset_seed: int = 0
    forecaster_seed: int = 0

    def __post_init__(self):
        if self.seeds < 1 or self.episodes < 1 or self.eval_episodes < 1:
            raise ValueError("experiment: seeds, episodes and eval_episodes must be >= 1")
        for name in ("scenarios", "steps_options", "variants"):
            if not getattr(self, name):
                raise ValueError(f"experiment: {name} must not be empty")
        for v in self.variants:
            if v not in VARIANTS:
                raise ValueError(f"experiment: unknown variant {v!r}; choose from {VARIANTS}")
        for s in self.steps_options:
            if int(s) < 1:
                raise ValueError("experiment: steps_options entries must be >= 1")


@dataclass
class AppConfig:
    plant: PlantParams = field(default_factory=PlantParams)
    forecaster: ForecasterConfig = field(default_factory=ForecasterConfig)
    env: EpisodeConfig = field(default_factory=EpisodeConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    experiment: ExperimentPlan = field(default_factory=ExperimentPlan)


# ----------------------------------------------------------------------
# configuration file parsing
# ----------------------------------------------------------------------

def _coerce(section: str, key: str, text: str, example):
    """Parse one INI value by the type of the field's current value ``example``.

    Numbers parse by their type; a list or tuple parses element by element by
    the type of its first element, and a list of scenario pairs through
    ``parse_scenario``.
    """
    try:
        if isinstance(example, (list, tuple)) and example:
            items = [p.strip() for p in text.strip().strip("[]() ").split(",") if p.strip()]
            parse = parse_scenario if isinstance(example[0], list) else type(example[0])
            return type(example)(parse(p) for p in items)
        if type(example) in (int, float):
            return type(example)(text)
    except ValueError as exc:
        raise ValueError(f"config [{section}] {key}: {exc}") from None
    raise TypeError(f"config [{section}] {key}: no parser for a "
                    f"{type(example).__name__} field")


def parse_scenario(text: str):
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"scenario must look like WIDTH/THICKNESS, got {text!r}")
    return [float(parts[0]), float(parts[1])]


def _apply_section(section: str, items: dict, target):
    """Set parsed key/value pairs onto a dataclass, rejecting unknown keys."""
    known = {f.name: getattr(target, f.name) for f in dataclasses.fields(target)}
    updates = {}
    for key, text in items.items():
        if key not in known:
            raise ValueError(f"config [{section}]: unknown key {key!r}")
        updates[key] = _coerce(section, key, text, known[key])
    try:
        return replace(target, **updates)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"config [{section}]: {exc}") from None


_BRANCH_KEYS = ("clip_epsilon", "discount", "loss_weight", "init_sigma", "hidden_sizes")
# dataclass fields a file cannot set, and why
_REFUSED_KEYS = {
    ("plant", "aux"): "one INI value cannot hold the auxiliary channel specs",
    ("env", "width_target"): "each cell takes it from [experiment] scenarios",
    ("env", "thickness_target"): "each cell takes it from [experiment] scenarios",
    ("env", "max_steps"): "each cell takes it from [experiment] steps_options",
}


def _apply_agent_section(items: dict, agent: AgentConfig) -> AgentConfig:
    update_items = {}
    branch_items = {"width": {}, "thickness": {}}
    for key, text in items.items():
        if "." in key:
            branch, _, leaf = key.partition(".")
            if branch not in branch_items or leaf not in _BRANCH_KEYS:
                raise ValueError(f"config [agent]: unknown key {key!r}")
            branch_items[branch][leaf] = text
        else:
            update_items[key] = text
    update = _apply_section("agent", update_items, agent.update)
    width = _apply_section("agent", branch_items["width"], agent.width)
    thickness = _apply_section("agent", branch_items["thickness"], agent.thickness)
    return AgentConfig(update=update, width=width, thickness=thickness)


def load_config(path: str | None = None) -> AppConfig:
    """Build the full configuration tree; every key defaults when absent.

    Unknown sections or keys and out-of-range values are rejected with an
    error naming the offending entry.
    """
    cfg = AppConfig()
    if path is None:
        return cfg
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    parser = ConfigParser()
    parser.optionxform = str  # keep key case
    parser.read(path)
    sections = {f.name for f in dataclasses.fields(AppConfig)}
    for section in parser.sections():
        if section not in sections:
            raise ValueError(f"config: unknown section [{section}]")
        items = dict(parser.items(section))
        for key in items:
            if (section, key) in _REFUSED_KEYS:
                raise ValueError(f"config [{section}]: {key!r} cannot be set in a file; "
                                 f"{_REFUSED_KEYS[section, key]}")
        current = getattr(cfg, section)
        setattr(cfg, section, _apply_agent_section(items, current) if section == "agent"
                else _apply_section(section, items, current))
    return cfg


# ----------------------------------------------------------------------
# variants
# ----------------------------------------------------------------------

def variant_setup(name: str, agent_cfg: AgentConfig, reward_cfg: RewardConfig):
    """(branches, shared_advantage, reward config) for a named variant; ``reward-1``
    .. ``reward-3`` drop reward terms by zeroing their coefficients."""
    width, thickness = agent_cfg.width, agent_cfg.thickness
    if name in ("mpd-ppo", "reward-4"):
        return [width, thickness], False, reward_cfg
    if name == "ppo-single-net":
        single = BranchSpec("all", action_dims=3, clip_epsilon=width.clip_epsilon,
                            discount=width.discount, loss_weight=1.0,
                            init_sigma=width.init_sigma,
                            hidden_sizes=list(width.hidden_sizes))
        return [single], False, reward_cfg
    if name == "ppo-multibranch-uniform-clip":
        eps = width.clip_epsilon
        return ([replace(width, clip_epsilon=eps), replace(thickness, clip_epsilon=eps)],
                True, reward_cfg)
    if name == "mpd-ppo-uniform-clip":
        eps = 0.5 * (width.clip_epsilon + thickness.clip_epsilon)
        return ([replace(width, clip_epsilon=eps), replace(thickness, clip_epsilon=eps)],
                False, reward_cfg)
    if name == "reward-1":
        return [width, thickness], False, replace(
            reward_cfg, progress_coef=0.0, action_penalty_coef=0.0, steady_coef=0.0)
    if name == "reward-2":
        return [width, thickness], False, replace(
            reward_cfg, action_penalty_coef=0.0, steady_coef=0.0)
    if name == "reward-3":
        return [width, thickness], False, replace(reward_cfg, steady_coef=0.0)
    raise ValueError(f"unknown variant {name!r}")


def stable_seed(*parts) -> int:
    """Deterministic 32-bit seed derived from arbitrary labels."""
    return zlib.crc32("|".join(str(p) for p in parts).encode())


# ----------------------------------------------------------------------
# forecaster artifacts
# ----------------------------------------------------------------------

def build_dataset(cfg: AppConfig) -> SeriesDataset:
    plan = cfg.experiment
    return generate_dataset(cfg.plant, plan.dataset_steps, "mixed",
                            seed=plan.dataset_seed, window=cfg.forecaster.window)


def train_or_load_forecasters(cfg: AppConfig, out_dir: str, dataset: SeriesDataset | None = None,
                              force: bool = False, verbose: bool = False):
    """Train (or reload) the width and thickness forecasters for one config.

    Stored forecasters saved under a different ``[forecaster]`` config are
    refused with a ``ValueError`` naming the file, not returned.
    """
    fdir = os.path.join(out_dir, "forecaster")
    os.makedirs(fdir, exist_ok=True)
    width_path = os.path.join(fdir, "width.npz")
    thick_path = os.path.join(fdir, "thickness.npz")
    if not force and os.path.exists(width_path) and os.path.exists(thick_path):
        return (LstnetModel.load(width_path, cfg.forecaster),
                LstnetModel.load(thick_path, cfg.forecaster))

    if dataset is None:
        dataset = build_dataset(cfg)
    plan = cfg.experiment
    metrics_rows = []
    models = {}
    for obj in OBJECTIVES:
        model, _ = train_forecaster(cfg.forecaster, dataset, obj.name,
                                    seed=plan.forecaster_seed, verbose=verbose)
        m = evaluate_forecaster(model, dataset, obj.tolerance)
        metrics_rows.append([f"lstnet-{obj.name}", m.mae, m.rmse, m.qualification_rate,
                             plan.forecaster_seed])
        _, lr_m = linreg_baseline(dataset, obj.name, window=cfg.forecaster.window,
                                  tolerance=obj.tolerance)
        metrics_rows.append([f"linreg-{obj.name}", lr_m.mae, lr_m.rmse,
                             lr_m.qualification_rate, plan.forecaster_seed])
        models[obj.name] = model
    models["width"].save(width_path)
    models["thickness"].save(thick_path)
    write_csv(os.path.join(fdir, "metrics.csv"),
              ["model", "mae", "rmse", "qualification_rate", "seed"], metrics_rows)
    return models["width"], models["thickness"]


# ----------------------------------------------------------------------
# grid cells
# ----------------------------------------------------------------------

@dataclass
class RunRecord:
    variant: str
    scenario: tuple
    steps_per_episode: int
    seed: int
    average_optimize_step: float
    eval_steps: list
    curve: list
    first_eval_trace: list
    wall_time: float
    failed: bool = False
    error: str = ""
    traceback: str = ""


# what record.json holds: every field but the two that have CSV files of their own
RECORD_JSON_FIELDS = tuple(f.name for f in dataclasses.fields(RunRecord)
                           if f.name not in ("curve", "first_eval_trace"))


def scenario_tag(scenario) -> str:
    return f"w{scenario[0]:g}_t{scenario[1]:g}"


def run_cell(cfg: AppConfig, models, variant: str, scenario, steps: int, seed: int,
             out_dir: str | None = None, backend: ForecastBackend | None = None) -> RunRecord:
    """Train and evaluate one grid cell; crashes become failed records.

    With ``out_dir`` the record is persisted either way; a failed one has no
    checkpoint. ``backend`` is a ``ForecastBackend`` over ``models`` shared
    with other cells, so that its settle memo answers their repeated
    calibration probes; without one the cell builds its own.
    """
    started = time.perf_counter()
    scenario = tuple(float(v) for v in scenario)
    try:
        branches, shared, reward_cfg = variant_setup(variant, cfg.agent, cfg.reward)
        episode_cfg = replace(cfg.env, width_target=scenario[0],
                              thickness_target=scenario[1], max_steps=steps)
        env = FilmLineEnv(backend or ForecastBackend(*models), episode_cfg, reward_cfg,
                          seed=stable_seed("env", variant, scenario, steps, seed))
        agent = MultiPathPpoAgent(episode_cfg.state_dim, branches, cfg.agent.update,
                                  seed=stable_seed("agent", variant, scenario, steps, seed),
                                  shared_advantage=shared)
        curve = train_agent(env, agent, cfg.experiment.episodes, steps)
        eval_records = evaluate_greedy(env, agent, cfg.experiment.eval_episodes)
        eval_steps = [r["optimize_step"] for r in eval_records]
        record = RunRecord(
            variant=variant, scenario=scenario, steps_per_episode=steps, seed=seed,
            average_optimize_step=float(np.mean(eval_steps)),
            eval_steps=eval_steps, curve=curve,
            first_eval_trace=eval_records[0]["trace"],
            wall_time=time.perf_counter() - started,
        )
    except Exception as exc:  # a failed run is recorded, the grid continues
        record = RunRecord(
            variant=variant, scenario=scenario, steps_per_episode=steps, seed=seed,
            average_optimize_step=float(steps), eval_steps=[], curve=[],
            first_eval_trace=[], wall_time=time.perf_counter() - started,
            failed=True, error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        )
        agent = None
    if out_dir is not None:
        persist_record(out_dir, record, agent)
    return record


def cell_path(out_dir: str, variant: str, scenario, steps: int, seed: int) -> str:
    """Where one cell's files live: ``runs/<variant>/<tag>/<steps>step/seed<N>``."""
    return os.path.join(out_dir, "runs", variant, scenario_tag(scenario), f"{steps}step",
                        f"seed{seed}")


def cell_dir(out_dir: str, record: RunRecord) -> str:
    return cell_path(out_dir, record.variant, record.scenario, record.steps_per_episode,
                     record.seed)


def persist_record(out_dir: str, record: RunRecord, agent: MultiPathPpoAgent | None = None):
    d = cell_dir(out_dir, record)
    os.makedirs(d, exist_ok=True)
    write_csv(os.path.join(d, "curve.csv"),
              ["seed", "episode", "total_reward", "optimize_step", "width_err",
               "thickness_err"],
              [[record.seed, c["episode"], c["total_reward"], c["optimize_step"],
                c["width_err"], c["thickness_err"]] for c in record.curve])
    trace_rows = []
    for info in record.first_eval_trace:
        act = info["applied_action_units"]
        comp = info["components"]
        trace_rows.append([
            info["step"], info["width"], info["thickness"],
            record.scenario[0], record.scenario[1],
            act[0], act[1], act[2],
            *comp["width"], *comp["thickness"],
            int(info["within_tolerance"]),
        ])
    write_csv(os.path.join(d, "trace.csv"),
              ["step", "width", "thickness", "width_target", "thickness_target",
               "a_knife", "a_ds", "a_os",
               *(f"{obj.name}_{term}" for obj in OBJECTIVES for term in REWARD_TERMS),
               "done"], trace_rows)
    meta = {name: getattr(record, name) for name in RECORD_JSON_FIELDS}
    with open(os.path.join(d, "record.json"), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    if agent is not None:
        agent.save(os.path.join(d, "checkpoint.npz"))


def load_records(out_dir: str) -> list[RunRecord]:
    """Rebuild records (without curves) from persisted record.json files."""
    records = []
    runs = os.path.join(out_dir, "runs")
    for root, _, files in sorted(os.walk(runs)):
        if "record.json" not in files:
            continue
        with open(os.path.join(root, "record.json")) as fh:
            meta = json.load(fh)
        trace = []
        trace_path = os.path.join(root, "trace.csv")
        if os.path.exists(trace_path):
            with open(trace_path) as fh:
                header = fh.readline().strip().split(",")
                for line in fh:
                    vals = line.strip().split(",")
                    row = dict(zip(header, vals))
                    trace.append({"step": int(row["step"]),
                                  "width": float(row["width"]),
                                  "thickness": float(row["thickness"])})
        meta["scenario"] = tuple(meta["scenario"])
        records.append(RunRecord(**meta, curve=[], first_eval_trace=trace))
    return records


# ----------------------------------------------------------------------
# the grid and the ablations
# ----------------------------------------------------------------------

def run_grid(cfg: AppConfig, out_dir: str, models, variants=None, scenarios=None,
             steps_options=None, seeds=None, verbose: bool = True) -> list[RunRecord]:
    plan = cfg.experiment
    variants = variants or plan.variants
    scenarios = scenarios or plan.scenarios
    steps_options = steps_options or plan.steps_options
    seeds = seeds if seeds is not None else list(range(plan.seeds))
    backend = ForecastBackend(*models)  # one settle memo for every cell of the grid
    records = []
    for variant in variants:
        for scenario in scenarios:
            for steps in steps_options:
                for seed in seeds:
                    rec = run_cell(cfg, models, variant, scenario, int(steps), seed,
                                   out_dir=out_dir, backend=backend)
                    records.append(rec)
                    if verbose:
                        status = "FAILED " + rec.error if rec.failed else \
                            f"avg step {rec.average_optimize_step:.1f}"
                        print(f"[{variant} {scenario_tag(rec.scenario)} {steps}step "
                              f"seed{seed}] {status} ({rec.wall_time:.1f}s)")
    return records


def run_ablations(cfg: AppConfig, out_dir: str, models):
    """Every variant at 100 steps on the representative 480 mm / 3.0 mm scenario."""
    return run_grid(cfg, out_dir, models=models, variants=list(VARIANTS),
                    scenarios=[list(ABLATION_SCENARIO)], steps_options=[100])


def aggregate_records(records: list[RunRecord]):
    """Mean/min/max of the per-seed average optimize step per grid cell group."""
    groups = {}
    for r in records:
        key = (r.variant, r.scenario, r.steps_per_episode)
        groups.setdefault(key, []).append(r)
    rows = []
    for (variant, scenario, steps), group in sorted(groups.items()):
        vals = [g.average_optimize_step for g in group]
        rows.append({
            "variant": variant, "scenario": scenario, "steps_per_episode": steps,
            "mean_step": float(np.mean(vals)), "min_step": float(np.min(vals)),
            "max_step": float(np.max(vals)), "seeds": len(group),
            "failed": sum(1 for g in group if g.failed),
        })
    return rows


def mean_step_of(rows, variant, scenario=ABLATION_SCENARIO, steps=100):
    for row in rows:
        if (row["variant"] == variant and tuple(row["scenario"]) == tuple(scenario)
                and row["steps_per_episode"] == steps):
            return row["mean_step"]
    return None


# ----------------------------------------------------------------------
# outputs
# ----------------------------------------------------------------------

def write_csv(path, header, rows):
    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return str(int(v))
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")


def emit_outputs(records: list[RunRecord], out_dir: str):
    """Aggregate tables and per-scenario interval plots from run records."""
    if not records:
        raise ValueError("emit_outputs: no records to aggregate")
    agg_dir = os.path.join(out_dir, "aggregate")
    plot_dir = os.path.join(out_dir, "plots")
    os.makedirs(agg_dir, exist_ok=True)
    os.makedirs(plot_dir, exist_ok=True)
    rows = aggregate_records(records)

    # main grid table: the default agent across the scenario/steps grid
    grid_rows = [[r["steps_per_episode"], r["scenario"][0], r["scenario"][1],
                  round(r["mean_step"], 4), round(r["min_step"], 4),
                  round(r["max_step"], 4), r["seeds"], r["failed"]]
                 for r in rows if r["variant"] == "mpd-ppo"]
    write_csv(os.path.join(agg_dir, "tableV.csv"),
              ["train_steps", "width_target", "thickness_target", "mean_optimize_step",
               "min", "max", "seeds", "failed_runs"], grid_rows)

    def comparison_table(name, variant_names, orderings):
        table = []
        for v in variant_names:
            m = mean_step_of(rows, v)
            if m is not None:
                table.append([v, round(m, 4)])
        for label, a, b in orderings:
            ma, mb = mean_step_of(rows, a), mean_step_of(rows, b)
            if ma is not None and mb is not None:
                verdict = "PASS" if ma < mb or (label.endswith("<=") and ma <= mb) else "FAIL"
                table.append([f"ordering {a} {label} {b}", verdict])
        write_csv(os.path.join(agg_dir, name), ["algorithm", "average_optimize_step"],
                  table)

    comparison_table("tableVI.csv",
                     ["mpd-ppo", "ppo-multibranch-uniform-clip", "ppo-single-net"],
                     [("<", "mpd-ppo", "ppo-multibranch-uniform-clip"),
                      ("<", "mpd-ppo", "ppo-single-net")])
    comparison_table("tableVII.csv",
                     ["mpd-ppo", "mpd-ppo-uniform-clip", "ppo-single-net"],
                     [("<", "mpd-ppo", "mpd-ppo-uniform-clip")])
    comparison_table("tableVIII.csv",
                     ["reward-1", "reward-2", "reward-3", "reward-4"],
                     [("<=", "reward-4", "reward-3")])

    # interval plots of the greedy-evaluation trajectories
    groups = {}
    for r in records:
        if not r.first_eval_trace:
            continue
        groups.setdefault((r.variant, r.scenario, r.steps_per_episode), []).append(r)
    for (variant, scenario, steps), group in sorted(groups.items()):
        for (quantity, tol, *_), target in zip(OBJECTIVES, scenario):
            trajs = [[info[quantity] for info in r.first_eval_trace] for r in group]
            longest = max(len(t) for t in trajs)
            padded = np.array([t + [t[-1]] * (longest - len(t)) for t in trajs])
            xs = np.arange(1, longest + 1)
            plot = LinePlot(
                f"{variant} {scenario_tag(scenario)} {steps}step: {quantity}",
                "environment step", f"{quantity} (mm)")
            plot.add_band(f"{len(group)}-seed min/max", xs, padded.min(axis=0),
                          padded.max(axis=0))
            plot.add_series("mean across seeds", xs, padded.mean(axis=0))
            plot.add_hline("target", target, dashed=False)
            plot.add_hline("tolerance_hi", target + tol)
            plot.add_hline("tolerance_lo", target - tol)
            plot.save(os.path.join(
                plot_dir, f"{variant}_{scenario_tag(scenario)}_{steps}step_{quantity}.svg"))
    return rows
