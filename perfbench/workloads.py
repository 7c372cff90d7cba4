"""The three workloads: set-up, one timed operation, and the checks on its output.

Each workload is driven through the entry points a user of ``filmline``
runs. ``setup`` builds the inputs from the workload seed; ``operation`` is
the timed part and is repeated on the same inputs; ``inspect`` checks and
fingerprints each operation's output after its timing, and ``finish`` runs
the checks that need the fitted models once. Every seed the program sees is
derived from the workload seed with ``harness.stable_seed``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import time
from dataclasses import dataclass, field, replace
from statistics import median

import numpy as np

from filmline import agent as agent_mod
from filmline import autodiff, environment, forecaster, harness, plant

clock = time.perf_counter


def derive(workload: str, seed: int, label: str) -> int:
    return harness.stable_seed("perfbench", workload, seed, label)


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class CheckFailed(Exception):
    """A validity check on the program's output failed."""


def require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def read_metrics_csv(path: str) -> dict[str, float]:
    """model name -> test MAE from ``forecaster/metrics.csv``."""
    with open(path, newline="") as fh:
        rows = {r["model"]: float(r["mae"]) for r in csv.DictReader(fh)}
    for model, mae in rows.items():
        require(math.isfinite(mae) and mae > 0, f"metrics.csv: MAE of {model} is {mae}")
    return rows


def train_windows(n_rows: int, window: int) -> int:
    train = forecaster.chrono_split(n_rows)[0]
    return train.stop - train.start - window


def check_predict_agrees(model: forecaster.LstnetModel, dataset, n_probe: int = 8):
    """``LstnetModel.predict`` matches ``lstnet_forward`` within 1e-12 mm on
    fixed probe windows, in a batch and one window at a time."""
    cfg, norm = model.cfg, model.norm
    starts = np.linspace(0, len(dataset.values) - cfg.window - 1, n_probe).astype(int)
    raw = forecaster.window_batch(dataset.values, starts, cfg.window)
    with autodiff.no_grad():
        out = forecaster.lstnet_forward(cfg, model.params, norm.transform(raw))
    reference = norm.denormalize_target(out.data[:, 0], raw[:, -1, norm.target_col])
    batch = np.asarray(model.predict(raw))
    single = np.array([model.predict(w) for w in raw])
    worst = float(max(np.max(np.abs(batch - reference)), np.max(np.abs(single - reference))))
    require(np.all(np.isfinite(reference)), "lstnet_forward returned a non-finite value")
    require(worst <= 1e-12, f"predict differs from lstnet_forward by {worst:.3e} mm")
    return worst


def check_cell(record: harness.RunRecord):
    """A grid cell must not be a swallowed failure and must hold finite values."""
    require(not record.failed, f"cell seed {record.seed} failed: {record.error}")
    require(len(record.curve) > 0 and len(record.eval_steps) > 0,
            f"cell seed {record.seed} has an empty curve or evaluation")
    check_curve(record.curve, record.eval_steps, f"cell seed {record.seed}")
    require(math.isfinite(record.average_optimize_step),
            f"cell seed {record.seed}: non-finite average optimize step")


def check_curve(curve, eval_steps, where: str):
    for row in curve:
        for key in ("total_reward", "width_err", "thickness_err", "optimize_step"):
            require(math.isfinite(row[key]), f"{where}: non-finite {key} in the curve")
    require(all(math.isfinite(s) for s in eval_steps), f"{where}: non-finite eval step")


def episode_steps(curve, eval_steps) -> int:
    """Environment steps taken: an episode stops at its optimize step, which
    is the episode length when the targets are never reached."""
    return int(sum(row["optimize_step"] for row in curve) + sum(eval_steps))


@dataclass
class OpResult:
    """What one timed operation did, for the metrics and the checks."""

    attempted: int = 0
    failed: int = 0
    fit_windows: int = 0
    env_steps: int = 0
    fingerprints: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    records: list = field(default_factory=list)
    cells: list = field(default_factory=list)  # (cell seed, curve, eval steps)


# ----------------------------------------------------------------------
# forecaster_fit: the forecaster's write path
# ----------------------------------------------------------------------

class ForecasterFit:
    name = "forecaster_fit"
    setup_repeats = 5
    rows = 8000
    epochs = 2
    batch = 1024

    def setup(self, seed: int, out_dir: str):
        cfg = harness.AppConfig()
        cfg.forecaster = replace(cfg.forecaster, epochs=self.epochs, batch_size=self.batch)
        cfg.experiment.forecaster_seed = derive(self.name, seed, "forecaster")
        self.cfg, self.seed, self.out_dir = cfg, seed, out_dir
        self.dataset, measures = self.generate()
        return measures

    def generate(self):
        """The line is stepped only by dataset generation in this workload."""
        started = clock()
        dataset = plant.generate_dataset(self.cfg.plant, self.rows, "mixed",
                                         seed=derive(self.name, self.seed, "dataset"),
                                         window=self.cfg.forecaster.window)
        return dataset, {"env_steps_per_s": self.rows / (clock() - started)}

    def resample(self):
        """Regenerate the set-up dataset after a timed operation, so that the
        generation rate is sampled over the whole run and not only at its
        start; the copy must equal the set-up dataset bit for bit."""
        dataset, measures = self.generate()
        require(np.array_equal(dataset.values, self.dataset.values),
                "generate_dataset gave a different dataset for the same seed")
        return measures

    def operation(self, res: OpResult):
        res.attempted += 2  # one training run per target
        self.models = harness.train_or_load_forecasters(self.cfg, self.out_dir,
                                                        dataset=self.dataset, force=True)
        res.fit_windows = 2 * self.epochs * train_windows(self.rows, self.cfg.forecaster.window)

    def inspect(self, res: OpResult):
        path = os.path.join(self.out_dir, "forecaster", "metrics.csv")
        self.maes = read_metrics_csv(path)
        res.fingerprints["forecaster/metrics.csv"] = sha256_of(path)

    def finish(self):
        for model in self.models:
            check_predict_agrees(model, self.dataset)

    def fit_metrics(self):
        return self.maes["lstnet-width"], self.maes["lstnet-thickness"]


# ----------------------------------------------------------------------
# surrogate_grid: the forecaster's read path inside the control loop
# ----------------------------------------------------------------------

class SurrogateGrid:
    name = "surrogate_grid"
    setup_repeats = 1
    rows = 10000
    batch = 128
    lr = 5e-3
    fit_candidates = 2
    fit_attempts = 8
    cells = 2
    steps = 30
    episodes = 1
    eval_episodes = 1

    def setup(self, seed: int, out_dir: str):
        cfg = harness.AppConfig()
        cfg.forecaster = replace(cfg.forecaster, epochs=1, batch_size=self.batch, lr=self.lr)
        cfg.experiment = replace(cfg.experiment, episodes=self.episodes,
                                 eval_episodes=self.eval_episodes)
        self.cfg, self.out_dir = cfg, out_dir
        # Fit candidate pairs, each on its own dataset (a flat response can
        # come from the dataset's excitation as well as from the forecaster's
        # seed), and keep the one with the most room. Two are always fitted
        # so that the set-up cost does not hinge on how the first came out;
        # more only when neither has a usable reach.
        candidates, rates = [], []
        for attempt in range(self.fit_attempts):
            dataset = plant.generate_dataset(cfg.plant, self.rows, "mixed",
                                             seed=derive(self.name, seed, f"dataset{attempt}"),
                                             window=cfg.forecaster.window)
            cfg.experiment.forecaster_seed = derive(self.name, seed, f"forecaster{attempt}")
            fit_dir = os.path.join(out_dir, f"setup{attempt}")
            started = clock()
            models = harness.train_or_load_forecasters(cfg, fit_dir, dataset=dataset,
                                                       force=True)
            rates.append(2 * train_windows(self.rows, cfg.forecaster.window)
                         / (clock() - started))
            margin, scenario = self.probe_reach(models)
            candidates.append((margin, models, dataset, fit_dir, scenario))
            if len(candidates) >= self.fit_candidates and max(c[0] for c in candidates) >= 1:
                break
        margin, models, dataset, fit_dir, self.scenario = max(candidates, key=lambda c: c[0])
        require(margin >= 1,
                f"all {self.fit_attempts} set-up forecasters respond too flatly for a scenario")
        self.models = models
        self.setup_attempted = 2 * len(candidates) + 1  # training runs and the confirming env
        self.maes = read_metrics_csv(os.path.join(fit_dir, "forecaster", "metrics.csv"))
        for model in models:
            check_predict_agrees(model, dataset)
        self.cell_seeds = [derive(self.name, seed, f"cell{i}") % 100000
                           for i in range(self.cells)]
        episode = replace(cfg.env, width_target=self.scenario[0],
                          thickness_target=self.scenario[1], max_steps=self.steps)
        environment.FilmLineEnv(environment.ForecastBackend(*models), episode, cfg.reward,
                                seed=derive(self.name, seed, "confirm"))
        # the forecaster is trained only in set-up in this workload
        return {"fit_windows_per_s": median(rates)}

    def probe_reach(self, models):
        """The reach margin of a forecaster pair and the targets it gives.

        ``FilmLineEnv`` measures the width span at the gap its affine map
        gives for the thickness target, and the thickness span at the knife
        its map gives for the width target. The width target sits midway
        between the widths at the two knife ends, which puts that knife at
        the middle of its range, where the thickness probes sit; the
        thickness target sits in the middle of the thickness span, which a
        short-trained surrogate may reach anywhere in the gap range.

        The margin is how far the targets sit inside the reach the
        environment samples starts from, over what its start sampler needs;
        under 1 the pair is not used. ``FilmLineEnv.reset`` clips a start to
        1 mm / 0.02 mm inside that reach (the width at both knife ends, the
        thickness at four gaps from end to end) and draws again while it
        lands within 5 mm / 0.25 mm of a target it was not meant to start
        near. With a target closer than that to the edge of the reach, far
        starts towards that edge are never accepted (a narrow surrogate gave
        one start in five or six), and the cell times the surrogate's poor fit
        more than the read path.
        """
        ep = self.cfg.env
        backend = environment.ForecastBackend(*models)
        k_lo, k_hi = ep.knife_bounds
        g_lo, g_hi = ep.gap_bounds
        k_mid, g_mid = 0.5 * (k_lo + k_hi), 0.5 * (g_lo + g_hi)
        g_in_lo, g_in_hi = g_lo + 0.15 * (g_hi - g_lo), g_hi - 0.15 * (g_hi - g_lo)
        w_lo, _ = backend.reset(k_lo, g_mid, g_mid)
        w_hi, _ = backend.reset(k_hi, g_mid, g_mid)
        heights = [backend.reset(k_mid, g, g)[1] for g in (g_lo, g_in_lo, g_in_hi, g_hi)]
        for v in [w_lo, w_hi] + heights:
            require(math.isfinite(v), "reach probe returned a non-finite prediction")
        width, thickness = 0.5 * (w_lo + w_hi), 0.5 * (min(heights) + max(heights))
        margin = min(0.5 * abs(w_hi - w_lo) / (5.0 + 1.0),
                     0.5 * (max(heights) - min(heights)) / (0.25 + 0.02))
        return margin, (round(width, 2), round(thickness, 4))

    def operation(self, res: OpResult):
        records = harness.run_grid(self.cfg, self.out_dir, models=self.models,
                                   variants=["mpd-ppo"], scenarios=[list(self.scenario)],
                                   steps_options=[self.steps], seeds=self.cell_seeds,
                                   verbose=False)
        res.attempted += len(self.cell_seeds)
        res.records = records

    def inspect(self, res: OpResult):
        for rec in res.records:
            if rec.failed:
                res.failed += 1
                res.errors.append(f"cell seed {rec.seed}: {rec.error}")
                continue
            check_cell(rec)
            res.env_steps += episode_steps(rec.curve, rec.eval_steps)
            curve_path = os.path.join(harness.cell_dir(self.out_dir, rec), "curve.csv")
            res.fingerprints[f"seed{rec.seed}/curve.csv"] = sha256_of(curve_path)

    def finish(self):
        pass

    def fit_metrics(self):
        return self.maes["lstnet-width"], self.maes["lstnet-thickness"]


# ----------------------------------------------------------------------
# plant_cell: the agent against the noise-free true plant
# ----------------------------------------------------------------------

class PlantCell:
    name = "plant_cell"
    setup_repeats = 5
    linreg_rows = 8000
    scenario = harness.ABLATION_SCENARIO
    steps = 50
    cells = 2
    episodes = 60
    eval_episodes = 6

    def setup(self, seed: int, out_dir: str):
        cfg = harness.AppConfig()
        dataset = plant.generate_dataset(cfg.plant, self.linreg_rows, "mixed",
                                         seed=derive(self.name, seed, "dataset"),
                                         window=cfg.forecaster.window)
        self.maes = {}
        for target, tolerance in (("width", 1.0), ("thickness", 0.05)):
            _, m = forecaster.linreg_baseline(dataset, target, window=cfg.forecaster.window,
                                              tolerance=tolerance)
            require(math.isfinite(m.mae) and m.mae > 0, f"linreg {target} MAE is {m.mae}")
            self.maes[target] = m.mae
        self.cfg, self.out_dir = cfg, out_dir
        # cells of different seeds differ in cost by some percent; two per
        # operation average that out of the rates
        self.cell_seeds = [derive(self.name, seed, f"cell{i}") % 100000
                           for i in range(self.cells)]
        self.branches, self.shared, self.reward = harness.variant_setup(
            "mpd-ppo", cfg.agent, cfg.reward)
        self.episode = replace(cfg.env, width_target=self.scenario[0],
                               thickness_target=self.scenario[1], max_steps=self.steps)
        return {}

    def operation(self, res: OpResult):
        for cell_seed in self.cell_seeds:
            res.attempted += 1
            tag = ("mpd-ppo", self.scenario, self.steps, cell_seed)
            env = environment.FilmLineEnv(environment.PlantBackend(self.cfg.plant),
                                          self.episode, self.reward,
                                          seed=harness.stable_seed("env", *tag))
            agent = agent_mod.MultiPathPpoAgent(self.episode.state_dim, self.branches,
                                                self.cfg.agent.update,
                                                seed=harness.stable_seed("agent", *tag),
                                                shared_advantage=self.shared)
            curve = agent_mod.train_agent(env, agent, self.episodes, self.steps)
            eval_steps = [r["optimize_step"]
                          for r in agent_mod.evaluate_greedy(env, agent, self.eval_episodes)]
            res.cells.append((cell_seed, curve, eval_steps))

    def inspect(self, res: OpResult):
        for cell_seed, curve, eval_steps in res.cells:
            check_curve(curve, eval_steps, f"plant cell seed {cell_seed}")
            res.env_steps += episode_steps(curve, eval_steps)
            # the learner's forward/backward/Adam passes: every update runs its
            # epochs over the episode it just collected
            res.fit_windows += self.cfg.agent.update.epochs * episode_steps(curve, [])
            path = os.path.join(self.out_dir, f"curve-seed{cell_seed}.csv")
            harness.write_csv(path, ["episode", "total_reward", "optimize_step", "width_err",
                                     "thickness_err"],
                              [[c["episode"], c["total_reward"], c["optimize_step"],
                                c["width_err"], c["thickness_err"]] for c in curve])
            res.fingerprints[f"seed{cell_seed}/curve.csv"] = sha256_of(path)

    def finish(self):
        pass

    def fit_metrics(self):
        return self.maes["width"], self.maes["thickness"]


WORKLOADS = {w.name: w for w in (ForecasterFit, SurrogateGrid, PlantCell)}
