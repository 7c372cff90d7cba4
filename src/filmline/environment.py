"""Set-point control environment around a quality predictor.

Actions are three increments in [-1, 1] (knife spacing, DS gap, OS gap),
mapped through per-actuator scales onto bounded set-points. The next width
and thickness come from a pluggable backend: either the trained forecaster
fed with a synthesized history window (the training surrogate) or the true
plant (the held-out oracle). The composite reward combines an exponential
error term, a tanh progress term, a quadratic action penalty and a gated
steady-state bonus, aggregated over the two quality objectives with
configured weights and clipped to a fixed range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import plant as plant_mod
from .forecaster import LstnetModel
from .plant import PlantParams, PlantState, check_actuator_bounds, plant_step, steady_state

WIDTH_TOLERANCE = 1.0       # mm
THICKNESS_TOLERANCE = 0.05  # mm


class Objective(NamedTuple):
    """One quality objective; every length is in mm."""

    name: str
    tolerance: float
    cols: slice           # its set-points among (knife, DS gap, OS gap)
    far: float            # a start this far from the target counts as away from it
    start_margin: float   # a start's desired reading keeps this far inside the reach
    offset_band: tuple    # |start offset| from the target, drawn uniformly in this band
    near_band: tuple      # the same for a start drawn near the target


OBJECTIVES = (Objective("width", WIDTH_TOLERANCE, slice(0, 1), 5.0, 1.0,
                        (6.0, 28.0), (1.5, 5.0)),
              Objective("thickness", THICKNESS_TOLERANCE, slice(1, 3), 0.25, 0.02,
                        (0.26, 0.5), (0.08, 0.24)))

# share of starts drawn near one objective's target (never both), split evenly
# between the two, so fine positioning shows up in the data from the first
# episodes on
NEAR_START_FRACTION = 0.4


@dataclass
class RewardConfig:
    error_coef: float = 2.0
    progress_coef: float = 0.3
    action_penalty_coef: float = 0.05
    steady_coef: float = 0.5
    steady_threshold: float = 1.0    # in normalized-error units; no bonus at or above
    weights: tuple = (0.5, 0.5)      # per-objective aggregation, normalized to sum 1
    total_clip: tuple = (-5.0, 5.0)

    def __post_init__(self):
        for name in ("error_coef", "progress_coef", "action_penalty_coef", "steady_coef"):
            if getattr(self, name) < 0:
                raise ValueError(f"reward: {name} must be >= 0")
        lo, hi = self.total_clip
        if not lo < hi:
            raise ValueError(f"reward: clip bounds must satisfy lo < hi, got {self.total_clip}")
        if len(self.weights) != 2:
            raise ValueError(f"reward: weights must hold 2 values (width, thickness), "
                             f"got {self.weights}")
        self.weights = normalize_weights(self.weights)


def normalize_weights(weights) -> tuple:
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0) or w.sum() <= 0:
        raise ValueError(f"objective weights must be >= 0 and not all zero, got {weights}")
    return tuple(w / w.sum())


@dataclass
class EpisodeConfig:
    width_target: float = 480.0
    thickness_target: float = 3.0
    max_steps: int = 100
    knife_scale: float = 2.0     # mm of set-point per unit action
    gap_scale: float = 0.05
    knife_bounds: tuple = (360.0, 500.0)
    gap_bounds: tuple = (1.8, 3.6)
    history: int = 4

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("episode: max_steps must be >= 1")
        if self.history < 0:
            raise ValueError("episode: history must be >= 0")
        if self.knife_scale <= 0 or self.gap_scale <= 0:
            raise ValueError("episode: action scales must be > 0")
        check_actuator_bounds("episode", self)

    @property
    def state_dim(self) -> int:
        return 2 * (3 + self.history) + 3


# the four terms reward_components returns, in its order
REWARD_TERMS = ("r_error", "r_progress", "p_action", "r_steady")


def reward_components(error: float, best_error: float, moves: np.ndarray,
                      cfg: RewardConfig) -> tuple:
    """(R_error, R_progress, P_action, R_steady) for one objective.

    ``error`` is the objective's |value - target| / tolerance and
    ``best_error`` the least error earlier in the episode. ``moves`` are its
    actuators' applied moves in unitless action units, after bound clamping,
    so the coarse and fine actuators are penalized on the same footing. The
    steady bonus applies only inside the threshold.
    """
    r_error = cfg.error_coef * np.exp(-error)
    r_progress = cfg.progress_coef * np.tanh(best_error - error)
    p_action = -cfg.action_penalty_coef * float(np.sum(moves * moves))
    if error >= cfg.steady_threshold:
        r_steady = 0.0
    else:
        r_steady = cfg.steady_coef * (cfg.steady_threshold - error)
    return float(r_error), float(r_progress), float(p_action), float(r_steady)


def total_reward(components: list[tuple], cfg: RewardConfig) -> float:
    """Weighted sum over objectives of the components, clipped."""
    total = 0.0
    for w, comp in zip(cfg.weights, components):
        total += w * sum(comp)
    lo, hi = cfg.total_clip
    return float(np.clip(total, lo, hi))


# ----------------------------------------------------------------------
# quality-prediction backends
# ----------------------------------------------------------------------

class ForecastBackend:
    """Surrogate plant: trained forecasters over a synthesized history window.

    The stored window shifts by one row per step; the new row carries the
    updated set-points, the latest predictions as the quality readings, and
    the training-set means for the auxiliary channels. Settles run as lanes:
    each set-point triple has its own window, and one forecaster call per
    model advances every lane, each lane bit-equal to a call of its own.
    """

    def __init__(self, width_model: LstnetModel, thickness_model: LstnetModel):
        if width_model.norm.feature_names != thickness_model.norm.feature_names:
            raise ValueError("width/thickness forecasters disagree on the feature schema")
        self.width_model = width_model
        self.thickness_model = thickness_model
        names = width_model.norm.feature_names
        columns = plant_mod.CONTROL_NAMES + plant_mod.QUALITY_NAMES  # knife, DS, OS, w, h
        for required in columns:
            if required not in names:
                raise ValueError(f"forecaster schema is missing column {required!r}")
        self._cols = [names.index(n) for n in columns]
        # predictions are written back into the window as-is; the periodic
        # gauge component is keyed to the (frozen) roll-angle channel rather
        # than the reading history, so the loop does not re-excite itself.
        self._window = None   # [1, T, F]: the lane ``step`` continues
        self._reading = None  # [1, 2]: its latest (width, thickness)
        self._settled = {}  # exact set-point triple -> settled (width, thickness)

    RAMP_RATES = np.array([2.0, 0.05, 0.05])  # knife, DS, OS: mm per wash step, controller scale

    def _advance(self, windows, setpoints, readings):
        """One step of every lane: shift into each window [K, T, F] a row of
        its set-points [K, 3] and latest readings [K, 2] (auxiliary channels
        at the training means); returns the windows and the new readings."""
        rows = np.tile(self.width_model.norm.mean, (len(windows), 1))
        rows[:, self._cols] = np.concatenate([setpoints, readings], axis=1)
        windows = np.roll(windows, -1, axis=1)
        windows[:, -1] = rows
        lanes = windows[:, None]
        return windows, np.stack([self.width_model.predict(lanes)[:, 0],
                                  self.thickness_model.predict(lanes)[:, 0]], axis=1)

    @staticmethod
    def _check_finite(setpoints, reading):
        """Raise, naming the set-points, if a lane's (width, thickness) is not finite."""
        for obj, value in zip(OBJECTIVES, reading.tolist()):
            if not math.isfinite(value):
                knife, ds, os_ = setpoints.tolist()
                raise ValueError(f"{obj.name} forecaster predicted {value} at set-points "
                                 f"knife={knife}, ds={ds}, os={os_}")

    def _settle_lanes(self, triples):
        """Settle each (knife, DS, OS) triple as one lane from the nominal point.

        Every window is seeded at the training means (a self-consistent
        operating point). A lane then ramps its set-points to their targets at
        controller-scale rates for ``ramp`` steps and holds them for a window
        more, which keeps the wash inside the regime the forecaster was
        trained on; it keeps settling for up to ``3 * window`` steps while its
        predictions still move, and leaves the batch at its own exit. Returns
        the windows [K, T, F] and readings [K, 2]. A non-finite prediction
        raises for the first lane, in triple order, that meets one: lanes
        after it stop there, lanes before it run on.
        """
        t = self.width_model.cfg.window
        nominal = self.width_model.norm.mean[self._cols]
        start = nominal[:3]
        target = np.array(triples, dtype=np.float64).reshape(-1, 3)
        ramp = np.maximum(1, np.ceil(np.max(np.abs(target - start) / self.RAMP_RATES,
                                            axis=1))).astype(int)
        lane = np.arange(len(target))  # the live lanes, in triple order
        windows = np.tile(self.width_model.norm.mean, (len(target), t, 1))
        readings = np.tile(nominal[3:], (len(target), 1))
        settled_windows, settled = np.empty_like(windows), np.empty_like(readings)
        failed = None  # (set-points, reading) of the first lane in order that failed
        n = 0
        while lane.size:
            ramping = n < ramp[lane] + t
            frac = np.minimum((n + 1) / ramp[lane], 1.0)[:, None]
            points = np.where(ramping[:, None], start + frac * (target[lane] - start),
                              target[lane])
            windows, new = self._advance(windows, points, readings)
            live = np.isfinite(new).all(axis=1)
            if not live.all():
                i = int(np.argmin(live))
                failed = points[i], new[i]
                live &= lane < lane[i]
            converged = (np.abs(new - readings) < (1e-3, 5e-5)).all(axis=1)
            leave = live & ((~ramping & converged) | (n + 1 == ramp[lane] + 4 * t))
            settled_windows[lane[leave]], settled[lane[leave]] = windows[leave], new[leave]
            keep = live & ~leave
            lane, windows, readings = lane[keep], windows[keep], new[keep]
            n += 1
        if failed is not None:
            self._check_finite(*failed)
        return settled_windows, settled

    def reset(self, knife: float, ds: float, os_: float):
        """Settle at the requested set-points (one lane), and keep its window
        for ``step`` to continue."""
        self._window, self._reading = self._settle_lanes([(knife, ds, os_)])
        w, h = self._reading[0].tolist()
        return w, h

    def settle(self, triples):
        """The (width, thickness) each set-point triple settles to, in order.

        A settle is a deterministic function of its triple, so the reading is
        memoized on the exact triple for the life of the backend. The misses
        of one call settle together as lanes, a repeat once; the window that
        ``step`` continues is left as it was.
        """
        keys = [tuple(t) for t in triples]
        misses = list(dict.fromkeys(k for k in keys if k not in self._settled))
        if misses:
            _, readings = self._settle_lanes(misses)
            for key, reading in zip(misses, readings.tolist()):
                self._settled[key] = tuple(reading)
        return [self._settled[k] for k in keys]

    def step(self, knife: float, ds: float, os_: float):
        setpoints = np.array([[knife, ds, os_]], dtype=np.float64)
        self._window, self._reading = self._advance(self._window, setpoints, self._reading)
        self._check_finite(setpoints[0], self._reading[0])
        w, h = self._reading[0].tolist()
        return w, h


class PlantBackend:
    """True-plant oracle with every noise source off, so evaluations are exact."""

    def __init__(self, params: PlantParams):
        self.params = params.quiet()
        self._rng = np.random.default_rng(0)  # the quiet plant draws nothing from it
        self._state: PlantState | None = None

    def reset(self, knife: float, ds: float, os_: float):
        self._state = steady_state(self.params, knife, ds, os_)
        return self._state.width, self._state.thickness

    def settle(self, triples):
        """The steady (width, thickness) of each triple; closed form, so no memo."""
        states = [steady_state(self.params, *t) for t in triples]
        return [(s.width, s.thickness) for s in states]

    def step(self, knife: float, ds: float, os_: float):
        self._state = replace(self._state, knife=knife, ds_gap=ds, os_gap=os_)
        self._state = plant_step(self._state, self.params, self._rng)
        return self._state.width, self._state.thickness


# ----------------------------------------------------------------------
# the environment
# ----------------------------------------------------------------------

def _squash(x: float, scale: float = 10.0) -> float:
    return float(np.tanh(x / scale))


class FilmLineEnv:
    """Episodic set-point tuning toward a (width, thickness) target pair."""

    ACTION_DIM = 3  # knife increment, DS gap increment, OS gap increment

    def __init__(self, backend, episode: EpisodeConfig, reward: RewardConfig,
                 seed: int = 0):
        self.backend = backend
        self.episode = episode
        self.reward_cfg = reward
        self._rng = np.random.default_rng(seed)
        # per set-point (knife, DS gap, OS gap): mm per unit action, low and high bound
        self._scales = np.array([episode.knife_scale, episode.gap_scale, episode.gap_scale])
        self._lo, self._hi = np.array([episode.knife_bounds, episode.gap_bounds,
                                       episode.gap_bounds]).T
        self._targets = (episode.width_target, episode.thickness_target)  # OBJECTIVES order
        self._probe_response()
        self._check_targets()
        # where each target sits in its reachable span, a constant state feature
        self._reach = [(t - lo) / (hi - lo) for t, (lo, hi) in zip(self._targets, self._spans)]
        # per objective, in OBJECTIVES order: the signed normalized error
        # (value - target) / tolerance, the one before it, the least |error| of
        # the episode so far, and the earlier signed errors, newest first
        self._signed = self._prev_signed = self._best = self._history = []
        self._setpoints = np.zeros(3)
        self._steps = 0

    # -- construction-time calibration ---------------------------------
    def _probe_response(self):
        """Affine knife->width and mean-gap->thickness maps from backend probes.

        The inverse maps come from mid-point probes; the reachable spans come
        from the corner probes (extreme knife against opposing gap), since the
        roll gap couples into width. Each round of probes is one backend
        ``settle``, which a backend shared by several environments answers
        from its memo; ``step`` refuses to run before ``reset``, so no probe
        leaves state an episode sees.
        """
        ep = self.episode
        k_lo, k_hi = ep.knife_bounds
        g_lo, g_hi = ep.gap_bounds
        g_mid = 0.5 * (g_lo + g_hi)
        k_mid = 0.5 * (k_lo + k_hi)
        g_in_lo = g_lo + 0.15 * (g_hi - g_lo)
        g_in_hi = g_hi - 0.15 * (g_hi - g_lo)

        # rough single-axis response maps around the mid operating point;
        # interior gap probes give a more reliable slope than edge extremes
        (w_at_lo, _), (w_at_hi, _), (_, h_in_lo), (_, h_in_hi) = self.backend.settle(
            [(k_lo, g_mid, g_mid), (k_hi, g_mid, g_mid),
             (k_mid, g_in_lo, g_in_lo), (k_mid, g_in_hi, g_in_hi)])
        # the inverse maps, in OBJECTIVES order
        self._inverses = (_affine_inverse("knife->width", k_lo, k_hi, w_at_lo, w_at_hi),
                          _affine_inverse("gap->thickness", g_in_lo, g_in_hi,
                                          h_in_lo, h_in_hi))

        # reachability is a joint question: measure each axis's span while the
        # other actuator sits at its target-implied set-point
        knife_of_width, gap_of_thickness = self._inverses
        k_star = float(np.clip(knife_of_width(ep.width_target), k_lo, k_hi))
        g_star = float(np.clip(gap_of_thickness(ep.thickness_target), g_lo, g_hi))
        readings = self.backend.settle([(k_star, g, g) for g in (g_lo, g_in_lo, g_in_hi, g_hi)]
                                       + [(k, g_star, g_star) for k in (k_lo, k_hi)])
        heights = [h for _, h in readings[:4]]
        widths = [w for w, _ in readings[4:]]
        # reachable (low, high) reading of each objective, in OBJECTIVES order
        self._spans = ((min(widths), max(widths)), (min(heights), max(heights)))

    def _check_targets(self):
        for obj, target, (lo, hi) in zip(OBJECTIVES, self._targets, self._spans):
            if not lo + obj.tolerance <= target <= hi - obj.tolerance:
                raise ValueError(f"{obj.name} target {target} outside reachable range "
                                 f"[{lo:.2f}, {hi:.2f}]")

    # -- episode API ------------------------------------------------------
    def reset(self) -> np.ndarray:
        for _ in range(50):
            setpoints, near = self._sample_initial_setpoints()
            values = self.backend.reset(*setpoints)
            far = [abs(v - target) >= obj.far
                   for obj, v, target in zip(OBJECTIVES, values, self._targets)]
            # away from every target it was not drawn near, and from at least one
            if all(f or n for f, n in zip(far, near)) and any(far):
                break
        else:
            raise RuntimeError("could not sample an initial state away from the targets")

        self._setpoints = np.array(setpoints)
        self._signed = self._prev_signed = [(v - target) / obj.tolerance for obj, v, target
                                            in zip(OBJECTIVES, values, self._targets)]
        self._best = [abs(e) for e in self._signed]
        self._history = [[e] * self.episode.history for e in self._signed]
        self._steps = 0
        return self._state_vector()

    def _sample_initial_setpoints(self):
        """A start's (knife, DS gap, OS gap), and per objective whether it was
        drawn near that objective's target."""
        ep = self.episode
        rng = self._rng
        half = 0.5 * NEAR_START_FRACTION
        draw = rng.random()
        near = [i * half <= draw < (i + 1) * half for i in range(len(OBJECTIVES))]

        # per objective: an offset from the target, inverted to its set-point
        base = []
        for obj, is_near, target, (lo, hi), inverse, bounds in zip(
                OBJECTIVES, near, self._targets, self._spans, self._inverses,
                (ep.knife_bounds, ep.gap_bounds)):
            mag = rng.uniform(*(obj.near_band if is_near else obj.offset_band))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            desired = np.clip(target + sign * mag, lo + obj.start_margin, hi - obj.start_margin)
            base.append(float(np.clip(inverse(desired), *bounds)))
        knife, gap = base
        asym = rng.uniform(-0.02, 0.02)
        ds = float(np.clip(gap + asym, *ep.gap_bounds))
        os_ = float(np.clip(gap - asym, *ep.gap_bounds))
        return (knife, ds, os_), near

    def step(self, action: np.ndarray):
        """Apply a 3-dim action in [-1, 1]; returns (state, reward, done, info)."""
        if not self._signed:
            raise RuntimeError("step() before reset()")
        action = np.asarray(action, dtype=np.float64)
        if action.shape != (self.ACTION_DIM,):
            raise ValueError(f"action must have shape ({self.ACTION_DIM},), got {action.shape}")
        if not np.all(np.isfinite(action)):
            raise ValueError(f"non-finite action {action}")
        action = np.clip(action, -1.0, 1.0)
        ep = self.episode

        old = self._setpoints
        new = np.clip(old + action * self._scales, self._lo, self._hi)
        self._setpoints = new
        applied_units = (new - old) / self._scales  # actual unitless moves after bound clamping

        w, h = self.backend.step(new[0], new[1], new[2])
        self._steps += 1

        signed = [(v - target) / obj.tolerance
                  for obj, v, target in zip(OBJECTIVES, (w, h), self._targets)]
        errors = [abs(e) for e in signed]
        components = [reward_components(e, best, applied_units[obj.cols], self.reward_cfg)
                      for obj, e, best in zip(OBJECTIVES, errors, self._best)]
        self._best = [min(best, e) for best, e in zip(self._best, errors)]
        self._history = [([prev] + hist)[:ep.history]
                         for prev, hist in zip(self._signed, self._history)]
        self._prev_signed, self._signed = self._signed, signed

        reward = total_reward(components, self.reward_cfg)
        within = [e <= 1.0 for e in errors]  # boundary qualifies
        done = all(within) or self._steps >= ep.max_steps
        info = {
            "step": self._steps,
            "width": w, "thickness": h,
            "width_error_mm": w - ep.width_target,
            "thickness_error_mm": h - ep.thickness_target,
            "components": {obj.name: c for obj, c in zip(OBJECTIVES, components)},
            "within_tolerance": all(within),
            "applied_action_units": applied_units,
        }
        return self._state_vector(), reward, done, info

    # -- state ----------------------------------------------------------
    def _state_vector(self) -> np.ndarray:
        ep = self.episode
        feats = []
        for signed, prev, reach, history in zip(self._signed, self._prev_signed, self._reach,
                                                self._history):
            feats.append(_squash(signed))
            feats.append(float(np.tanh((signed - prev) / 2.0)))
            feats.append(reach)
            feats.extend(_squash(h) for h in history)
        feats.extend(((self._setpoints - self._lo) / (self._hi - self._lo)).tolist())
        state = np.asarray(feats, dtype=np.float64)
        if state.shape != (ep.state_dim,):
            raise RuntimeError(f"state vector has shape {state.shape}, "
                               f"expected ({ep.state_dim},)")
        return state


def _affine_inverse(response: str, x_lo, x_hi, y_lo, y_hi):
    if y_hi == y_lo:
        raise ValueError(f"flat {response} response: the probes at {x_lo:g} and {x_hi:g} "
                         f"read {y_lo!r} and {y_hi!r}")
    slope = (y_hi - y_lo) / (x_hi - x_lo)

    def inverse(y):
        return x_lo + (y - y_lo) / slope

    return inverse


# ----------------------------------------------------------------------
# true-plant evaluation
# ----------------------------------------------------------------------

def oracle_eval(policy, plant_params: PlantParams, episode: EpisodeConfig,
                reward: RewardConfig, seed: int = 0, episodes: int = 1):
    """Run a policy against the noise-free true plant instead of the forecaster.

    ``policy`` maps a state vector to a 3-dim action. Returns a list of
    per-episode records with the same metrics as surrogate episodes.
    """
    backend = PlantBackend(plant_params)
    return run_episodes(FilmLineEnv(backend, episode, reward, seed=seed), policy, episodes)


def run_episodes(env: FilmLineEnv, policy, episodes: int):
    """Roll ``policy`` (state -> action) through fresh episodes of ``env``.

    An episode stops at the first step inside both tolerances, or at
    ``max_steps``, which is then its optimize step. Returns one record per
    episode with the total reward, the optimize step, the terminal errors,
    the visited ``states`` (one row per step plus the final successor), the
    policy's ``actions`` and the ``rewards`` (one row per step each) and the
    per-step ``info`` trace.

    This is the one loop that steps an environment: training collects
    through it too.
    """
    max_steps = env.episode.max_steps
    records = []
    for ep_i in range(episodes):
        state = env.reset()
        total = 0.0
        states, actions, rewards, trace = [state], [], [], []
        for _ in range(max_steps):
            action = policy(state)
            state, r, done, info = env.step(action)
            total += r
            states.append(state)
            actions.append(action)
            rewards.append(r)
            trace.append(info)
            if done:
                break
        records.append({
            "episode": ep_i,
            "total_reward": total,
            "optimize_step": info["step"] if info["within_tolerance"] else max_steps,
            "width_err": info["width_error_mm"],
            "thickness_err": info["thickness_error_mm"],
            "states": np.stack(states),
            "actions": np.stack(actions),
            "rewards": np.array(rewards),
            "trace": trace,
        })
    return records
