"""Set-point control environment around a quality predictor.

Actions are three increments in [-1, 1] (knife spacing, DS gap, OS gap),
mapped through per-actuator scales onto bounded set-points. The next width
and thickness come from a pluggable backend: either the trained forecaster
fed with a synthesized history window (the training surrogate) or the true
plant (the held-out oracle). The composite reward combines an exponential
error term, a tanh progress term, a quadratic action penalty and a gated
steady-state bonus, aggregated over the two quality objectives with
adjustable weights and clipped to a fixed range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import plant as plant_mod
from .forecaster import LstnetModel
from .plant import PlantParams, PlantState, plant_step, steady_state

WIDTH_TOLERANCE = 1.0       # mm
THICKNESS_TOLERANCE = 0.05  # mm


@dataclass
class RewardConfig:
    error_coef: float = 2.0
    progress_coef: float = 0.3
    action_penalty_coef: float = 0.05
    steady_coef: float = 0.5
    steady_threshold: float = 1.0    # in normalized-error units
    gate_steady: bool = True         # apply the steady bonus only below threshold
    weights: tuple = (0.5, 0.5)      # per-objective aggregation, normalized to sum 1
    total_clip: tuple = (-5.0, 5.0)
    # component switches for reward ablations
    use_progress: bool = True
    use_action_penalty: bool = True
    use_steady: bool = True

    def __post_init__(self):
        for name in ("error_coef", "progress_coef", "action_penalty_coef", "steady_coef"):
            if getattr(self, name) < 0:
                raise ValueError(f"reward: {name} must be >= 0")
        lo, hi = self.total_clip
        if not lo < hi:
            raise ValueError(f"reward: clip bounds must satisfy lo < hi, got {self.total_clip}")
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
    # |initial error| sampling bands, clamped to the reachable range; episodes
    # may start near one objective's target (never both), so fine positioning
    # shows up in the data from the first episodes on
    init_width_offset: tuple = (6.0, 28.0)
    init_thickness_offset: tuple = (0.26, 0.5)
    init_width_near: tuple = (1.5, 5.0)
    init_thickness_near: tuple = (0.08, 0.24)
    near_start_fraction: float = 0.4  # split evenly between the two objectives

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("episode: max_steps must be >= 1")
        if self.knife_scale <= 0 or self.gap_scale <= 0:
            raise ValueError("episode: action scales must be > 0")

    @property
    def state_dim(self) -> int:
        return 2 * (3 + self.history) + 3


@dataclass
class ObjectiveState:
    """Tracking bookkeeping for one quality objective within an episode."""

    name: str
    value: float            # current predicted value, mm
    target: float
    tolerance: float
    error: float            # |value - target| / tolerance
    best_error: float       # minimum error seen this episode
    prev_signed: float      # previous signed normalized error
    setpoints: np.ndarray   # current control values (mm) of this objective's actuators
    prev_setpoints: np.ndarray
    action_scales: np.ndarray  # mm per unit action, one per actuator

    @property
    def signed(self) -> float:
        return (self.value - self.target) / self.tolerance


def reward_components(obj: ObjectiveState, cfg: RewardConfig) -> tuple:
    """(R_error, R_progress, P_action, R_steady) for one objective.

    The action penalty is measured in unitless scaled-action increments so
    the coarse and fine actuators are penalized on the same footing. The
    steady bonus applies only inside the threshold unless gating is off.
    """
    r_error = cfg.error_coef * np.exp(-obj.error)
    r_progress = cfg.progress_coef * np.tanh(obj.best_error - obj.error)
    delta = (obj.setpoints - obj.prev_setpoints) / obj.action_scales
    p_action = -cfg.action_penalty_coef * float(np.sum(delta * delta))
    if cfg.gate_steady and obj.error >= cfg.steady_threshold:
        r_steady = 0.0
    else:
        r_steady = cfg.steady_coef * (cfg.steady_threshold - obj.error)
    return float(r_error), float(r_progress), float(p_action), float(r_steady)


def total_reward(components: list[tuple], cfg: RewardConfig) -> float:
    """Weighted sum over objectives of the enabled components, clipped."""
    switches = (1.0, float(cfg.use_progress), float(cfg.use_action_penalty),
                float(cfg.use_steady))
    total = 0.0
    for w, comp in zip(cfg.weights, components):
        total += w * sum(s * c for s, c in zip(switches, comp))
    lo, hi = cfg.total_clip
    return float(np.clip(total, lo, hi))


# ----------------------------------------------------------------------
# quality-prediction backends
# ----------------------------------------------------------------------

class ForecastBackend:
    """Surrogate plant: trained forecasters over a synthesized history window.

    The stored window shifts by one row per step; the new row carries the
    updated set-points, the latest predictions as the quality readings, and
    the training-set means for the auxiliary channels.
    """

    def __init__(self, width_model: LstnetModel, thickness_model: LstnetModel):
        if width_model.norm.feature_names != thickness_model.norm.feature_names:
            raise ValueError("width/thickness forecasters disagree on the feature schema")
        self.width_model = width_model
        self.thickness_model = thickness_model
        names = width_model.norm.feature_names
        self._idx = {n: i for i, n in enumerate(names)}
        for required in plant_mod.CONTROL_NAMES + plant_mod.QUALITY_NAMES:
            if required not in self._idx:
                raise ValueError(f"forecaster schema is missing column {required!r}")
        self._n_features = len(names)
        # predictions are written back into the window as-is; the periodic
        # gauge component is keyed to the (frozen) roll-angle channel rather
        # than the reading history, so the loop does not re-excite itself.
        self._window = None
        self._w = None
        self._h = None

    def _new_row(self, knife, ds, os_):
        row = self.width_model.norm.mean.copy()  # aux channels sit at training means
        row[self._idx["knife_spacing"]] = knife
        row[self._idx["ds_gap"]] = ds
        row[self._idx["os_gap"]] = os_
        row[self._idx["width"]] = self._w
        row[self._idx["thickness"]] = self._h
        return row

    RAMP_RATE_KNIFE = 2.0  # mm per wash step, matching controller-scale moves
    RAMP_RATE_GAP = 0.05

    def reset(self, knife: float, ds: float, os_: float):
        """Settle at the requested set-points, starting from the nominal point.

        The window is seeded entirely at the training means (a self-consistent
        operating point); the set-points are then ramped to their targets at
        controller-scale rates, keeping the wash inside the regime the
        forecaster was trained on, and the window is refreshed afterwards.
        """
        t = self.width_model.cfg.window
        mean = self.width_model.norm.mean
        self._w = float(mean[self._idx["width"]])
        self._h = float(mean[self._idx["thickness"]])
        k0 = float(mean[self._idx["knife_spacing"]])
        d0 = float(mean[self._idx["ds_gap"]])
        o0 = float(mean[self._idx["os_gap"]])
        base = self._new_row(k0, d0, o0)
        self._window = np.tile(base, (t, 1))
        ramp = max(1, int(np.ceil(max(
            abs(knife - k0) / self.RAMP_RATE_KNIFE,
            abs(ds - d0) / self.RAMP_RATE_GAP,
            abs(os_ - o0) / self.RAMP_RATE_GAP,
        ))))
        for j in range(ramp + t):
            frac = min((j + 1) / ramp, 1.0)
            self.step(k0 + frac * (knife - k0), d0 + frac * (ds - d0),
                      o0 + frac * (os_ - o0))
        # keep settling while the predictions are still visibly moving
        for _ in range(3 * t):
            w_prev, h_prev = self._w, self._h
            self.step(knife, ds, os_)
            if abs(self._w - w_prev) < 1e-3 and abs(self._h - h_prev) < 5e-5:
                break
        return self._w, self._h

    def step(self, knife: float, ds: float, os_: float):
        self._window = np.roll(self._window, -1, axis=0)
        self._window[-1] = self._new_row(knife, ds, os_)
        self._w = float(self.width_model.predict(self._window))
        self._h = float(self.thickness_model.predict(self._window))
        for name, value in (("width", self._w), ("thickness", self._h)):
            if not math.isfinite(value):
                raise ValueError(f"{name} forecaster predicted {value} at set-points "
                                 f"knife={knife}, ds={ds}, os={os_}")
        return self._w, self._h


class PlantBackend:
    """True-plant oracle; zero-noise by default so evaluations are exact."""

    def __init__(self, params: PlantParams, noisy: bool = False, seed: int = 0):
        self.params = params if noisy else params.quiet()
        self._rng = np.random.default_rng(seed)
        self._state: PlantState | None = None

    def reset(self, knife: float, ds: float, os_: float):
        self._state = steady_state(self.params, knife, ds, os_)
        return self._state.width, self._state.thickness

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
        self._probe_response()
        self._check_targets()
        self._objectives: list[ObjectiveState] = []
        self._history: dict[str, list[float]] = {}
        self._setpoints = np.zeros(3)
        self._steps = 0

    # -- construction-time calibration ---------------------------------
    def _probe_response(self):
        """Affine knife->width and mean-gap->thickness maps from backend probes.

        The inverse maps come from mid-point probes; the reachable spans come
        from the corner probes (extreme knife against opposing gap), since the
        roll gap couples into width.
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
        w_at_lo, _ = self.backend.reset(k_lo, g_mid, g_mid)
        w_at_hi, _ = self.backend.reset(k_hi, g_mid, g_mid)
        _, h_in_lo = self.backend.reset(k_mid, g_in_lo, g_in_lo)
        _, h_in_hi = self.backend.reset(k_mid, g_in_hi, g_in_hi)
        self._knife_of_width = _affine_inverse(k_lo, k_hi, w_at_lo, w_at_hi)
        self._gap_of_thickness = _affine_inverse(g_in_lo, g_in_hi, h_in_lo, h_in_hi)

        # reachability is a joint question: measure each axis's span while the
        # other actuator sits at its target-implied set-point
        k_star = float(np.clip(self._knife_of_width(ep.width_target), k_lo, k_hi))
        g_star = float(np.clip(self._gap_of_thickness(ep.thickness_target), g_lo, g_hi))
        heights = []
        for g in (g_lo, g_in_lo, g_in_hi, g_hi):
            _, h = self.backend.reset(k_star, g, g)
            heights.append(h)
        widths = []
        for k in (k_lo, k_hi):
            w, _ = self.backend.reset(k, g_star, g_star)
            widths.append(w)
        self._width_span = (min(widths), max(widths))
        self._thickness_span = (min(heights), max(heights))

    def _check_targets(self):
        ep = self.episode
        w_lo, w_hi = self._width_span
        h_lo, h_hi = self._thickness_span
        if not w_lo + WIDTH_TOLERANCE <= ep.width_target <= w_hi - WIDTH_TOLERANCE:
            raise ValueError(
                f"width target {ep.width_target} outside reachable range "
                f"[{w_lo:.1f}, {w_hi:.1f}]")
        if not h_lo + THICKNESS_TOLERANCE <= ep.thickness_target <= h_hi - THICKNESS_TOLERANCE:
            raise ValueError(
                f"thickness target {ep.thickness_target} outside reachable range "
                f"[{h_lo:.2f}, {h_hi:.2f}]")

    # -- weights --------------------------------------------------------
    def set_objective_weights(self, weights):
        """Replace the per-objective aggregation weights (normalized to sum 1)."""
        self.reward_cfg = replace(self.reward_cfg, weights=normalize_weights(weights))

    @property
    def objective_weights(self) -> tuple:
        return self.reward_cfg.weights

    # -- episode API ------------------------------------------------------
    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        ep = self.episode
        for _ in range(50):
            knife, ds, os_, width_near, thickness_near = self._sample_initial_setpoints()
            w0, h0 = self.backend.reset(knife, ds, os_)
            w_err, h_err = abs(w0 - ep.width_target), abs(h0 - ep.thickness_target)
            far_enough = ((w_err >= 5.0 or width_near) and (h_err >= 0.25 or thickness_near)
                          and (w_err >= 5.0 or h_err >= 0.25))
            if far_enough:
                break
        else:
            raise RuntimeError("could not sample an initial state away from the targets")

        self._setpoints = np.array([knife, ds, os_])
        self._objectives = [
            _fresh_objective("width", w0, ep.width_target, WIDTH_TOLERANCE,
                             self._setpoints[:1], np.array([ep.knife_scale])),
            _fresh_objective("thickness", h0, ep.thickness_target, THICKNESS_TOLERANCE,
                             self._setpoints[1:], np.array([ep.gap_scale, ep.gap_scale])),
        ]
        self._history = {o.name: [o.signed] * ep.history for o in self._objectives}
        self._steps = 0
        return self._state_vector()

    def _sample_initial_setpoints(self):
        ep = self.episode
        rng = self._rng
        w_lo, w_hi = self._width_span
        h_lo, h_hi = self._thickness_span

        draw = rng.random()
        width_near = draw < 0.5 * ep.near_start_fraction
        thickness_near = 0.5 * ep.near_start_fraction <= draw < ep.near_start_fraction

        band = ep.init_width_near if width_near else ep.init_width_offset
        mag = rng.uniform(*band)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        desired_w = np.clip(ep.width_target + sign * mag, w_lo + 1.0, w_hi - 1.0)
        knife = float(np.clip(self._knife_of_width(desired_w), *ep.knife_bounds))

        band = ep.init_thickness_near if thickness_near else ep.init_thickness_offset
        mag = rng.uniform(*band)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        desired_h = np.clip(ep.thickness_target + sign * mag, h_lo + 0.02, h_hi - 0.02)
        gap = float(np.clip(self._gap_of_thickness(desired_h), *ep.gap_bounds))
        asym = rng.uniform(-0.02, 0.02)
        ds = float(np.clip(gap + asym, *ep.gap_bounds))
        os_ = float(np.clip(gap - asym, *ep.gap_bounds))
        return knife, ds, os_, width_near, thickness_near

    def step(self, action: np.ndarray):
        """Apply a 3-dim action in [-1, 1]; returns (state, reward, done, info)."""
        if not self._objectives:
            raise RuntimeError("step() before reset()")
        action = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
        if action.shape != (self.ACTION_DIM,):
            raise ValueError(f"action must have shape ({self.ACTION_DIM},), got {action.shape}")
        ep = self.episode

        old = self._setpoints.copy()
        scales = np.array([ep.knife_scale, ep.gap_scale, ep.gap_scale])
        bounds_lo = np.array([ep.knife_bounds[0], ep.gap_bounds[0], ep.gap_bounds[0]])
        bounds_hi = np.array([ep.knife_bounds[1], ep.gap_bounds[1], ep.gap_bounds[1]])
        new = np.clip(old + action * scales, bounds_lo, bounds_hi)
        self._setpoints = new
        applied_units = (new - old) / scales  # actual unitless moves after bound clamping

        w, h = self.backend.step(new[0], new[1], new[2])
        self._steps += 1

        values = {"width": w, "thickness": h}
        mm_slices = {"width": slice(0, 1), "thickness": slice(1, 3)}
        components = []
        for obj in self._objectives:
            prev_signed = obj.signed
            obj.value = values[obj.name]
            obj.prev_setpoints = old[mm_slices[obj.name]].copy()
            obj.setpoints = new[mm_slices[obj.name]].copy()
            obj.error = abs(obj.signed)
            comp = reward_components(obj, self.reward_cfg)
            components.append(comp)
            obj.best_error = min(obj.best_error, obj.error)
            obj.prev_signed = prev_signed
            self._history[obj.name] = ([prev_signed] + self._history[obj.name])[:ep.history]

        reward = total_reward(components, self.reward_cfg)
        within = [o.error <= 1.0 for o in self._objectives]  # boundary qualifies
        done = all(within) or self._steps >= ep.max_steps
        info = {
            "step": self._steps,
            "width": w, "thickness": h,
            "width_error_mm": w - ep.width_target,
            "thickness_error_mm": h - ep.thickness_target,
            "components": {o.name: c for o, c in zip(self._objectives, components)},
            "within_tolerance": all(within),
            "setpoints": new.copy(),
            "applied_action_units": applied_units,
        }
        return self._state_vector(), reward, done, info

    # -- state ----------------------------------------------------------
    def _state_vector(self) -> np.ndarray:
        ep = self.episode
        feats = []
        spans = {"width": self._width_span, "thickness": self._thickness_span}
        for obj in self._objectives:
            signed = obj.signed
            lo, hi = spans[obj.name]
            target_pos = (obj.target - lo) / (hi - lo)
            feats.append(_squash(signed))
            feats.append(float(np.tanh((signed - obj.prev_signed) / 2.0)))
            feats.append(target_pos)
            feats.extend(_squash(h) for h in self._history[obj.name])
        lo = np.array([ep.knife_bounds[0], ep.gap_bounds[0], ep.gap_bounds[0]])
        hi = np.array([ep.knife_bounds[1], ep.gap_bounds[1], ep.gap_bounds[1]])
        feats.extend(((self._setpoints - lo) / (hi - lo)).tolist())
        state = np.asarray(feats, dtype=np.float64)
        if state.shape != (ep.state_dim,):
            raise RuntimeError(f"state vector has shape {state.shape}, "
                               f"expected ({ep.state_dim},)")
        return state

    @property
    def objectives(self) -> list[ObjectiveState]:
        return self._objectives


def _fresh_objective(name, value, target, tolerance, setpoints, scales) -> ObjectiveState:
    error = abs(value - target) / tolerance
    setpoints = np.asarray(setpoints, dtype=np.float64).copy()
    return ObjectiveState(
        name=name, value=value, target=target, tolerance=tolerance,
        error=error, best_error=error,
        prev_signed=(value - target) / tolerance,
        setpoints=setpoints, prev_setpoints=setpoints.copy(),
        action_scales=np.asarray(scales, dtype=np.float64),
    )


def _affine_inverse(x_lo, x_hi, y_lo, y_hi):
    slope = (y_hi - y_lo) / (x_hi - x_lo)

    def inverse(y):
        return x_lo + (y - y_lo) / slope

    return inverse


# ----------------------------------------------------------------------
# true-plant evaluation
# ----------------------------------------------------------------------

def oracle_eval(policy, plant_params: PlantParams, episode: EpisodeConfig,
                reward: RewardConfig, seed: int = 0, episodes: int = 1,
                noisy: bool = False):
    """Run a policy against the true plant instead of the forecaster.

    ``policy`` maps a state vector to a 3-dim action. Returns a list of
    per-episode records with the same metrics as surrogate episodes.
    """
    backend = PlantBackend(plant_params, noisy=noisy, seed=seed)
    return run_episodes(FilmLineEnv(backend, episode, reward, seed=seed), policy, episodes)


def run_episodes(env: FilmLineEnv, policy, episodes: int):
    """Roll ``policy`` (state -> action) through fresh episodes of ``env``.

    An episode stops at the first step inside both tolerances, or at
    ``max_steps``, which is then its optimize step. Returns one record per
    episode with the total reward, the optimize step, the terminal errors,
    the visited ``states`` (one row per step plus the final successor), the
    per-step ``rewards`` and the per-step ``info`` trace.

    This is the one loop that steps an environment: training collects
    through it too, with a policy that keeps what it sampled.
    """
    max_steps = env.episode.max_steps
    records = []
    for ep_i in range(episodes):
        state = env.reset()
        total = 0.0
        optimize_step = max_steps
        states, rewards, trace = [state], [], []
        for _ in range(max_steps):
            state, r, done, info = env.step(policy(state))
            total += r
            states.append(state)
            rewards.append(r)
            trace.append(info)
            if info["within_tolerance"]:
                optimize_step = info["step"]
                break
            if done:
                break
        records.append({
            "episode": ep_i,
            "total_reward": total,
            "optimize_step": optimize_step,
            "width_err": trace[-1]["width_error_mm"],
            "thickness_err": trace[-1]["thickness_error_mm"],
            "states": np.stack(states),
            "rewards": np.array(rewards),
            "trace": trace,
        })
    return records
