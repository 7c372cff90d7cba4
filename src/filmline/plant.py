"""Synthetic calendering line: ground-truth dynamics and dataset generation.

Film width follows a first-order lag toward a steady state set by the
edge-trimming knife spacing, pulled down by the mean roll gap through a
coupling coefficient. Thickness lags toward the mean roll gap times a draw
ratio, with a small quadratic skew from drive-side/operator-side asymmetry.
Auxiliary channels (temperatures, currents, speeds) are AR(1) processes,
some coupled to the controls so the generated series is realistically
correlated.

Recorded width/thickness carry slowly drifting gauge noise on top of the
true state; the internal state itself stays clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .forecaster import SeriesDataset

CONTROL_NAMES = ["knife_spacing", "ds_gap", "os_gap"]
QUALITY_NAMES = ["width", "thickness"]
ROLL_ANGLE_NAME = "roll_angle"  # calender roll encoder position, radians


@dataclass
class AuxChannelSpec:
    name: str
    mean: float
    rho: float        # AR(1) persistence, |rho| < 1
    sigma: float      # innovation std
    couple_to: str | None = None   # channel or control tracked by this one
    couple_coef: float = 0.0

    def __post_init__(self):
        if not abs(self.rho) < 1.0:
            raise ValueError(f"aux channel {self.name}: |rho| must be < 1")
        if self.sigma < 0:
            raise ValueError(f"aux channel {self.name}: sigma must be >= 0")


def default_aux_channels() -> list[AuxChannelSpec]:
    return [
        AuxChannelSpec("calender_line_speed", 25.0, 0.95, 0.08),
        AuxChannelSpec("draw_roll_speed", 26.0, 0.90, 0.06,
                       couple_to="calender_line_speed", couple_coef=0.4),
        AuxChannelSpec("calender_main_current", 120.0, 0.90, 0.5,
                       couple_to="calender_line_speed", couple_coef=2.0),
        AuxChannelSpec("discharge_temp", 95.0, 0.98, 0.15),
        AuxChannelSpec("top_roll_temp", 80.0, 0.97, 0.10),
        AuxChannelSpec("bottom_roll_temp", 78.0, 0.97, 0.10),
        AuxChannelSpec("extruder_screw_speed", 40.0, 0.92, 0.12),
        AuxChannelSpec("extruder_head_pressure", 210.0, 0.90, 0.8,
                       couple_to="extruder_screw_speed", couple_coef=1.5),
    ]


def check_actuator_bounds(owner: str, cfg):
    """Refuse knife or gap bounds whose low end is not below the high end."""
    for name in ("knife_bounds", "gap_bounds"):
        lo, hi = getattr(cfg, name)
        if not lo < hi:
            raise ValueError(f"{owner}: {name} low end {lo} must be below its high end {hi}")


@dataclass
class PlantParams:
    # width response
    shrink: float = 0.985          # steady width per mm of knife spacing
    couple: float = 12.0           # mm of width lost per mm of mean-gap opening
    ref_gap: float = 3.0
    alpha_w: float = 0.6           # width lag in (0, 1]
    sigma_w: float = 0.3           # process noise, mm
    # thickness response
    draw_ratio: float = 1.0
    skew: float = 0.05             # quadratic DS/OS asymmetry term
    alpha_h: float = 0.5
    sigma_h: float = 0.02
    # gauge (measurement) disturbance on recorded readings: AR(1) drift plus a
    # roll-rotation-periodic fluctuation of the strip at the gauge position
    meas_sigma_w: float = 1.0      # stationary std of the drift, mm
    meas_rho_w: float = 0.75
    meas_sigma_h: float = 0.04
    meas_rho_h: float = 0.75
    runout_amp_w: float = 1.6      # periodic fluctuation amplitude, mm
    runout_amp_h: float = 0.03
    runout_period: float = 8.0     # steps per roll revolution
    runout_phase_jitter: float = 0.02
    # actuator bounds
    knife_bounds: tuple = (360.0, 500.0)
    gap_bounds: tuple = (1.8, 3.6)
    aux: list[AuxChannelSpec] = field(default_factory=default_aux_channels)

    def __post_init__(self):
        for name, alpha in (("alpha_w", self.alpha_w), ("alpha_h", self.alpha_h)):
            if not 0.0 < alpha <= 1.0:
                raise ValueError(f"plant: {name} must be in (0, 1]")
        for name, sig in (("sigma_w", self.sigma_w), ("sigma_h", self.sigma_h),
                          ("meas_sigma_w", self.meas_sigma_w),
                          ("meas_sigma_h", self.meas_sigma_h)):
            if sig < 0:
                raise ValueError(f"plant: {name} must be >= 0")
        if self.runout_period <= 0:
            raise ValueError("plant: runout_period must be > 0")
        check_actuator_bounds("plant", self)

    def feature_names(self) -> list[str]:
        return (CONTROL_NAMES + QUALITY_NAMES + [ROLL_ANGLE_NAME]
                + [a.name for a in self.aux])

    def quiet(self) -> "PlantParams":
        """Copy with every noise source zeroed (deterministic plant)."""
        return replace(self, sigma_w=0.0, sigma_h=0.0, meas_sigma_w=0.0, meas_sigma_h=0.0,
                       runout_amp_w=0.0, runout_amp_h=0.0, runout_phase_jitter=0.0,
                       aux=[replace(a, sigma=0.0) for a in self.aux])


@dataclass
class PlantState:
    width: float
    thickness: float
    knife: float
    ds_gap: float
    os_gap: float
    aux: np.ndarray

    def mean_gap(self) -> float:
        return 0.5 * (self.ds_gap + self.os_gap)


def width_steady_state(params: PlantParams, knife: float, mean_gap: float) -> float:
    return params.shrink * knife - params.couple * (mean_gap - params.ref_gap)


def thickness_steady_state(params: PlantParams, ds: float, os: float) -> float:
    mean_gap = 0.5 * (ds + os)
    return params.draw_ratio * mean_gap + params.skew * (ds - os) ** 2


def steady_state(params: PlantParams, knife: float, ds: float, os: float) -> PlantState:
    """The zero-noise fixed point of the dynamics at fixed set-points."""
    return PlantState(
        width=width_steady_state(params, knife, 0.5 * (ds + os)),
        thickness=thickness_steady_state(params, ds, os),
        knife=knife, ds_gap=ds, os_gap=os,
        aux=np.array([a.mean for a in params.aux]),
    )


def plant_step(state: PlantState, params: PlantParams, rng: np.random.Generator) -> PlantState:
    """Advance one step: first-order lag toward steady state plus process noise."""
    w_ss = width_steady_state(params, state.knife, state.mean_gap())
    h_ss = thickness_steady_state(params, state.ds_gap, state.os_gap)
    width = state.width + params.alpha_w * (w_ss - state.width)
    thickness = state.thickness + params.alpha_h * (h_ss - state.thickness)
    if params.sigma_w > 0:
        width += params.sigma_w * rng.standard_normal()
    if params.sigma_h > 0:
        thickness += params.sigma_h * rng.standard_normal()

    aux_means = {a.name: a.mean for a in params.aux}
    current = {a.name: v for a, v in zip(params.aux, state.aux)}
    new_aux = np.empty(len(params.aux))
    for i, spec in enumerate(params.aux):
        v = spec.mean + spec.rho * (current[spec.name] - spec.mean)
        if spec.couple_to is not None:
            v += spec.couple_coef * (current[spec.couple_to] - aux_means[spec.couple_to])
        if spec.sigma > 0:
            v += spec.sigma * rng.standard_normal()
        new_aux[i] = v

    return PlantState(
        width=max(width, 1.0),        # positivity clamp; never binds in normal ranges
        thickness=max(thickness, 0.01),
        knife=state.knife, ds_gap=state.ds_gap, os_gap=state.os_gap,
        aux=new_aux,
    )


EXCITATION_POLICIES = ("none", "mixed")


def generate_dataset(params: PlantParams, n_steps: int, excitation: str = "mixed",
                     seed: int = 0, window: int = 32) -> SeriesDataset:
    """Roll the plant under an excitation policy and record the gauge readings.

    ``"mixed"`` drives the set-points through holds, ramps and walks;
    ``"none"`` keeps them at mid-range. Rows are chronological: [controls, width, thickness, roll_angle, aux...].
    Recorded width/thickness include the gauge drift and the roll-periodic
    fluctuation; the roll encoder angle (the fluctuation's phase, wrapped to
    [0, 2pi)) is logged alongside, and held at its midpoint when the periodic
    component is disabled. n_steps must leave room for at least one forecaster
    window plus its target.
    """
    if excitation not in EXCITATION_POLICIES:
        raise ValueError(f"unknown excitation policy {excitation!r}; "
                         f"choose one of {EXCITATION_POLICIES}")
    if n_steps < window + 1:
        raise ValueError(f"n_steps={n_steps} too small; need at least window+1={window + 1}")
    rng = np.random.default_rng(seed)

    k_lo, k_hi = params.knife_bounds
    g_lo, g_hi = params.gap_bounds
    knife = 0.5 * (k_lo + k_hi)
    gap = 0.5 * (g_lo + g_hi)
    ds = os_ = gap
    state = steady_state(params, knife, ds, os_)

    eta_w = eta_h = 0.0
    innov_w = params.meas_sigma_w * np.sqrt(max(1.0 - params.meas_rho_w ** 2, 0.0))
    innov_h = params.meas_sigma_h * np.sqrt(max(1.0 - params.meas_rho_h ** 2, 0.0))
    periodic = params.runout_amp_w > 0 or params.runout_amp_h > 0
    phase = float(rng.uniform(0.0, 2.0 * np.pi)) if periodic else 0.0
    omega = 2.0 * np.pi / params.runout_period

    mode = "hold"
    mode_left = 0
    redraw_left = int(rng.integers(600, 900))
    ramp_knife = ramp_gap = 0.0
    asym = 0.0
    rows = np.empty((n_steps, 6 + len(params.aux)))
    for t in range(n_steps):
        if excitation == "mixed":
            # block-structured drive: holds expose the static response, ramps the
            # incremental one (matching controller-scale moves), walks the rest;
            # rare full-range re-draws keep the whole actuator span covered
            def draw_targets():
                # uniform endpoints cover the span; a corner bias concentrates
                # coverage where linear extrapolation would otherwise be worst
                if rng.random() < 0.3:
                    k_t = k_lo if rng.random() < 0.5 else k_hi
                    g_t = g_lo if rng.random() < 0.5 else g_hi
                    return (float(np.clip(k_t + rng.uniform(0.0, 20.0) * (1 if k_t == k_lo else -1), k_lo, k_hi)),
                            float(np.clip(g_t + rng.uniform(0.0, 0.25) * (1 if g_t == g_lo else -1), g_lo, g_hi)))
                return float(rng.uniform(k_lo, k_hi)), float(rng.uniform(g_lo, g_hi))

            if redraw_left <= 0:
                knife, gap = draw_targets()
                redraw_left = int(rng.integers(600, 900))
                mode, mode_left = "hold", int(rng.integers(25, 60))
            elif mode_left <= 0:
                draw = rng.random()
                mode = "ramp" if draw < 0.45 else ("walk" if draw < 0.7 else "hold")
                mode_left = int(rng.integers(15, 50))
                if mode == "ramp":
                    # varied rates keep controller-scale moves in support
                    k_target, g_target = draw_targets()
                    rate = float(rng.uniform(1.5, 4.5))
                    mode_left = int(np.clip(abs(k_target - knife) / rate, 8, 80))
                    ramp_knife = (k_target - knife) / mode_left
                    ramp_gap = (g_target - gap) / mode_left
            if mode == "ramp":
                knife = float(np.clip(knife + ramp_knife, k_lo, k_hi))
                gap = float(np.clip(gap + ramp_gap, g_lo, g_hi))
            elif mode == "walk":
                knife = float(np.clip(knife + 1.2 * rng.standard_normal(), k_lo, k_hi))
                gap = float(np.clip(gap + 0.02 * rng.standard_normal(), g_lo, g_hi))
            mode_left -= 1
            redraw_left -= 1
            asym = float(np.clip(asym + 0.005 * rng.standard_normal(), -0.04, 0.04))
            ds = float(np.clip(gap + asym, g_lo, g_hi))
            os_ = float(np.clip(gap - asym, g_lo, g_hi))

        state = replace(state, knife=knife, ds_gap=ds, os_gap=os_)
        state = plant_step(state, params, rng)

        if params.meas_sigma_w > 0:
            eta_w = params.meas_rho_w * eta_w + innov_w * rng.standard_normal()
        if params.meas_sigma_h > 0:
            eta_h = params.meas_rho_h * eta_h + innov_h * rng.standard_normal()
        if periodic:
            phase += omega
            if params.runout_phase_jitter > 0:
                phase += params.runout_phase_jitter * rng.standard_normal()
        wave = np.sin(phase)

        rows[t, 0] = knife
        rows[t, 1] = ds
        rows[t, 2] = os_
        rows[t, 3] = max(state.width + eta_w + params.runout_amp_w * wave, 1.0)
        rows[t, 4] = max(state.thickness + eta_h + params.runout_amp_h * wave, 0.01)
        rows[t, 5] = (phase % (2.0 * np.pi)) if periodic else np.pi
        rows[t, 6:] = state.aux

    return SeriesDataset(params.feature_names(), rows)
