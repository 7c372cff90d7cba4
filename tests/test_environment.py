"""Reward closed forms and environment mechanics (against a stub backend)."""

import math

import numpy as np
import pytest

from filmline.environment import (
    EpisodeConfig, FilmLineEnv, ForecastBackend, ObjectiveState, PlantBackend, RewardConfig,
    normalize_weights, oracle_eval, reward_components, total_reward,
)
from filmline.plant import PlantParams, thickness_steady_state, width_steady_state


class LinearBackend:
    """Instant steady-state plant stub: deterministic, lag- and noise-free."""

    def __init__(self, params: PlantParams | None = None):
        self.params = params or PlantParams()

    def reset(self, knife, ds, os_):
        return self.step(knife, ds, os_)

    def step(self, knife, ds, os_):
        return (width_steady_state(self.params, knife, 0.5 * (ds + os_)),
                thickness_steady_state(self.params, ds, os_))


def make_objective(error, best=None, delta=0.0, tolerance=1.0):
    return ObjectiveState(
        name="width", value=0.0, target=0.0, tolerance=tolerance,
        error=error, best_error=error if best is None else best,
        prev_signed=0.0,
        setpoints=np.array([delta]), prev_setpoints=np.array([0.0]),
        action_scales=np.array([1.0]),
    )


def env_with_stub(width_target=480.0, thickness_target=3.0, max_steps=50,
                  seed=0, reward=None):
    return FilmLineEnv(LinearBackend(), EpisodeConfig(
        width_target=width_target, thickness_target=thickness_target,
        max_steps=max_steps), reward or RewardConfig(), seed=seed)


# ----------------------------------------------------------------------
# reward components (closed forms)
# ----------------------------------------------------------------------

def test_error_reward_at_zero_error():
    r_e, r_p, p_a, r_s = reward_components(make_objective(0.0), RewardConfig())
    assert r_e == pytest.approx(2.0, abs=1e-12)  # 2 * exp(0)


def test_error_reward_at_unit_error():
    r_e, *_ = reward_components(make_objective(1.0), RewardConfig())
    assert r_e == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)
    assert r_e == pytest.approx(0.7357588823428847, abs=1e-9)


def test_progress_reward_zero_at_best():
    _, r_p, _, _ = reward_components(make_objective(2.0, best=2.0), RewardConfig())
    assert r_p == 0.0


def test_progress_reward_is_bounded():
    # strictly inside (-0.3, 0.3) wherever float64 tanh has not saturated to 1
    for err, best in [(0.0, 15.0), (15.0, 0.0), (3.0, 2.0), (1.0, 0.5)]:
        _, r_p, _, _ = reward_components(make_objective(err, best=best), RewardConfig())
        assert abs(r_p) < 0.3
    _, r_p, _, _ = reward_components(make_objective(1e6, best=0.0), RewardConfig())
    assert abs(r_p) <= 0.3  # saturated tanh rounds to exactly 1 at 64-bit


def test_action_penalty_zero_without_movement():
    _, _, p_a, _ = reward_components(make_objective(1.0, delta=0.0), RewardConfig())
    assert p_a == 0.0


def test_action_penalty_quadratic_in_units():
    _, _, p_a, _ = reward_components(make_objective(1.0, delta=0.5), RewardConfig())
    assert p_a == pytest.approx(-0.05 * 0.25, abs=1e-12)


def test_steady_reward_inside_threshold():
    *_, r_s = reward_components(make_objective(0.5), RewardConfig())
    assert r_s == pytest.approx(0.25, abs=1e-12)  # 0.5 * (1 - 0.5)


def test_steady_reward_gated_outside_threshold():
    *_, r_s = reward_components(make_objective(1.5), RewardConfig())
    assert r_s == 0.0


def test_steady_reward_ungated_goes_negative():
    cfg = RewardConfig(gate_steady=False)
    *_, r_s = reward_components(make_objective(1.5), cfg)
    assert r_s == pytest.approx(0.5 * (1.0 - 1.5), abs=1e-12)


# ----------------------------------------------------------------------
# total reward
# ----------------------------------------------------------------------

def perfect_components():
    return (2.0, 0.0, 0.0, 0.5)


def test_total_reward_perfect_state():
    cfg = RewardConfig()
    total = total_reward([perfect_components(), perfect_components()], cfg)
    assert total == pytest.approx(2.5, abs=1e-12)


def test_total_reward_respects_weights():
    cfg = RewardConfig(weights=(1.0, 0.0))
    width_only = total_reward([(1.0, 0.1, -0.2, 0.0), (99.0, 99.0, 99.0, 99.0)], cfg)
    assert width_only == pytest.approx(0.9, abs=1e-12)


def test_total_reward_clips_to_bounds():
    cfg = RewardConfig(weights=(1.0, 1.0))
    total = total_reward([(7.0, 0.0, 0.0, 0.0), (7.0, 0.0, 0.0, 0.0)], cfg)
    assert total == 5.0  # raw 7 against bounds [-5, 5]


def test_total_reward_component_switches():
    cfg = RewardConfig(weights=(1.0, 0.0), use_progress=False,
                       use_action_penalty=False, use_steady=False)
    total = total_reward([(1.5, 0.2, -0.3, 0.4), perfect_components()], cfg)
    assert total == pytest.approx(1.5, abs=1e-12)


def test_normalize_weights():
    assert normalize_weights((1.0, 1.0)) == pytest.approx((0.5, 0.5))
    with pytest.raises(ValueError):
        normalize_weights((0.0, 0.0))
    with pytest.raises(ValueError):
        normalize_weights((-1.0, 2.0))


# ----------------------------------------------------------------------
# environment mechanics
# ----------------------------------------------------------------------

def test_reset_state_dimension_matches_formula():
    env = env_with_stub()
    state = env.reset()
    ep = env.episode
    assert state.shape == (2 * (3 + ep.history) + 3,) == (ep.state_dim,)


def test_reset_is_seed_deterministic():
    s1 = env_with_stub(seed=9).reset()
    s2 = env_with_stub(seed=9).reset()
    assert np.array_equal(s1, s2)


def test_reset_samples_away_from_targets():
    env = env_with_stub(seed=1)
    near_starts = 0
    for _ in range(200):
        env.reset()
        w_err = abs(env.objectives[0].value - env.episode.width_target)
        h_err = abs(env.objectives[1].value - env.episode.thickness_target)
        assert w_err >= 5.0 or h_err >= 0.25  # at least one objective starts far
        near_starts += int(w_err < 5.0 or h_err < 0.25)
    assert near_starts > 0  # the curriculum mixes in near-target starts


def test_normalized_error_definition():
    env = env_with_stub(seed=2)
    env.reset()
    for obj, tol in zip(env.objectives, (1.0, 0.05)):
        assert obj.tolerance == tol
        assert obj.error == pytest.approx(abs(obj.value - obj.target) / tol)


def test_action_scaling_moves_knife_by_scale():
    env = env_with_stub(seed=3)
    env.reset()
    knife_before = env._setpoints[0]
    env.step(np.array([1.0, 0.0, 0.0]))
    assert env._setpoints[0] == pytest.approx(knife_before + env.episode.knife_scale)


def test_actions_are_clamped_to_unit_interval():
    env = env_with_stub(seed=4)
    env.reset()
    knife_before = env._setpoints[0]
    env.step(np.array([50.0, 0.0, 0.0]))
    assert env._setpoints[0] <= knife_before + env.episode.knife_scale + 1e-12


def test_setpoints_respect_actuator_bounds():
    env = env_with_stub(seed=5)
    env.reset()
    for _ in range(200):
        _, _, done, _ = env.step(np.array([1.0, 1.0, 1.0]))
        if done:
            break
    assert env._setpoints[0] <= env.episode.knife_bounds[1]
    assert env._setpoints[1] <= env.episode.gap_bounds[1]


def test_done_exactly_at_tolerance_boundary():
    class BoundaryBackend(LinearBackend):
        pinned = False

        def step(self, knife, ds, os_):
            if self.pinned:
                return 481.0, 3.0  # width error exactly at the 1 mm tolerance
            return super().step(knife, ds, os_)

    backend = BoundaryBackend()
    env = FilmLineEnv(backend, EpisodeConfig(max_steps=50), RewardConfig(), seed=6)
    env.reset()
    backend.pinned = True
    _, _, done, info = env.step(np.zeros(3))
    assert info["within_tolerance"] and done


def test_done_at_max_steps():
    env = env_with_stub(max_steps=3, seed=7)
    env.reset()
    done = False
    for i in range(3):
        _, _, done, info = env.step(np.array([0.0, 0.0, 0.0]))
    assert done and info["step"] == 3


def test_zero_action_at_fixed_point_keeps_errors():
    env = env_with_stub(seed=8)
    env.reset()
    e_before = [o.error for o in env.objectives]
    env.step(np.zeros(3))
    e_after = [o.error for o in env.objectives]
    assert e_after == pytest.approx(e_before, abs=1e-9)  # stub plant has no lag


def test_best_error_is_monotone_within_episode():
    env = env_with_stub(seed=10)
    env.reset()
    rng = np.random.default_rng(0)
    best = [o.best_error for o in env.objectives]
    for _ in range(30):
        _, _, done, _ = env.step(rng.uniform(-1, 1, 3))
        for i, obj in enumerate(env.objectives):
            assert obj.best_error <= best[i] + 1e-12
            best[i] = obj.best_error
        if done:
            break


def test_episode_is_deterministic_given_seed():
    def run(seed):
        env = env_with_stub(seed=seed)
        env.reset()
        rng = np.random.default_rng(33)
        out = []
        for _ in range(10):
            s, r, done, info = env.step(rng.uniform(-1, 1, 3))
            out.append((s.copy(), r))
            if done:
                break
        return out

    a, b = run(12), run(12)
    for (sa, ra), (sb, rb) in zip(a, b):
        assert np.array_equal(sa, sb) and ra == rb


def test_weight_change_affects_only_subsequent_steps():
    env = env_with_stub(seed=13)
    env.reset()
    _, r1, _, _ = env.step(np.array([0.5, 0.0, 0.0]))
    env.set_objective_weights((1.0, 0.0))
    assert env.objective_weights == pytest.approx((1.0, 0.0))
    _, r2, _, info = env.step(np.zeros(3))
    comp = info["components"]["width"]
    assert r2 == pytest.approx(float(np.clip(sum(comp), -5, 5)), abs=1e-12)


def test_unreachable_target_raises():
    with pytest.raises(ValueError, match="outside reachable range"):
        env_with_stub(width_target=900.0)
    with pytest.raises(ValueError, match="outside reachable range"):
        env_with_stub(thickness_target=0.5)


def test_info_carries_errors_and_components():
    env = env_with_stub(seed=14)
    env.reset()
    _, _, _, info = env.step(np.array([0.2, -0.1, 0.3]))
    assert set(info) >= {"step", "width", "thickness", "width_error_mm",
                         "thickness_error_mm", "components", "within_tolerance"}
    assert set(info["components"]) == {"width", "thickness"}
    assert len(info["components"]["width"]) == 4


# ----------------------------------------------------------------------
# true-plant evaluation
# ----------------------------------------------------------------------

def proportional_policy(state):
    # state features: [width block 7][thickness block 7][setpoints 3]
    w_err = np.arctanh(np.clip(state[0], -0.999999, 0.999999)) * 10.0
    h_err = np.arctanh(np.clip(state[7], -0.999999, 0.999999)) * 10.0
    knife = np.clip(-0.5 * w_err, -1, 1)
    gap = np.clip(-0.5 * h_err, -1, 1)
    return np.array([knife, gap, gap])


def test_oracle_eval_converges_with_proportional_policy():
    records = oracle_eval(proportional_policy, PlantParams(), EpisodeConfig(),
                          RewardConfig(), seed=3, episodes=3)
    for rec in records:
        assert rec["optimize_step"] < 100
        assert abs(rec["width_err"]) <= 1.0
        assert abs(rec["thickness_err"]) <= 0.05


def test_oracle_eval_random_policy_fails():
    rng = np.random.default_rng(5)
    records = oracle_eval(lambda s: rng.uniform(-1, 1, 3), PlantParams(),
                          EpisodeConfig(max_steps=30), RewardConfig(), seed=4,
                          episodes=2)
    assert np.mean([r["optimize_step"] for r in records]) > 25


def test_oracle_eval_is_deterministic():
    a = oracle_eval(proportional_policy, PlantParams(), EpisodeConfig(),
                    RewardConfig(), seed=6, episodes=2)
    b = oracle_eval(proportional_policy, PlantParams(), EpisodeConfig(),
                    RewardConfig(), seed=6, episodes=2)
    assert [r["optimize_step"] for r in a] == [r["optimize_step"] for r in b]
    assert a[0]["total_reward"] == b[0]["total_reward"]


def test_plant_backend_runs_true_dynamics():
    backend = PlantBackend(PlantParams(), noisy=False)
    w0, h0 = backend.reset(470.0, 3.0, 3.0)
    assert w0 == pytest.approx(width_steady_state(PlantParams(), 470.0, 3.0))
    w1, h1 = backend.step(472.0, 3.0, 3.0)
    assert w1 > w0  # lagged move toward the higher steady state


def test_forecast_backend_raises_on_a_non_finite_prediction(micro_models):
    width, thickness, scenario = micro_models

    class NanWidth:
        cfg, norm = width.cfg, width.norm

        def predict(self, window):
            return np.nan

    backend = ForecastBackend(NanWidth(), thickness)
    with pytest.raises(ValueError, match=r"width forecaster predicted nan .*knife="):
        backend.reset(430.0, 2.7, 2.7)
    with pytest.raises(ValueError, match="width forecaster predicted nan"):
        FilmLineEnv(backend, EpisodeConfig(width_target=scenario[0],
                                           thickness_target=scenario[1]), RewardConfig())
