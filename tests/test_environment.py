"""Reward closed forms and environment mechanics (against a stub backend)."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from filmline.environment import (
    OBJECTIVES, EpisodeConfig, FilmLineEnv, ForecastBackend, PlantBackend, RewardConfig,
    normalize_weights, oracle_eval, reward_components, run_episodes, total_reward,
)
from filmline.plant import (
    CONTROL_NAMES, PlantParams, thickness_steady_state, width_steady_state,
)


class LinearBackend:
    """Instant steady-state plant stub: deterministic, lag- and noise-free."""

    def __init__(self, params: PlantParams | None = None):
        self.params = params or PlantParams()

    def reset(self, knife, ds, os_):
        return self.step(knife, ds, os_)

    def settle(self, triples):
        return [self.step(*t) for t in triples]

    def step(self, knife, ds, os_):
        return (width_steady_state(self.params, knife, 0.5 * (ds + os_)),
                thickness_steady_state(self.params, ds, os_))


def components(error, best=None, moves=(0.0,)):
    """reward_components at the default config; ``best`` defaults to ``error``."""
    return reward_components(error, error if best is None else best, np.array(moves),
                             RewardConfig())


def env_with_stub(width_target=480.0, thickness_target=3.0, max_steps=50,
                  seed=0, reward=None):
    return FilmLineEnv(LinearBackend(), EpisodeConfig(
        width_target=width_target, thickness_target=thickness_target,
        max_steps=max_steps), reward or RewardConfig(), seed=seed)


# ----------------------------------------------------------------------
# reward components (closed forms)
# ----------------------------------------------------------------------

def test_error_reward_at_zero_error():
    r_e, r_p, p_a, r_s = components(0.0)
    assert r_e == pytest.approx(2.0, abs=1e-12)  # 2 * exp(0)


def test_error_reward_at_unit_error():
    r_e, *_ = components(1.0)
    assert r_e == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)
    assert r_e == pytest.approx(0.7357588823428847, abs=1e-9)


def test_progress_reward_zero_at_best():
    _, r_p, _, _ = components(2.0, best=2.0)
    assert r_p == 0.0


def test_progress_reward_is_bounded():
    # strictly inside (-0.3, 0.3) wherever float64 tanh has not saturated to 1
    for err, best in [(0.0, 15.0), (15.0, 0.0), (3.0, 2.0), (1.0, 0.5)]:
        _, r_p, _, _ = components(err, best=best)
        assert abs(r_p) < 0.3
    _, r_p, _, _ = components(1e6, best=0.0)
    assert abs(r_p) <= 0.3  # saturated tanh rounds to exactly 1 at 64-bit


def test_action_penalty_zero_without_movement():
    _, _, p_a, _ = components(1.0, moves=(0.0,))
    assert p_a == 0.0


def test_action_penalty_quadratic_in_units():
    _, _, p_a, _ = components(1.0, moves=(0.5,))
    assert p_a == pytest.approx(-0.05 * 0.25, abs=1e-12)
    _, _, p_a, _ = components(1.0, moves=(0.5, -0.5))  # both roll gaps
    assert p_a == pytest.approx(-0.05 * 0.5, abs=1e-12)


def test_steady_reward_inside_threshold():
    *_, r_s = components(0.5)
    assert r_s == pytest.approx(0.25, abs=1e-12)  # 0.5 * (1 - 0.5)


def test_steady_reward_gated_outside_threshold():
    *_, r_s = components(1.5)
    assert r_s == 0.0


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
        w, h = env.backend.step(*env._setpoints)  # the stub reads its start again
        w_err = abs(w - env.episode.width_target)
        h_err = abs(h - env.episode.thickness_target)
        assert w_err >= 5.0 or h_err >= 0.25  # at least one objective starts far
        near_starts += int(w_err < 5.0 or h_err < 0.25)
    assert near_starts > 0  # the curriculum mixes in near-target starts


def test_reset_gives_up_when_every_draw_reads_the_targets():
    class AtTargets(LinearBackend):  # probes respond, but every start reads the targets
        draws = 0

        def reset(self, knife, ds, os_):
            self.draws += 1
            return 480.0, 3.0

    backend = AtTargets()
    env = FilmLineEnv(backend, EpisodeConfig(width_target=480.0, thickness_target=3.0),
                      RewardConfig())
    with pytest.raises(RuntimeError,
                       match="^could not sample an initial state away from the targets$"):
        env.reset()
    assert backend.draws == 50


def test_normalized_error_definition():
    env = env_with_stub(seed=2)
    env.reset()
    values = env.backend.step(*env._setpoints)
    targets = (env.episode.width_target, env.episode.thickness_target)
    assert [obj.tolerance for obj in OBJECTIVES] == [1.0, 0.05]
    for signed, best, v, target, tol in zip(env._signed, env._best, values, targets, (1.0, 0.05)):
        assert signed == pytest.approx((v - target) / tol)
        assert best == abs(signed)


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


def test_action_penalty_charges_the_clamped_move():
    env = env_with_stub(max_steps=200, seed=5)
    env.reset()
    knife_hi = env.episode.knife_bounds[1]
    while env._setpoints[0] < knife_hi:
        env.step(np.array([1.0, 0.0, 0.0]))
    gap = env._setpoints[1]
    _, _, _, info = env.step(np.array([1.0, 0.5, 0.0]))
    assert env._setpoints[0] == knife_hi  # a +1 knife action moves nothing at the bound
    assert info["applied_action_units"][0] == 0.0
    assert info["components"]["width"][2] == 0.0  # so the width penalty is exactly zero
    moved = (env._setpoints[1] - gap) / env.episode.gap_scale
    assert info["components"]["thickness"][2] == -0.05 * float(moved * moved)


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
    e_before = [abs(e) for e in env._signed]
    env.step(np.zeros(3))
    e_after = [abs(e) for e in env._signed]
    assert e_after == pytest.approx(e_before, abs=1e-9)  # stub plant has no lag


def test_best_error_is_monotone_within_episode():
    env = env_with_stub(seed=10)
    env.reset()
    rng = np.random.default_rng(0)
    best = list(env._best)
    for _ in range(30):
        _, _, done, _ = env.step(rng.uniform(-1, 1, 3))
        for i, b in enumerate(env._best):
            assert b <= best[i] + 1e-12
            best[i] = b
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


def test_step_before_reset_is_refused():
    with pytest.raises(RuntimeError, match=r"step\(\) before reset\(\)"):
        env_with_stub().step(np.zeros(3))


def test_step_refuses_an_action_of_the_wrong_shape():
    env = env_with_stub()
    env.reset()
    with pytest.raises(ValueError, match=r"action must have shape \(3,\), got \(2,\)"):
        env.step(np.zeros(2))


def test_run_episodes_records_the_policys_own_actions():
    rng = np.random.default_rng(3)
    given = []

    def policy(state):
        given.append(rng.uniform(-2.0, 2.0, 3))  # outside [-1, 1]: the env clips, not the record
        return given[-1]

    (rec,) = run_episodes(env_with_stub(max_steps=7), policy, 1)
    assert rec["actions"].shape == (len(rec["rewards"]), 3)
    np.testing.assert_array_equal(rec["actions"], np.stack(given))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_step_refuses_a_non_finite_action(bad):
    env = FilmLineEnv(PlantBackend(PlantParams()), EpisodeConfig(), RewardConfig(), seed=2)
    env.reset()
    with pytest.raises(ValueError, match="non-finite action"):
        env.step(np.array([0.1, bad, 0.0]))


def test_plant_backend_runs_true_dynamics():
    backend = PlantBackend(PlantParams())
    w0, h0 = backend.reset(470.0, 3.0, 3.0)
    assert w0 == pytest.approx(width_steady_state(PlantParams(), 470.0, 3.0))
    w1, h1 = backend.step(472.0, 3.0, 3.0)
    assert w1 > w0  # lagged move toward the higher steady state
    assert backend.settle([(470.0, 3.0, 3.0)]) == [(w0, h0)]


def test_forecast_backend_raises_on_a_non_finite_prediction(micro_models):
    width, thickness, scenario = micro_models

    class NanWidth:
        cfg, norm = width.cfg, width.norm

        def predict(self, lanes):
            return np.full(lanes.shape[:2], np.nan)

    backend = ForecastBackend(NanWidth(), thickness)
    with pytest.raises(ValueError, match=r"width forecaster predicted nan .*knife="):
        backend.reset(430.0, 2.7, 2.7)
    with pytest.raises(ValueError, match="width forecaster predicted nan"):
        FilmLineEnv(backend, EpisodeConfig(width_target=scenario[0],
                                           thickness_target=scenario[1]), RewardConfig())


def test_lane_settle_equals_serial_resets_bit_for_bit(micro_models, monkeypatch):
    width, thickness, _ = micro_models
    early = (365.0, 1.9, 1.9)
    # ramps of 2 to 35 steps, one lane that leaves early, and a repeat
    triples = [(470.0, 2.5, 2.75), (430.0, 2.7, 2.7), early, (495.0, 3.5, 3.5),
               (430.0, 2.7, 2.7)]
    serial = ForecastBackend(width, thickness)
    expected = [serial.reset(*t) for t in triples]
    assert ForecastBackend(width, thickness).settle(triples) == expected

    calls = []
    predict = width.predict
    monkeypatch.setattr(width, "predict", lambda lanes: calls.append(1) or predict(lanes))
    serial.reset(*early)
    names = width.norm.feature_names
    start = np.array([width.norm.mean[names.index(n)] for n in CONTROL_NAMES])
    ramp = int(np.ceil(np.max(np.abs(np.array(early) - start) / ForecastBackend.RAMP_RATES)))
    assert len(calls) < ramp + 4 * width.cfg.window  # its exit test fired


def test_lane_settle_answers_memo_hits_and_repeats_without_predicting_again():
    names = PlantParams().feature_names()
    col = names.index("knife_spacing")
    rows = []

    def echo(lanes):
        rows.append(len(lanes))
        return lanes[..., -1, col]

    def backend():
        return ForecastBackend(schema_stub(names, echo), schema_stub(names, echo))

    shared = backend()
    assert shared.settle([(470.0, 2.5, 2.5)]) == [(470.0, 470.0)]
    rows.clear()
    assert shared.settle([(470.0, 2.5, 2.5)]) == [(470.0, 470.0)]
    assert rows == []  # a memo hit runs no predict
    backend().settle([(450.0, 2.5, 2.5)])
    alone = sum(rows)
    rows.clear()
    shared.settle([(450.0, 2.5, 2.5), (450.0, 2.5, 2.5)])
    assert sum(rows) == alone  # a repeat within one call is one lane


@pytest.mark.parametrize("bad", ["one-lane", "two-lanes"])
def test_lane_settle_raises_the_error_the_serial_resets_raise(bad):
    names = PlantParams().feature_names()
    col, ds_col = names.index("knife_spacing"), names.index("ds_gap")
    # non-finite once a lane's set-points reach these (knife, DS gap) pairs; the
    # (450, 2.6) lane, third in order, gets there ten steps before the (470, 2.5)
    # lane, but the serial resets stop at the second triple and never reach it
    nan_at = {"one-lane": [(470.0, 2.5)], "two-lanes": [(470.0, 2.5), (450.0, 2.6)]}[bad]

    def width(lanes):
        knife, ds = lanes[..., -1, col], lanes[..., -1, ds_col]
        hit = np.any([(knife == k) & (ds == d) for k, d in nan_at], axis=0)
        return np.where(hit, np.nan, knife)

    def backend():
        return ForecastBackend(schema_stub(names, width),
                               schema_stub(names, lambda lanes: lanes[..., -1, col]))

    triples = [(440.0, 2.5, 2.5), (470.0, 2.5, 2.75), (450.0, 2.6, 2.6)]
    serial = backend()
    with pytest.raises(ValueError) as serial_error:
        for t in triples:
            serial.reset(*t)
    with pytest.raises(ValueError, match="width forecaster predicted nan at set-points knife=") \
            as lane_error:
        backend().settle(triples)
    assert str(lane_error.value) == str(serial_error.value)
    assert str(lane_error.value).endswith("knife=470.0, ds=2.5, os=2.75")


def schema_stub(names, predict=None, window=3):
    """A forecaster as ``ForecastBackend`` sees it: a schema, a window and ``predict``."""
    norm = SimpleNamespace(feature_names=names, mean=np.arange(len(names), dtype=np.float64))
    return SimpleNamespace(norm=norm, cfg=SimpleNamespace(window=window), predict=predict)


def test_forecast_backend_refuses_models_that_disagree_on_the_schema():
    names = PlantParams().feature_names()
    with pytest.raises(ValueError, match="disagree on the feature schema"):
        ForecastBackend(schema_stub(names), schema_stub(names[::-1]))


@pytest.mark.parametrize("missing", ["ds_gap", "thickness"])
def test_forecast_backend_refuses_a_schema_without_a_control_or_quality_column(missing):
    names = [n for n in PlantParams().feature_names() if n != missing]
    with pytest.raises(ValueError, match=f"schema is missing column '{missing}'"):
        ForecastBackend(schema_stub(names), schema_stub(names))


def test_forecast_backend_writes_set_points_into_their_named_columns():
    names = PlantParams().feature_names()[::-1]  # the columns in an unusual order
    col = {n: i for i, n in enumerate(names)}
    # "forecasts": width echoes the knife column, thickness the DS plus OS gap columns
    width = schema_stub(names, lambda lanes: lanes[..., -1, col["knife_spacing"]])
    thickness = schema_stub(names, lambda lanes: lanes[..., -1, col["ds_gap"]]
                            + lanes[..., -1, col["os_gap"]])
    backend = ForecastBackend(width, thickness)
    assert backend.reset(470.0, 2.5, 2.75) == (470.0, 5.25)
    assert backend.step(471.0, 2.5, 2.5) == (471.0, 5.0)


@pytest.mark.parametrize("flat", ["width", "thickness"])
def test_a_flat_response_is_refused_by_name(flat):
    class FlatBackend(LinearBackend):
        def step(self, knife, ds, os_):
            width, thickness = super().step(knife, ds, os_)
            return (480.0, thickness) if flat == "width" else (width, 3.0)

    response = {"width": "knife->width", "thickness": "gap->thickness"}[flat]
    reading = {"width": "480.0", "thickness": "3.0"}[flat]
    with pytest.raises(ValueError, match=f"flat {response} response: .* read {reading} and "
                                         f"{reading}$"):
        FilmLineEnv(FlatBackend(), EpisodeConfig(width_target=480.0, thickness_target=3.0),
                    RewardConfig())
