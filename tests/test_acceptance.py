"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Criteria 1-4 are exact/closed-form suites and always run. Criteria 5-8 train
forecasters and agents at full desk scale and only run under
``--run-acceptance`` (they take on the order of an hour on a desktop CPU).
Run with ``-s`` to see the per-criterion lines as they pass.
"""

import math
import os
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from filmline import autodiff as ad
from filmline.autodiff import Tensor
from filmline.agent import (
    UpdateConfig, clipped_surrogate, discounted_returns, gae_advantages, standardize,
)
from filmline.cells import GruParams, LstmParams, gru_cell, lstm_cell
from filmline.environment import RewardConfig, reward_components, total_reward
from filmline.forecaster import (
    ForecasterConfig, LstnetParams, evaluate_forecaster, linreg_baseline,
    lstnet_forward, train_forecaster,
)
from filmline.harness import (
    AppConfig, aggregate_records, emit_outputs, run_cell, run_grid,
    train_or_load_forecasters,
)
from filmline.nets import BranchSpec, CriticNetwork, PolicyNetwork, entropy_value, log_prob_value
from filmline.plant import PlantParams, generate_dataset

from conftest import finite_diff_check

acceptance = pytest.mark.acceptance


def report(criterion: int, passed: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line, file=sys.stderr)
    assert passed, line


# ----------------------------------------------------------------------
# criterion 1: gradient correctness (< 1 min)
# ----------------------------------------------------------------------

def _random_composition_check(seed: int) -> float:
    """Random chain over the primitive pool, checked against central differences."""
    rng = np.random.default_rng(seed)
    w = Tensor(rng.uniform(-0.8, 0.8, size=(3, 4)), requires_grad=True)
    v = Tensor(rng.uniform(0.2, 1.0, size=4), requires_grad=True)
    m = Tensor(rng.uniform(-0.7, 0.7, size=(4, 3)), requires_grad=True)
    x = Tensor(rng.uniform(-1.0, 1.0, size=(3, 4)))

    ops = rng.choice(
        ["add", "sub", "mul", "div", "exp", "tanh", "relu", "square", "abs",
         "clip", "min", "max", "scale", "sigmoid"], size=4, replace=True)

    def build():
        h = ad.add(x, w)
        for op in ops:
            if op == "add":
                h = ad.add(h, w)
            elif op == "sub":
                h = ad.sub(h, w)
            elif op == "mul":
                h = ad.mul(h, w)
            elif op == "div":
                h = ad.div(h, Tensor(np.full((3, 4), 2.0)))
            elif op == "exp":
                h = ad.exp(ad.clip(h, -3.0, 3.0))
            elif op == "tanh":
                h = ad.tanh(h)
            elif op == "relu":
                h = ad.relu(ad.add(h, Tensor(np.full((3, 4), 0.1))))
            elif op == "square":
                h = ad.square(ad.clip(h, -2.0, 2.0))
            elif op == "abs":
                h = ad.abs_(ad.add(h, Tensor(np.full((3, 4), 0.05))))
            elif op == "clip":
                h = ad.clip(h, -1.5, 1.5)
            elif op == "min":
                h = ad.minimum(h, ad.scale(w, 0.5))
            elif op == "max":
                h = ad.maximum(h, ad.scale(w, -0.5))
            elif op == "scale":
                h = ad.scale(h, 0.7)
            elif op == "sigmoid":
                h = ad.sigmoid(h)
        h = ad.scale_cols(h, v)
        out = ad.matmul(h, m)
        return ad.mean_(ad.square(ad.tanh(out)))

    return finite_diff_check(build, [w, v, m])


def test_criterion_1_gradient_correctness():
    started = time.time()
    worst = 0.0
    for seed in range(100):
        worst = max(worst, _random_composition_check(seed))

    # full forecaster graph at tiny dimensions
    rng = np.random.default_rng(1000)
    cfg = ForecasterConfig(window=8, conv_kernel=3, conv_channels=4, pool_window=2,
                           lstm_hidden=4, skip_hidden=3, skip_period=2, dropout=0.0,
                           fusion_hidden=4)
    params = LstnetParams.init(cfg, 3, rng)
    windows = rng.standard_normal((2, 8, 3))
    worst = max(worst, finite_diff_check(
        lambda: ad.mean_(ad.square(lstnet_forward(cfg, params, windows))),
        params.tensors()))

    # full policy and critic graphs at tiny dimensions
    branches = [BranchSpec("a", 1, init_sigma=0.5, hidden_sizes=[4]),
                BranchSpec("b", 2, init_sigma=0.3, hidden_sizes=[4])]
    policy = PolicyNetwork(4, branches, rng, trunk_sizes=[6, 6])
    states = rng.standard_normal((3, 4))

    def policy_loss():
        outs = policy.forward(states)
        total = None
        for mean, std in outs:
            term = ad.mean_(ad.square(mean)) + ad.sum_(ad.square(std))
            total = term if total is None else total + term
        return total

    worst = max(worst, finite_diff_check(policy_loss, policy.tensors()))

    critic = CriticNetwork(4, 2, rng, trunk_sizes=[6, 6])

    def critic_loss():
        outs = critic.forward(states)
        return ad.mean_(ad.square(outs[0])) + ad.mean_(ad.square(outs[1]))

    worst = max(worst, finite_diff_check(critic_loss, critic.tensors()))

    # recurrent cells on their own
    p_l = LstmParams.init(3, 4, rng)
    xs = Tensor(rng.standard_normal((2, 3)))
    h0 = Tensor(rng.standard_normal((2, 4)))
    c0 = Tensor(rng.standard_normal((2, 4)))

    def lstm_loss():
        h, c = lstm_cell(xs, h0, c0, p_l)
        return ad.mean_(ad.square(h)) + ad.mean_(ad.square(c))

    worst = max(worst, finite_diff_check(lstm_loss, p_l.tensors()))
    p_g = GruParams.init(3, 4, rng)
    worst = max(worst, finite_diff_check(
        lambda: ad.mean_(ad.square(gru_cell(xs, h0, p_g))), p_g.tensors()))

    elapsed = time.time() - started
    report(1, worst < 1e-4 and elapsed < 60.0,
           f"max rel err {worst:.2e} over 100 random compositions + full tiny "
           f"graphs in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# criterion 2: closed forms to 1e-9
# ----------------------------------------------------------------------

def _objective(error, best, delta_units=0.0):
    """reward_components' (error, best error, applied moves) for one knife move."""
    return error, best, np.array([delta_units])


def test_criterion_2_closed_form_suite():
    tol = 1e-9
    checks = []

    checks.append(abs(log_prob_value([0.0], [1.0], [0.0]) - (-0.5 * math.log(2 * math.pi))) < tol)
    checks.append(abs(log_prob_value([0.0], [1.0], [1.0]) - (-0.5 - 0.5 * math.log(2 * math.pi))) < tol)
    checks.append(abs(entropy_value([1.0]) - 0.5 * (math.log(2 * math.pi) + 1.0)) < tol)
    expected_ent = 2.0 * (0.5 * (math.log(2 * math.pi) + 1.0) + math.log(0.5))
    checks.append(abs(entropy_value([0.5, 0.5]) - expected_ent) < tol)

    cfg = RewardConfig()
    r_e, r_p, p_a, r_s = reward_components(*_objective(0.0, 0.0), cfg)
    checks.append(abs(r_e - 2.0) < tol and r_p == 0.0 and p_a == 0.0
                  and abs(r_s - 0.5) < tol)
    r_e, *_ = reward_components(*_objective(1.0, 1.0), cfg)
    checks.append(abs(r_e - 2.0 * math.exp(-1.0)) < tol)
    *_, r_s = reward_components(*_objective(0.5, 0.5), cfg)
    checks.append(abs(r_s - 0.25) < tol)
    _, _, p_a, _ = reward_components(*_objective(1.0, 1.0, delta_units=0.5), cfg)
    checks.append(abs(p_a - (-0.05 * 0.25)) < tol)
    total = total_reward([(2.0, 0.0, 0.0, 0.5), (2.0, 0.0, 0.0, 0.5)], cfg)
    checks.append(abs(total - 2.5) < tol)

    returns = discounted_returns([1.0, 1.0, 1.0], [0, 0, 1], 0.9)
    checks.append(np.abs(returns - [2.71, 1.9, 1.0]).max() < tol)

    adv, targets = gae_advantages([1.0, 1.0], [0.5, 0.5], [0.0, 1.0], 0.9, 0.95)
    checks.append(np.abs(adv - [1.3775, 0.5]).max() < tol)
    checks.append(np.abs(targets - [1.8775, 1.0]).max() < tol)

    x = np.array([1.0, 2.0, 3.0])
    expected_std = (x - 2.0) / (x.std() + 1e-8)
    checks.append(np.abs(standardize(x) - expected_std).max() < tol)

    checks.append(abs(clipped_surrogate(Tensor([1.5]), np.array([2.0]), 0.2).data[0] - 2.4) < tol)
    checks.append(abs(clipped_surrogate(Tensor([0.5]), np.array([-1.0]), 0.2).data[0] - (-0.8)) < tol)
    checks.append(abs(clipped_surrogate(Tensor([1.0]), np.array([1.7]), 0.2).data[0] - 1.7) < tol)

    report(2, all(checks), f"{sum(checks)}/{len(checks)} closed-form identities at 1e-9")


# ----------------------------------------------------------------------
# criterion 3: oracle equivalences
# ----------------------------------------------------------------------

def test_criterion_3_oracle_equivalences():
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 30))
        rewards = rng.standard_normal(n)
        dones = np.zeros(n)
        cut = rng.integers(1, n + 1)
        dones[cut - 1] = 1.0
        dones[-1] = 1.0
        gamma = float(rng.uniform(0.5, 1.0))
        adv, _ = gae_advantages(rewards, np.zeros(n), dones, gamma, 1.0)
        ref = discounted_returns(rewards, dones, gamma)
        worst_gap = max(worst_gap, float(np.abs(adv - ref).max()))
    gae_ok = worst_gap < 1e-10

    # skip path with period 1 vs an ordinary GRU over the pooled sequence
    cfg = ForecasterConfig(window=10, conv_kernel=3, conv_channels=4, pool_window=2,
                           lstm_hidden=4, skip_hidden=3, skip_period=1, dropout=0.0,
                           fusion_hidden=4)
    params = LstnetParams.init(cfg, 3, np.random.default_rng(8))
    windows = np.random.default_rng(9).standard_normal((3, 10, 3))
    with ad.no_grad():
        reference = lstnet_forward(cfg, params, windows).data
        x = Tensor(windows)
        conv = ad.relu(ad.bias_add(ad.conv1d(x, params.conv_k), params.conv_b))
        pooled = ad.max_pool1d(conv, cfg.pool_window)
        normed = ad.layer_norm(pooled, params.ln_gain, params.ln_bias)
        h = Tensor(np.zeros((3, cfg.lstm_hidden)))
        c = Tensor(np.zeros((3, cfg.lstm_hidden)))
        for t in range(cfg.pooled_length):
            h, c = lstm_cell(ad.take_time(normed, t), h, c, params.lstm)
        hg = Tensor(np.zeros((3, cfg.skip_hidden)))
        for t in range(cfg.pooled_length):
            hg = gru_cell(ad.take_time(normed, t), hg, params.gru)
        merged = ad.concat([h, hg], axis=1)
        plain = params.out(ad.tanh(params.fusion(merged))).data
    transplant_gap = float(np.abs(reference - plain).max())

    report(3, gae_ok and transplant_gap < 1e-12,
           f"GAE(lambda=1, V=0) vs returns max gap {worst_gap:.1e} over 1000 episodes; "
           f"skip(p=1) vs plain GRU transplant gap {transplant_gap:.1e}")


# ----------------------------------------------------------------------
# criterion 4: differentiated clipping observability
# ----------------------------------------------------------------------

def test_criterion_4_differentiated_clipping():
    rng = np.random.default_rng(11)
    advantages = np.abs(rng.standard_normal(64)) + 0.05
    ratios = Tensor(np.full(64, 1.15))
    width_terms = clipped_surrogate(ratios, advantages, 0.2).data
    thickness_terms = clipped_surrogate(ratios, advantages, 0.1).data
    width_exact = np.array_equal(width_terms, 1.15 * advantages)
    thickness_exact = np.array_equal(thickness_terms, 1.1 * advantages)
    report(4, width_exact and thickness_exact,
           "ratios 1.15: width branch (eps 0.2) unclipped, thickness branch "
           "(eps 0.1) clipped at 1.1, asserted exactly")


# ----------------------------------------------------------------------
# full-scale fixtures (criteria 5-8)
# ----------------------------------------------------------------------

ACCEPT_FORECASTER_EPOCHS = 12


def acceptance_config() -> AppConfig:
    cfg = AppConfig()
    cfg.forecaster = replace(cfg.forecaster, epochs=ACCEPT_FORECASTER_EPOCHS)
    return cfg


@pytest.fixture(scope="session")
def accept_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("acceptance"))


@pytest.fixture(scope="session")
def full_models(accept_dir):
    cfg = acceptance_config()
    started = time.time()
    models = train_or_load_forecasters(cfg, accept_dir)
    print(f"[acceptance] surrogate forecasters ready in {time.time() - started:.0f}s")
    return models


@pytest.fixture(scope="session")
def grid_records(full_models, accept_dir):
    cfg = acceptance_config()
    records = run_grid(cfg, accept_dir, models=full_models, variants=["mpd-ppo"])
    return records


# ----------------------------------------------------------------------
# criterion 5: forecaster ordering on width
# ----------------------------------------------------------------------

@acceptance
def test_criterion_5_forecaster_ordering():
    started = time.time()
    plant = PlantParams()
    cfg = ForecasterConfig(epochs=ACCEPT_FORECASTER_EPOCHS)
    wins = 0
    lines = []
    for seed in range(5):
        dataset = generate_dataset(plant, 50000, "mixed", seed=100 + seed)
        _, lr_metrics = linreg_baseline(dataset, "width", window=cfg.window)
        model, _ = train_forecaster(cfg, dataset, "width", seed=seed)
        metrics = evaluate_forecaster(model, dataset, tolerance=1.0)
        won = metrics.mae < lr_metrics.mae
        wins += int(won)
        lines.append(f"seed {seed}: lstnet {metrics.mae:.4f} vs LR {lr_metrics.mae:.4f} "
                     f"{'WIN' if won else 'LOSS'}")
    elapsed = time.time() - started
    detail = "; ".join(lines) + f" -> {wins}/5 wins in {elapsed / 60:.1f} min"
    report(5, wins >= 4 and elapsed < 15 * 60, detail)


# ----------------------------------------------------------------------
# criterion 6: end-to-end convergence
# ----------------------------------------------------------------------

@acceptance
def test_criterion_6_convergence(grid_records):
    rows = aggregate_records(grid_records)
    lines = []
    ok = True
    for row in rows:
        scenario = tuple(row["scenario"])
        mean = row["mean_step"]
        if row["steps_per_episode"] == 100:
            good = mean <= 40.0
        else:
            good = mean < row["steps_per_episode"]  # no all-fail at 50 steps
        ok = ok and good and row["failed"] == 0
        lines.append(f"{scenario} @{row['steps_per_episode']}: mean {mean:.1f} "
                     f"{'ok' if good else 'FAIL'}")
    report(6, ok, "; ".join(lines))


# ----------------------------------------------------------------------
# criterion 7: ablation orderings
# ----------------------------------------------------------------------

@acceptance
def test_criterion_7_ablation_orderings(full_models, grid_records, accept_dir):
    cfg = acceptance_config()
    variants = ["mpd-ppo-uniform-clip", "ppo-single-net", "ppo-multibranch-uniform-clip",
                "reward-1", "reward-2", "reward-3", "reward-4"]
    records = run_grid(cfg, accept_dir, models=full_models, variants=variants,
                       scenarios=[[480.0, 3.0]], steps_options=[100])
    rows = aggregate_records(grid_records + records)
    emit_outputs(grid_records + records, accept_dir)

    def mean_of(variant):
        for row in rows:
            if (row["variant"] == variant and tuple(row["scenario"]) == (480.0, 3.0)
                    and row["steps_per_episode"] == 100):
                return row["mean_step"]
        return None

    mpd = mean_of("mpd-ppo")
    uniform = mean_of("mpd-ppo-uniform-clip")
    single = mean_of("ppo-single-net")
    r3, r4 = mean_of("reward-3"), mean_of("reward-4")
    r1, r2 = mean_of("reward-1"), mean_of("reward-2")
    gated = (mpd < uniform) and (mpd < single) and (r4 <= r3)
    detail = (f"mpd-ppo {mpd:.1f} < uniform-clip {uniform:.1f}: {mpd < uniform}; "
              f"mpd-ppo < single-net {single:.1f}: {mpd < single}; "
              f"R4 {r4:.1f} <= R3 {r3:.1f}: {r4 <= r3}; "
              f"reported (ungated): R1 {r1:.1f}, R2 {r2:.1f}")
    report(7, gated, detail)


# ----------------------------------------------------------------------
# criterion 8: byte-identical re-runs
# ----------------------------------------------------------------------

@acceptance
def test_criterion_8_determinism(full_models, tmp_path):
    cfg = acceptance_config()
    cfg.experiment = replace(cfg.experiment, episodes=12, eval_episodes=4)
    rec1 = run_cell(cfg, full_models, "mpd-ppo", (480.0, 3.0), 100, 0,
                    out_dir=str(tmp_path / "one"))
    rec2 = run_cell(cfg, full_models, "mpd-ppo", (480.0, 3.0), 100, 0,
                    out_dir=str(tmp_path / "two"))
    assert not rec1.failed and not rec2.failed, (rec1.error, rec2.error)
    sub = ("runs", "mpd-ppo", "w480_t3", "100step", "seed0", "curve.csv")
    c1 = open(os.path.join(str(tmp_path), "one", *sub), "rb").read()
    c2 = open(os.path.join(str(tmp_path), "two", *sub), "rb").read()
    report(8, c1 == c2 and len(c1) > 0,
           f"grid cell re-run reproduces curve.csv byte-identically ({len(c1)} bytes)")
