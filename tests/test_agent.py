"""Return/advantage machinery, the clipped update, and training-loop behavior."""

import math

import numpy as np
import pytest

from filmline import autodiff as ad
from filmline.autodiff import Tensor, backward
from filmline.agent import (
    MultiPathPpoAgent, UpdateConfig, clipped_surrogate, default_branches,
    discounted_returns, evaluate_greedy, gae_advantages, standardize, train_agent,
)
from filmline.environment import EpisodeConfig, FilmLineEnv, RewardConfig, run_episodes
from filmline.nets import gaussian_log_prob

from test_environment import LinearBackend


def stub_env(seed=0, max_steps=25):
    return FilmLineEnv(LinearBackend(), EpisodeConfig(max_steps=max_steps),
                       RewardConfig(), seed=seed)


def make_agent(seed=0, cfg=None, branches=None, shared=False):
    env_dim = EpisodeConfig().state_dim
    return MultiPathPpoAgent(env_dim, branches or default_branches(),
                             cfg or UpdateConfig(), seed=seed,
                             shared_advantage=shared)


def collect(env, agent):
    """One sampled episode as the arguments of ``agent.update``."""
    acted = []

    def policy(state):
        acted.append(agent.act(state))
        return acted[-1][0]

    (rec,) = run_episodes(env, policy, 1)
    actions, log_probs, values = (np.stack(column) for column in zip(*acted))
    states = rec["states"]
    return states[:-1], states[-1], actions, rec["rewards"], log_probs, values


# ----------------------------------------------------------------------
# discounted returns
# ----------------------------------------------------------------------

def test_discounted_returns_hand_case():
    out = discounted_returns([1.0, 1.0, 1.0], [0, 0, 1], 0.9)
    assert out == pytest.approx([2.71, 1.9, 1.0], abs=1e-12)


def test_discounted_returns_gamma_zero():
    rewards = [0.3, -0.5, 2.0]
    assert discounted_returns(rewards, [0, 0, 1], 0.0) == pytest.approx(rewards)


def test_discounted_returns_episode_boundary_reset():
    out = discounted_returns([1.0, 1.0], [1, 1], 0.9)
    assert out == pytest.approx([1.0, 1.0])


def test_discounted_returns_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        discounted_returns([], [], 0.9)
    with pytest.raises(ValueError):
        discounted_returns([1.0], [0, 1], 0.9)


# ----------------------------------------------------------------------
# GAE
# ----------------------------------------------------------------------

def test_gae_lambda_zero_is_one_step_td():
    rewards = np.array([1.0, 2.0, 0.5])
    values = np.array([0.3, -0.1, 0.2])
    dones = np.array([0.0, 0.0, 1.0])
    adv, _ = gae_advantages(rewards, values, dones, 0.9, 0.0)
    delta = rewards + 0.9 * np.append(values[1:], 0.0) * (1 - dones) - values
    assert adv == pytest.approx(delta, abs=1e-12)


def test_gae_lambda_one_zero_values_is_discounted_return():
    rng = np.random.default_rng(2)
    rewards = rng.standard_normal(30)
    dones = np.zeros(30)
    dones[[9, 21, 29]] = 1.0
    adv, targets = gae_advantages(rewards, np.zeros(30), dones, 0.97, 1.0)
    ref = discounted_returns(rewards, dones, 0.97)
    assert np.abs(adv - ref).max() < 1e-10
    assert np.abs(targets - ref).max() < 1e-10


def test_gae_hand_case():
    # 2-step episode, r=[1,1], V=[0.5,0.5], gamma=0.9, lambda=0.95
    adv, targets = gae_advantages([1.0, 1.0], [0.5, 0.5], [0.0, 1.0], 0.9, 0.95)
    assert adv == pytest.approx([1.3775, 0.5], abs=1e-12)
    assert targets == pytest.approx([1.8775, 1.0], abs=1e-12)


def test_gae_rejects_length_mismatch():
    with pytest.raises(ValueError):
        gae_advantages([1.0], [0.5, 0.5], [0, 1], 0.9, 0.95)


# ----------------------------------------------------------------------
# standardization
# ----------------------------------------------------------------------

def test_standardize_hand_case():
    x = np.array([1.0, 2.0, 3.0])
    expected = (x - 2.0) / (x.std() + 1e-8)  # population std sqrt(2/3)
    got = standardize(x)
    assert got == pytest.approx(expected, abs=1e-15)
    assert got[1] == 0.0
    assert got[2] == pytest.approx(1.2247, abs=1e-4)


def test_standardize_constant_input_is_zero():
    assert np.array_equal(standardize(np.full(5, 3.3)), np.zeros(5))


def test_standardize_affine_invariance():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(40)
    assert standardize(3.0 * a + 7.0) == pytest.approx(standardize(a), abs=1e-6)


# ----------------------------------------------------------------------
# clipped surrogate
# ----------------------------------------------------------------------

def test_surrogate_clips_high_ratio_positive_advantage():
    term = clipped_surrogate(Tensor([1.5]), np.array([2.0]), 0.2)
    assert term.data[0] == pytest.approx(2.4, abs=1e-12)  # min(3.0, 1.2*2)


def test_surrogate_identity_at_unit_ratio():
    for a in (-3.0, 0.0, 1.7):
        term = clipped_surrogate(Tensor([1.0]), np.array([a]), 0.2)
        assert term.data[0] == a


def test_surrogate_pessimistic_on_negative_advantage():
    term = clipped_surrogate(Tensor([0.5]), np.array([-1.0]), 0.2)
    assert term.data[0] == pytest.approx(-0.8, abs=1e-12)  # min(-0.5, -0.8)


def test_surrogate_bound_property():
    rng = np.random.default_rng(4)
    for _ in range(300):
        rho = float(rng.uniform(0.01, 3.0))
        a = float(rng.standard_normal())
        eps = float(rng.uniform(0.05, 0.5))
        term = clipped_surrogate(Tensor([rho]), np.array([a]), eps).data[0]
        assert term <= max(rho * a, (1 + eps) * a, (1 - eps) * a) + 1e-12
        if 1 - eps <= rho <= 1 + eps:
            assert term == pytest.approx(rho * a, abs=1e-12)


def test_differentiated_clipping_is_observable():
    # all ratios at 1.15: the tight branch clips, the loose one does not
    rng = np.random.default_rng(5)
    advantages = np.abs(rng.standard_normal(32)) + 0.1
    ratios = Tensor(np.full(32, 1.15))
    width_term = clipped_surrogate(ratios, advantages, 0.2).data
    thickness_term = clipped_surrogate(ratios, advantages, 0.1).data
    assert np.array_equal(width_term, 1.15 * advantages)
    assert np.array_equal(thickness_term, 1.1 * advantages)
    assert np.all(thickness_term < width_term)


# ----------------------------------------------------------------------
# update behavior
# ----------------------------------------------------------------------

def test_ratio_is_one_right_after_collection():
    env = stub_env(seed=20)
    agent = make_agent(seed=1)
    states, _, actions, _, old_lps, _ = collect(env, agent)
    outs = agent.policy.forward(states)
    for i, _ in enumerate(agent.branches):
        new_lp = gaussian_log_prob(outs[i][0], agent.policy.log_stds[i],
                                   actions[:, agent.branch_slice(i)])
        ratios = np.exp(new_lp.data - old_lps[:, i])
        assert np.abs(ratios - 1.0).max() < 1e-12


def test_update_with_zero_lr_is_a_no_op():
    env = stub_env(seed=21)
    agent = make_agent(seed=2, cfg=UpdateConfig(lr=0.0, epochs=1))
    episode = collect(env, agent)
    before = [p.data.copy() for p in agent.params]
    agent.update(*episode)
    for p, b in zip(agent.params, before):
        assert np.array_equal(p.data, b)


def test_update_clears_buffer_and_reports_stats():
    env = stub_env(seed=22)
    agent = make_agent(seed=3)
    episode = collect(env, agent)
    n = len(episode[0])
    held = set(vars(agent))
    stats = agent.update(*episode)
    assert set(vars(agent)) == held  # the agent keeps no rollout between updates
    assert stats["samples"] == n
    assert np.isfinite(stats["policy_loss"])
    assert len(stats["ratio_mean"]) == 2


def test_zero_weight_branch_head_gets_no_surrogate_gradient():
    env = stub_env(seed=23)
    branches = default_branches()
    branches[0].loss_weight = 0.0
    agent = make_agent(seed=4, branches=branches)
    states, _, actions, _, old_lps, _ = collect(env, agent)

    # surrogate-only loss, composed exactly as the update does
    outs = agent.policy.forward(states)
    loss = None
    for i, b in enumerate(agent.branches):
        new_lp = gaussian_log_prob(outs[i][0], agent.policy.log_stds[i],
                                   actions[:, agent.branch_slice(i)])
        ratio = ad.exp(ad.sub(new_lp, Tensor(old_lps[:, i])))
        term = -1.0 * ad.mean_(clipped_surrogate(ratio, np.ones(len(states)),
                                                 b.clip_epsilon)) * b.loss_weight
        loss = term if loss is None else loss + term
    backward(loss)
    width_head = agent.policy.head_tensors(0)
    thickness_head = agent.policy.head_tensors(1)
    assert all(t.grad is None or np.all(t.grad == 0.0) for t in width_head)
    assert any(t.grad is not None and np.any(t.grad != 0.0) for t in thickness_head)


def test_update_moves_parameters():
    env = stub_env(seed=24)
    agent = make_agent(seed=5, cfg=UpdateConfig(epochs=2))
    episode = collect(env, agent)
    before = [p.data.copy() for p in agent.params]
    agent.update(*episode)
    moved = sum(0 if np.array_equal(p.data, b) else 1
                for p, b in zip(agent.params, before))
    assert moved > len(agent.params) // 2


def test_shared_advantage_uses_single_value_head():
    agent = make_agent(seed=6, shared=True)
    assert agent.critic.n_heads == 1
    assert agent.head_index(0) == agent.head_index(1) == 0


def test_single_branch_agent_covers_full_action_space():
    from filmline.nets import BranchSpec
    single = [BranchSpec("all", action_dims=3, clip_epsilon=0.2, loss_weight=1.0,
                         init_sigma=0.5)]
    agent = make_agent(seed=7, branches=single)
    action, lps, vals = agent.act(np.zeros(EpisodeConfig().state_dim))
    assert action.shape == (3,)
    assert lps.shape == (1,) and vals.shape == (1,)


# ----------------------------------------------------------------------
# training loop
# ----------------------------------------------------------------------

def test_train_agent_produces_curve_and_is_deterministic():
    def run():
        env = stub_env(seed=30, max_steps=12)
        agent = make_agent(seed=8, cfg=UpdateConfig(epochs=2, minibatch=32))
        return train_agent(env, agent, episodes=3, steps_per_episode=12)

    c1, c2 = run(), run()
    assert len(c1) == 3
    for a, b in zip(c1, c2):
        assert a["total_reward"] == b["total_reward"]
        assert a["optimize_step"] == b["optimize_step"]
    for entry in c1:
        assert 1 <= entry["optimize_step"] <= 12


def test_evaluate_greedy_reports_sentinel_on_failure():
    env = stub_env(seed=31, max_steps=8)
    agent = make_agent(seed=9)  # untrained: near-zero mean actions
    records = evaluate_greedy(env, agent, episodes=2)
    assert all(r["optimize_step"] == 8 for r in records)


def test_train_agent_updates_on_each_collected_episode():
    env = stub_env(seed=32, max_steps=10)
    agent = make_agent(seed=10, cfg=UpdateConfig(epochs=1))
    seen = []
    update = agent.update

    def recording_update(states, final_state, *rest):
        seen.append((len(states), final_state.shape))
        return update(states, final_state, *rest)

    agent.update = recording_update
    curve = train_agent(env, agent, episodes=3, steps_per_episode=10)
    assert seen == [(c["optimize_step"], (env.episode.state_dim,)) for c in curve]


def test_train_agent_refuses_a_step_count_other_than_max_steps():
    env = stub_env(seed=33, max_steps=10)
    with pytest.raises(ValueError, match="max_steps"):
        train_agent(env, make_agent(seed=11), episodes=1, steps_per_episode=8)


def test_evaluate_greedy_runs_no_critic():
    env = stub_env(seed=34, max_steps=6)
    agent = make_agent(seed=12)

    def no_critic(states):
        raise AssertionError("greedy evaluation ran the critic")

    agent.critic.values = no_critic
    records = evaluate_greedy(env, agent, episodes=2)
    assert len(records) == 2
    mean = agent.mean_action(records[0]["states"][0])
    assert mean.shape == (FilmLineEnv.ACTION_DIM,)
