"""Policy/critic network behavior, Gaussian closed forms, checkpoints."""

import io
import math
import zipfile

import numpy as np
import pytest

from filmline import autodiff as ad
from filmline.autodiff import Tensor, backward
from filmline.nets import (
    BranchSpec, CriticNetwork, PolicyNetwork, config_fingerprint, entropy_value,
    gaussian_entropy, gaussian_log_prob, load_checkpoint, log_prob_value,
    sample_action, save_checkpoint, validate_branches,
)

LN_2PI = math.log(2.0 * math.pi)


def two_branches():
    return [
        BranchSpec("width", action_dims=1, clip_epsilon=0.2, init_sigma=0.5),
        BranchSpec("thickness", action_dims=2, clip_epsilon=0.1, init_sigma=0.3),
    ]


# ----------------------------------------------------------------------
# branch specs
# ----------------------------------------------------------------------

def test_branch_spec_validation():
    with pytest.raises(ValueError):
        BranchSpec("b", action_dims=0)
    with pytest.raises(ValueError):
        BranchSpec("b", action_dims=1, clip_epsilon=1.5)
    with pytest.raises(ValueError):
        BranchSpec("b", action_dims=1, init_sigma=0.0)
    with pytest.raises(ValueError):
        validate_branches([BranchSpec("b", action_dims=1, loss_weight=0.0)])


# ----------------------------------------------------------------------
# policy network
# ----------------------------------------------------------------------

def test_policy_zeroed_output_layer_means_equal_bias():
    net = PolicyNetwork(5, two_branches(), np.random.default_rng(0))
    for head in net.heads:
        head.layers[-1].w.data[...] = 0.0
        head.layers[-1].b.data[...] = 0.25
    rng = np.random.default_rng(1)
    for _ in range(3):
        outs = net.forward(rng.standard_normal(5))
        for mean, _ in outs:
            assert np.allclose(mean.data, 0.25)


def test_policy_std_is_exp_log_std():
    net = PolicyNetwork(5, two_branches(), np.random.default_rng(0))
    outs = net.forward(np.zeros(5))
    assert outs[0][1].data == pytest.approx([0.5])
    assert outs[1][1].data == pytest.approx([0.3, 0.3])
    net.log_stds[0].data[...] = 1.7
    outs = net.forward(np.zeros(5))
    assert outs[0][1].data == pytest.approx([math.exp(1.7)])


def test_policy_wrong_state_dim_errors():
    net = PolicyNetwork(5, two_branches(), np.random.default_rng(0))
    with pytest.raises(ValueError, match="state dim"):
        net.forward(np.zeros(4))


def test_trunk_perturbation_moves_every_branch():
    net = PolicyNetwork(4, two_branches(), np.random.default_rng(3))
    s = np.random.default_rng(4).standard_normal(4)
    before = [mean.data.copy() for mean, _ in net.forward(s)]
    net.trunk.layers[0].w.data[0, 0] += 0.05
    after = [mean.data.copy() for mean, _ in net.forward(s)]
    for b, a in zip(before, after):
        assert np.abs(a - b).max() > 0.0  # shared-trunk coupling


def test_action_ordering_follows_branch_declaration():
    net = PolicyNetwork(3, two_branches(), np.random.default_rng(0))
    for i, head in enumerate(net.heads):
        head.layers[-1].w.data[...] = 0.0
        head.layers[-1].b.data[...] = float(i + 1)
        net.log_stds[i].data[...] = -40.0  # effectively deterministic
    action = sample_action(net.means(np.zeros(3))[0], net.stds(), np.random.default_rng(0))
    assert action == pytest.approx([1.0, 2.0, 2.0], abs=1e-12)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

def test_sample_action_zero_sigma_limit_is_mean():
    net = PolicyNetwork(3, two_branches(), np.random.default_rng(0))
    for log_std in net.log_stds:
        log_std.data[...] = -40.0
    outs = net.forward(np.ones(3))
    means = np.concatenate([m.data[0] for m, _ in outs])
    action = sample_action(net.means(np.ones(3))[0], net.stds(), np.random.default_rng(5))
    assert action == pytest.approx(means, abs=1e-12)


def test_sample_action_seeded_reproducibility():
    net = PolicyNetwork(3, two_branches(), np.random.default_rng(0))
    mean = net.means(np.ones(3))[0]
    a1 = [sample_action(mean, net.stds(), np.random.default_rng(7)) for _ in range(3)]
    a2 = [sample_action(mean, net.stds(), np.random.default_rng(7)) for _ in range(3)]
    for x, y in zip(a1, a2):
        assert np.array_equal(x, y)


def test_sample_action_monte_carlo_moments():
    # 1e5 standard-normal draws: mean within +-0.02, std within [0.98, 1.02]
    rng = np.random.default_rng(11)
    draws = np.array([sample_action(np.zeros(1), [np.ones(1)], rng)[0]
                      for _ in range(100_000)])
    assert abs(draws.mean()) < 0.02
    assert 0.98 < draws.std() < 1.02


# ----------------------------------------------------------------------
# Gaussian closed forms
# ----------------------------------------------------------------------

def test_log_prob_standard_normal_values():
    assert log_prob_value([0.0], [1.0], [0.0]) == pytest.approx(-0.5 * LN_2PI, abs=1e-12)
    assert log_prob_value([0.0], [1.0], [0.0]) == pytest.approx(-0.9189385332046727,
                                                                abs=1e-9)
    # closed form at one sigma: -0.5 - 0.5*ln(2*pi)
    assert log_prob_value([0.0], [1.0], [1.0]) == pytest.approx(-1.4189385332046727,
                                                                abs=1e-9)


def test_log_prob_sigma_scaling_identity():
    base = log_prob_value([0.0], [1.0], [0.0])
    for c in (2.0, 5.0, 0.3):
        assert log_prob_value([0.0], [c], [0.0]) == pytest.approx(base - math.log(c),
                                                                  abs=1e-12)


def test_log_prob_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        log_prob_value([0.0], [0.0], [0.0])
    with pytest.raises(ValueError):
        log_prob_value([0.0], [-1.0], [0.0])
    with pytest.raises(ValueError):
        entropy_value([0.0])


def test_entropy_values():
    assert entropy_value([1.0]) == pytest.approx(1.4189385332046727, abs=1e-9)
    assert entropy_value([2.0]) - entropy_value([1.0]) == pytest.approx(math.log(2.0),
                                                                        abs=1e-12)
    expected = 2.0 * (0.5 * (LN_2PI + 1.0) + math.log(0.5))
    assert entropy_value([0.5, 0.5]) == pytest.approx(expected, abs=1e-9)


def test_graph_log_prob_matches_closed_form():
    rng = np.random.default_rng(13)
    mean = Tensor(rng.standard_normal((4, 2)))
    log_std = Tensor(np.array([0.1, -0.4]))
    actions = rng.standard_normal((4, 2))
    lp = gaussian_log_prob(mean, log_std, actions)
    for i in range(4):
        expected = log_prob_value(mean.data[i], np.exp(log_std.data), actions[i])
        assert lp.data[i] == pytest.approx(expected, abs=1e-12)


def test_graph_entropy_matches_closed_form():
    log_std = Tensor(np.array([0.3, -0.2, 0.0]))
    assert gaussian_entropy(log_std).item() == pytest.approx(
        entropy_value(np.exp(log_std.data)), abs=1e-12)


def test_closed_forms_match_numerical_integration():
    # 1-D grid quadrature of the density and of -p*ln(p)
    mu, sigma = 0.37, 0.81
    xs = np.linspace(mu - 12 * sigma, mu + 12 * sigma, 400_001)
    pdf = np.exp([log_prob_value([mu], [sigma], [x]) for x in xs[:: 400]])
    # use vectorized closed form for the fine grid
    z = (xs - mu) / sigma
    logp = -0.5 * z * z - math.log(sigma) - 0.5 * LN_2PI
    p = np.exp(logp)
    mass = np.trapezoid(p, xs)
    entropy = np.trapezoid(-p * logp, xs)
    assert mass == pytest.approx(1.0, abs=1e-6)
    assert entropy == pytest.approx(entropy_value([sigma]), abs=1e-6)
    assert pdf.shape  # the sampled closed-form values were finite


# ----------------------------------------------------------------------
# critic network
# ----------------------------------------------------------------------

def test_critic_zeroed_head_outputs_bias():
    net = CriticNetwork(4, 2, np.random.default_rng(0))
    net.heads[0].layers[0].w.data[...] = 0.0
    net.heads[0].layers[0].b.data[...] = -0.6
    vals = net.values(np.random.default_rng(1).standard_normal((5, 4)))
    assert np.allclose(vals[:, 0], -0.6)


def test_critic_heads_disagree_on_random_init():
    net = CriticNetwork(4, 2, np.random.default_rng(2))
    vals = net.values(np.random.default_rng(3).standard_normal((8, 4)))
    assert np.abs(vals[:, 0] - vals[:, 1]).max() > 1e-6


def test_critic_head_gradients_are_disjoint():
    net = CriticNetwork(4, 2, np.random.default_rng(4))
    outs = net.forward(np.random.default_rng(5).standard_normal((6, 4)))
    backward(ad.mean_(outs[0]))
    # packed parameters always hold a gradient array: untouched means all zero
    first, second = (head.layers[0] for head in net.heads)
    assert np.any(first.w.grad)
    assert not np.any(second.w.grad) and not np.any(second.b.grad)


def test_critic_wrong_dim_errors():
    net = CriticNetwork(4, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="state dim"):
        net.forward(np.zeros((3, 5)))


def test_branch_head_gradients_are_disjoint_under_surrogate():
    # gradients of one branch's surrogate touch its own head and the trunk only
    net = PolicyNetwork(4, two_branches(), np.random.default_rng(6))
    states = np.random.default_rng(7).standard_normal((8, 4))
    outs = net.forward(states)
    mean0, _ = outs[0]
    actions = np.random.default_rng(8).standard_normal((8, 1))
    lp = gaussian_log_prob(mean0, net.log_stds[0], actions)
    backward(ad.mean_(lp))
    named = net.named_tensors()

    def group(prefix):
        found = [t for k, t in named.items() if k.startswith(prefix)]
        assert found, prefix
        return found

    # packed parameters always hold a gradient array: untouched means all zero
    assert any(np.any(t.grad) for t in group("head.width."))
    assert not any(np.any(t.grad) for t in group("head.thickness."))
    assert not np.any(net.log_stds[1].grad)
    assert any(np.any(t.grad) for t in group("trunk."))


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    net = PolicyNetwork(4, two_branches(), np.random.default_rng(9))
    named = net.named_tensors()
    fp = config_fingerprint({"branches": 2, "state_dim": 4})
    path = tmp_path / "policy.npz"
    save_checkpoint(path, named, {"fingerprint": fp, "note": "kept"}, extra=np.arange(3.0))
    originals = {k: v.data.copy() for k, v in named.items()}
    for v in named.values():
        v.data += 1.0
    ckpt = load_checkpoint(path)
    ckpt.restore(named, fp)
    for k, v in named.items():
        assert np.array_equal(v.data, originals[k])
    assert ckpt.meta == {"fingerprint": fp, "note": "kept"}
    assert np.array_equal(ckpt.arrays["extra"], np.arange(3.0))


def test_parameter_names_and_order_are_the_checkpoint_layout():
    # checkpoint keys, each network's leaf layout and clip_grad_norm's summation order follow these
    rng = np.random.default_rng(0)
    policy = PolicyNetwork(4, two_branches(), rng, trunk_sizes=[6, 6])
    head = [f"{i}.{p}" for i in range(2) for p in "wb"]
    assert list(policy.named_tensors()) == (
        ["trunk.0.w", "trunk.0.b", "trunk.1.w", "trunk.1.b"]
        + [f"head.width.{k}" for k in head] + ["log_std.width"]
        + [f"head.thickness.{k}" for k in head] + ["log_std.thickness"])
    critic = CriticNetwork(4, 2, rng, trunk_sizes=[6])
    assert list(critic.named_tensors()) == [
        "vtrunk.0.w", "vtrunk.0.b", "vhead.0.w", "vhead.0.b", "vhead.1.w", "vhead.1.b"]


def test_checkpoint_fingerprint_mismatch(tmp_path):
    net = PolicyNetwork(4, two_branches(), np.random.default_rng(9))
    path = tmp_path / "p.npz"
    save_checkpoint(path, net.named_tensors(), {"fingerprint": "fp-one"})
    with pytest.raises(ValueError, match="fingerprint"):
        load_checkpoint(path).restore(net.named_tensors(), "fp-two")


def test_checkpoint_without_meta_is_refused_with_its_path(tmp_path):
    # the layout agent checkpoints had before: params plus a "__fingerprint__" entry
    path = tmp_path / "old.npz"
    with zipfile.ZipFile(path, "w") as zf:
        buf = io.BytesIO()
        np.save(buf, np.frombuffer(b"fp", dtype=np.uint8))
        zf.writestr("__fingerprint__.npy", buf.getvalue())
    with pytest.raises(ValueError, match="old.npz.*__fingerprint__"):
        load_checkpoint(path)


def test_checkpoint_shape_mismatch(tmp_path):
    net = PolicyNetwork(4, two_branches(), np.random.default_rng(9))
    fp = "same"
    path = tmp_path / "p.npz"
    save_checkpoint(path, net.named_tensors(), {"fingerprint": fp})
    other = PolicyNetwork(5, two_branches(), np.random.default_rng(9))
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(path).restore(other.named_tensors(), fp)


def test_checkpoint_missing_entry_names_file_and_entry(tmp_path):
    net = PolicyNetwork(4, two_branches(), np.random.default_rng(9))
    named = net.named_tensors()
    missing = next(iter(named))
    path = tmp_path / "partial.npz"
    save_checkpoint(path, {k: v for k, v in named.items() if k != missing},
                    {"fingerprint": "same"})
    with pytest.raises(ValueError, match=f"partial.npz.*param:{missing}"):
        load_checkpoint(path).restore(named, "same")


# ----------------------------------------------------------------------
# fused networks against the per-layer graph
# ----------------------------------------------------------------------

def _dense(params, name, x):
    """``Dense.__call__`` on the tensors stored under ``name``."""
    return ad.bias_add(ad.matmul(x, params[f"{name}.w"]), params[f"{name}.b"])


def _per_layer(params, prefix, n_layers, x, final_tanh):
    """One Mlp call as the graph of Dense layers and tanh."""
    for i in range(n_layers):
        x = _dense(params, f"{prefix}.{i}", x)
        if i < n_layers - 1 or final_tanh:
            x = ad.tanh(x)
    return x


def _test_loss(means, log_stds, values, actions, targets):
    """Gaussian log-densities of every branch plus a squared error per value head."""
    loss, col = None, 0
    for mean, log_std in zip(means, log_stds):
        d = log_std.shape[0]
        term = ad.mean_(gaussian_log_prob(mean, log_std, actions[:, col:col + d]))
        col += d
        loss = term if loss is None else loss + term
    for h, v in enumerate(values):
        loss = loss + ad.mean_(ad.square(ad.sub(v, Tensor(targets[:, h:h + 1]))))
    return loss


@pytest.mark.parametrize("batch", [1, 50, 64])
@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("hidden", [[32], []])
def test_fused_networks_match_per_layer_graph(batch, shared, hidden):
    # one node per network call gives the outputs and every named gradient of
    # the per-layer graph, bit for bit, on the agent's packed parameters
    from filmline.agent import MultiPathPpoAgent
    branches = [BranchSpec("width", 1, init_sigma=0.5, hidden_sizes=list(hidden)),
                BranchSpec("thickness", 2, init_sigma=0.3, hidden_sizes=list(hidden))]
    agent = MultiPathPpoAgent(13, branches, seed=batch, shared_advantage=shared)
    rng = np.random.default_rng(batch)
    states = rng.standard_normal((batch, 13))
    actions = rng.standard_normal((batch, 3))
    targets = rng.standard_normal((batch, agent.critic.n_heads))
    named = agent.named_tensors()
    # 22 at the default layout; a shared critic drops a head, a one-layer head two tensors
    assert len(named) == 22 - 2 * shared - 4 * (not hidden)
    # the per-layer copies keep each array's memory order, as packing does
    ref = {k: Tensor(np.copy(t.data, order="K"), requires_grad=True) for k, t in named.items()}
    assert ref["trunk.0.w"].data.flags.f_contiguous == named["trunk.0.w"].data.flags.f_contiguous

    outs = agent.policy.forward(states)
    values = agent.critic.forward(states)
    backward(_test_loss([m for m, _ in outs], agent.policy.log_stds, values, actions, targets))

    x = Tensor(states)
    feat = _per_layer(ref, "trunk", 2, x, True)
    ref_means = [_per_layer(ref, f"head.{b.name}", len(hidden) + 1, feat, False)
                 for b in branches]
    ref_log_stds = [ref[f"log_std.{b.name}"] for b in branches]
    vfeat = _per_layer(ref, "vtrunk", 2, x, True)
    ref_values = [_dense(ref, f"vhead.{h}", vfeat) for h in range(agent.critic.n_heads)]
    backward(_test_loss(ref_means, ref_log_stds, ref_values, actions, targets))

    for (mean, _), ref_mean in zip(outs, ref_means):
        assert np.array_equal(mean.data, ref_mean.data)
    for v, ref_v in zip(values, ref_values):
        assert np.array_equal(v.data, ref_v.data)
    for k, t in named.items():
        assert np.array_equal(t.grad, ref[k].grad), k
        assert np.any(t.grad), k
