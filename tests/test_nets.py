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
    action = sample_action(net.forward(np.zeros(3)), np.random.default_rng(0))
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
    action = sample_action(outs, np.random.default_rng(5))
    assert action == pytest.approx(means, abs=1e-12)


def test_sample_action_seeded_reproducibility():
    net = PolicyNetwork(3, two_branches(), np.random.default_rng(0))
    outs = net.forward(np.ones(3))
    a1 = [sample_action(outs, np.random.default_rng(7)) for _ in range(3)]
    a2 = [sample_action(outs, np.random.default_rng(7)) for _ in range(3)]
    for x, y in zip(a1, a2):
        assert np.array_equal(x, y)


def test_sample_action_monte_carlo_moments():
    # 1e5 standard-normal draws: mean within +-0.02, std within [0.98, 1.02]
    outs = [(Tensor(np.zeros((1, 1))), Tensor(np.ones(1)))]
    rng = np.random.default_rng(11)
    draws = np.array([sample_action(outs, rng)[0] for _ in range(100_000)])
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
    net.heads[0].w.data[...] = 0.0
    net.heads[0].b.data[...] = -0.6
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
    assert net.heads[0].w.grad is not None
    assert net.heads[1].w.grad is None and net.heads[1].b.grad is None


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
    assert any(t.grad is not None for t in net.heads[0].tensors())
    assert all(t.grad is None for t in net.heads[1].tensors())
    assert net.log_stds[1].grad is None
    assert any(t.grad is not None for t in net.trunk.tensors())


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
