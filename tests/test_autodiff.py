"""Unit tests for the reverse-mode differentiation substrate."""

import math

import numpy as np
import pytest

from filmline import autodiff as ad
from filmline.autodiff import Tape, Tensor, backward
from filmline.cells import GruParams, LstmParams, gru_cell, lstm_cell
from filmline.optim import Adam, clip_grad_norm

from conftest import finite_diff_check


# ----------------------------------------------------------------------
# pointwise ops
# ----------------------------------------------------------------------

def test_tanh_at_origin():
    assert ad.tanh(Tensor([0.0])).data[0] == 0.0


def test_clip_saturation():
    assert ad.clip(Tensor([1.5]), 0.8, 1.2).data[0] == 1.2


def test_exp_scalar_value():
    # oracle: scalar calculator evaluation of e^-1
    assert ad.exp(Tensor([-1.0])).data[0] == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert ad.exp(Tensor([-1.0])).data[0] == pytest.approx(0.36787944117144233, abs=1e-9)


def test_clip_is_pointwise_median():
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.uniform(-10, 10)
        lo, hi = sorted(rng.uniform(-10, 10, size=2))
        got = ad.clip(Tensor([x]), lo, hi).data[0]
        assert got == np.median([lo, x, hi])


def test_binary_shape_mismatch_names_shapes():
    with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
        ad.add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))


def test_div_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        ad.div(Tensor([1.0]), Tensor([0.0]))


def test_scalar_broadcasting():
    out = ad.mul(Tensor(np.array([1.0, 2.0, 3.0])), Tensor(np.array(2.0)))
    assert np.array_equal(out.data, [2.0, 4.0, 6.0])


def test_min_max_elementwise():
    x, y = Tensor([1.0, 5.0]), Tensor([3.0, 2.0])
    assert np.array_equal(ad.minimum(x, y).data, [1.0, 2.0])
    assert np.array_equal(ad.maximum(x, y).data, [3.0, 5.0])


# ----------------------------------------------------------------------
# matmul
# ----------------------------------------------------------------------

def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(Tensor(np.eye(2)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_matmul_hand_case():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data[0, 0] == pytest.approx(11.0)  # 1*3 + 2*4


def test_matmul_zero_annihilates():
    rng = np.random.default_rng(0)
    out = ad.matmul(Tensor(np.zeros((2, 3))), Tensor(rng.standard_normal((3, 5))))
    assert np.array_equal(out.data, np.zeros((2, 5)))


def test_matmul_inner_dim_error():
    with pytest.raises(ValueError, match="inner dimensions"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


# ----------------------------------------------------------------------
# conv / pool / layer norm
# ----------------------------------------------------------------------

def test_lane_primitives_need_no_grad_and_equal_their_per_lane_calls():
    rng = np.random.default_rng(0)
    x, k, w = (rng.standard_normal(shape) for shape in ((3, 1, 6, 4), (2, 4, 5), (4, 3)))
    ops = {"conv1d": lambda v: ad.conv1d(v, Tensor(k)),
           "max_pool1d": lambda v: ad.max_pool1d(v, 2),
           "matmul": lambda v: ad.matmul(v, Tensor(w)),
           "concat": lambda v: ad.concat([v, v], axis=1)}
    for name, op in ops.items():
        with pytest.raises(ValueError, match=f"{name}: lane input"):
            op(Tensor(x))
        with ad.no_grad():
            lanes = op(Tensor(x)).data
            assert np.array_equal(lanes, np.stack([op(Tensor(v)).data for v in x]))


def test_conv1d_hand_case():
    x = Tensor(np.ones((1, 4, 1)))
    k = Tensor(np.ones((2, 1, 1)))
    assert np.array_equal(ad.conv1d(x, k).data.ravel(), [2.0, 2.0, 2.0])


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 6, 1))
    out = ad.conv1d(Tensor(x), Tensor(np.ones((1, 1, 1))))
    assert np.allclose(out.data, x)


def test_conv1d_zero_kernel():
    rng = np.random.default_rng(2)
    out = ad.conv1d(Tensor(rng.standard_normal((1, 5, 2))), Tensor(np.zeros((2, 2, 3))))
    assert np.array_equal(out.data, np.zeros((1, 4, 3)))


def test_conv1d_kernel_longer_than_input_errors():
    with pytest.raises(ValueError, match="exceeds input length"):
        ad.conv1d(Tensor(np.zeros((1, 3, 1))), Tensor(np.zeros((4, 1, 1))))


def test_max_pool_hand_case():
    x = Tensor(np.array([1.0, 3.0, 2.0, 5.0])[None, :, None])
    assert np.array_equal(ad.max_pool1d(x, 2).data.ravel(), [3.0, 5.0])


def test_max_pool_window_one_is_identity():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 5, 2))
    assert np.array_equal(ad.max_pool1d(Tensor(x), 1).data, x)


def test_max_pool_constant_input():
    out = ad.max_pool1d(Tensor(np.full((1, 6, 2), 4.2)), 3)
    assert np.all(out.data == 4.2)


def test_max_pool_empty_output_errors():
    with pytest.raises(ValueError, match="longer than input"):
        ad.max_pool1d(Tensor(np.zeros((1, 2, 1))), 3)


def test_max_pool_tie_routes_to_first():
    x = Tensor(np.array([2.0, 2.0])[None, :, None], requires_grad=True)
    backward(ad.sum_(ad.max_pool1d(x, 2)))
    assert np.array_equal(x.grad.ravel(), [1.0, 0.0])


def test_layer_norm_constant_vector_maps_to_bias():
    gain = Tensor(np.ones(4))
    bias = Tensor(np.full(4, 0.7))
    out = ad.layer_norm(Tensor(np.full((4,), 3.3)), gain, bias)
    assert np.allclose(out.data, 0.7)


def test_layer_norm_two_point_case():
    out = ad.layer_norm(Tensor(np.array([1.0, -1.0])), Tensor(np.ones(2)),
                        Tensor(np.zeros(2)), eps=1e-12)
    assert out.data == pytest.approx([1.0, -1.0], abs=1e-6)


def test_layer_norm_output_mean_is_bias():
    rng = np.random.default_rng(4)
    bias = rng.standard_normal(6)
    out = ad.layer_norm(Tensor(rng.standard_normal((5, 6))), Tensor(np.ones(6)),
                        Tensor(bias))
    # per-row mean of gain*xhat is zero, so the output mean is the bias mean
    assert np.allclose(out.data.mean(axis=-1), bias.mean(), atol=1e-9)


# ----------------------------------------------------------------------
# backward mechanics
# ----------------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
    backward(ad.sum_(x))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_square_power_rule():
    x = Tensor([3.0], requires_grad=True)
    backward(ad.sum_(ad.square(x)))
    assert x.grad == pytest.approx([6.0])


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(ad.add(x, x))


def test_backward_accumulates_across_calls():
    x = Tensor([2.0], requires_grad=True)
    backward(ad.sum_(ad.square(x)))
    backward(ad.sum_(ad.square(x)))
    assert x.grad == pytest.approx([8.0])


def test_tape_topological_order_and_single_visit():
    x = Tensor([1.0], requires_grad=True)
    y = ad.square(x)
    z = ad.add(y, y)
    loss = ad.sum_(z)
    tape = Tape(loss)
    seen = []
    for t in tape.order:
        if t.node is not None:
            for parent in t.node.inputs:
                assert parent in seen or parent.node is None
        seen.append(t)
    assert len(set(map(id, tape.order))) == len(tape.order)


def test_replay_determinism():
    def run():
        rng = np.random.default_rng(42)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 4)))
        loss = ad.mean_(ad.square(ad.tanh(ad.matmul(x, w))))
        backward(loss)
        return loss.data.copy(), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2) and np.array_equal(g1, g2)


def test_no_grad_suppresses_recording():
    x = Tensor([1.0], requires_grad=True)
    with ad.no_grad():
        y = ad.square(x)
    assert y.node is None and not y.requires_grad


def test_dropout_eval_mode_is_identity():
    x = Tensor(np.random.default_rng(0).standard_normal(50))
    out = ad.dropout(x, 0.5, np.random.default_rng(1), training=False)
    assert out is x


def test_dropout_train_mode_is_inverted_and_seeded():
    x = Tensor(np.ones(2000))
    rng = np.random.default_rng(9)
    out = ad.dropout(x, 0.25, rng, training=True)
    kept = out.data[out.data > 0]
    assert np.allclose(kept, 1.0 / 0.75)
    assert abs(out.data.mean() - 1.0) < 0.05
    again = ad.dropout(x, 0.25, np.random.default_rng(9), training=True)
    assert np.array_equal(out.data, again.data)


# ----------------------------------------------------------------------
# gradients vs finite differences
# ----------------------------------------------------------------------

def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    w1 = Tensor(rng.standard_normal((3, 5)) * 0.5, requires_grad=True)
    b1 = Tensor(rng.standard_normal(5) * 0.1, requires_grad=True)
    w2 = Tensor(rng.standard_normal((5, 2)) * 0.5, requires_grad=True)
    x = Tensor(rng.standard_normal((4, 3)))

    def loss():
        h = ad.tanh(ad.bias_add(ad.matmul(x, w1), b1))
        return ad.mean_(ad.square(ad.matmul(h, w2)))

    assert finite_diff_check(loss, [w1, b1, w2]) < 1e-4


def test_structural_ops_gradients():
    rng = np.random.default_rng(23)
    x = Tensor(rng.standard_normal((2, 6, 3)), requires_grad=True)
    v = Tensor(rng.standard_normal(3), requires_grad=True)

    def loss():
        a = ad.take_time(x, 2)
        b = ad.take_time(x, 4)
        c = ad.concat([a, b], axis=0)
        d = ad.scale_cols(c, v)
        e = ad.concat([ad.slice_(d, 0, 2, axis=0), ad.slice_(d, 2, 4, axis=0)], axis=1)
        return ad.mean_(ad.square(ad.slice_(e, 1, 5, axis=1)))

    assert finite_diff_check(loss, [x, v]) < 1e-4


def test_lstm_cell_gradients():
    rng = np.random.default_rng(31)
    p = LstmParams.init(3, 4, rng)
    x = Tensor(rng.standard_normal((2, 3)))
    h0 = Tensor(rng.standard_normal((2, 4)))
    c0 = Tensor(rng.standard_normal((2, 4)))

    def loss():
        h, c = lstm_cell(x, h0, c0, p)
        return ad.mean_(ad.square(h)) + ad.mean_(ad.square(c))

    assert finite_diff_check(loss, p.tensors()) < 1e-4


def test_gru_cell_gradients():
    rng = np.random.default_rng(37)
    p = GruParams.init(3, 4, rng)
    x = Tensor(rng.standard_normal((2, 3)))
    h0 = Tensor(rng.standard_normal((2, 4)))

    def loss():
        return ad.mean_(ad.square(gru_cell(x, h0, p)))

    assert finite_diff_check(loss, p.tensors()) < 1e-4


# ----------------------------------------------------------------------
# recurrent cell values
# ----------------------------------------------------------------------

def test_lstm_zero_params_gives_zero_hidden():
    rng = np.random.default_rng(0)
    p = LstmParams.init(3, 4, rng)
    for t in p.tensors():
        t.data[...] = 0.0
    h, c = lstm_cell(Tensor(rng.standard_normal((1, 3))),
                     Tensor(rng.standard_normal((1, 4))), Tensor(np.zeros((1, 4))), p)
    assert np.allclose(h.data, 0.0)  # tanh(0) * sigmoid(0) = 0


def test_lstm_saturated_forget_gate_propagates_cell():
    rng = np.random.default_rng(41)
    p = LstmParams.init(3, 4, rng)
    p.b.data[4:8] = 50.0  # forget gate (column block 1 of i, f, g, o) pinned at 1
    x = rng.standard_normal((1, 3))
    h0 = rng.standard_normal((1, 4))
    c0 = rng.standard_normal((1, 4))
    _, c1 = lstm_cell(Tensor(x), Tensor(h0), Tensor(c0), p)

    # independent numpy evaluation of the gate equations
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    i_np = sig(x @ p.wx.data[:, 0:4] + h0 @ p.wh.data[:, 0:4] + p.b.data[0:4])
    g_np = np.tanh(x @ p.wx.data[:, 8:12] + h0 @ p.wh.data[:, 8:12] + p.b.data[8:12])
    assert np.allclose(c1.data, c0 + i_np * g_np, atol=1e-9)


def test_gru_saturated_update_gate_keeps_hidden():
    rng = np.random.default_rng(43)
    p = GruParams.init(3, 4, rng)
    p.b.data[0:4] = 50.0  # update gate (column block 0 of z, r) pinned at 1
    h0 = rng.standard_normal((1, 4))
    h1 = gru_cell(Tensor(rng.standard_normal((1, 3))), Tensor(h0), p)
    assert np.allclose(h1.data, h0, atol=1e-9)


def test_stacked_init_matches_per_gate_draws():
    in_dim, hid = 3, 4
    s = 1.0 / np.sqrt(max(in_dim, hid))
    for cls, gates in ((LstmParams, "ifgo"), (GruParams, "zrn")):
        init_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
        p = cls.init(in_dim, hid, init_rng)
        for k in range(len(gates)):  # input then recurrent weights, gate by gate
            cols = slice(k * hid, (k + 1) * hid)
            assert np.array_equal(p.wx.data[:, cols], rng.standard_normal((in_dim, hid)) * s)
            wh = p.w_hn.data if gates[k] == "n" else p.wh.data[:, cols]
            assert np.array_equal(wh, rng.standard_normal((hid, hid)) * s)
        assert p.wx.shape == (in_dim, len(gates) * hid)
        assert not any(np.any(t.data) for t in p.tensors() if t.ndim == 1)  # zero biases
        assert init_rng.random() == rng.random()  # the stream is left where it was


def _sig(v):
    return 1.0 / (1.0 + np.exp(-v))


def test_lstm_cell_matches_numpy_gates_at_batch_2():
    rng = np.random.default_rng(47)
    x, h0, c0 = (rng.standard_normal((2, n)) for n in (3, 4, 4))
    p = LstmParams.init(3, 4, rng)
    p.b.data[...] = rng.standard_normal(16)

    def pre(k):  # column block k of i, f, g, o
        cols = slice(4 * k, 4 * (k + 1))
        return x @ p.wx.data[:, cols] + h0 @ p.wh.data[:, cols] + p.b.data[cols]

    c_np = _sig(pre(1)) * c0 + _sig(pre(0)) * np.tanh(pre(2))
    h, c = lstm_cell(Tensor(x), Tensor(h0), Tensor(c0), p)
    assert np.allclose(c.data, c_np, atol=1e-12)
    assert np.allclose(h.data, _sig(pre(3)) * np.tanh(c_np), atol=1e-12)


def test_gru_cell_matches_numpy_gates_at_batch_2():
    rng = np.random.default_rng(53)
    x, h0 = rng.standard_normal((2, 3)), rng.standard_normal((2, 4))
    p = GruParams.init(3, 4, rng)
    p.b.data[...] = rng.standard_normal(8)
    p.b_n.data[...] = rng.standard_normal(4)
    z = _sig(x @ p.wx.data[:, 0:4] + h0 @ p.wh.data[:, 0:4] + p.b.data[0:4])
    r = _sig(x @ p.wx.data[:, 4:8] + h0 @ p.wh.data[:, 4:8] + p.b.data[4:8])
    n = np.tanh(x @ p.wx.data[:, 8:12] + (r * h0) @ p.w_hn.data + p.b_n.data)
    h1 = gru_cell(Tensor(x), Tensor(h0), p)
    assert np.allclose(h1.data, z * h0 + (1.0 - z) * n, atol=1e-12)


def test_gru_zero_params_zero_state():
    rng = np.random.default_rng(0)
    p = GruParams.init(3, 4, rng)
    for t in p.tensors():
        t.data[...] = 0.0
    h1 = gru_cell(Tensor(rng.standard_normal((1, 3))), Tensor(np.zeros((1, 4))), p)
    assert np.allclose(h1.data, 0.0)


# ----------------------------------------------------------------------
# Adam
# ----------------------------------------------------------------------

def test_adam_zero_gradient_leaves_params_unchanged():
    # a zero gradient, or none at all (no backward reached the tensor), moves nothing
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    q = Tensor(np.array([3.0]), requires_grad=True)
    opt = Adam([p, q], lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.0, -2.0])
    assert np.array_equal(q.data, [3.0]) and np.array_equal(q.grad, [0.0])


def test_adam_first_step_is_signed_lr():
    # bias-corrected first step: lr * g / (|g| + eps) ~= lr * sign(g)
    p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    opt = Adam([p], lr=0.01)
    p.grad = np.array([0.3, -4.0])
    opt.step()
    assert p.data == pytest.approx([1.0 - 0.01, 1.0 + 0.01], abs=1e-6)


def test_adam_repeated_identical_steps_shrink():
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    first = abs(p.data[0])
    p.grad[...] = 1.0
    opt.step()
    second = abs(p.data[0]) - first
    assert second < first  # second-moment growth damps the update


def test_adam_zeroes_grads_after_step():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    p.grad = grad = np.array([1.0])
    opt.step()
    assert np.array_equal(p.grad, [0.0])
    assert p.grad is grad  # zeroed in place
    # a packed leaf's tensors view its gradient, so they read zero too
    parts = [Tensor(np.array([1.0, 2.0]), requires_grad=True), Tensor(np.array([3.0]))]
    leaf = ad.pack(parts)
    opt = Adam([leaf], lr=0.1)
    for part in parts:
        part.grad[...] = 1.0
    opt.step()
    assert np.array_equal(leaf.grad, [0.0, 0.0, 0.0])
    assert all(part.grad.base is leaf.grad and not np.any(part.grad) for part in parts)


def test_fused_adam_matches_per_tensor_reference():
    # Adam gives each tensor the bits of the reference update, stepped on its
    # own or as a view of a packed leaf (as the agent steps each network), on
    # C- and Fortran-ordered parameters alike, and keeps each one's memory order
    rng = np.random.default_rng(12)
    arrays = [rng.standard_normal((3, 5)), np.asfortranarray(rng.standard_normal((4, 6))),
              rng.standard_normal(7)]
    params = [Tensor(a.copy(order="K"), requires_grad=True) for a in arrays]
    packed = [Tensor(a.copy(order="K"), requires_grad=True) for a in arrays]
    leaf = ad.pack(packed)
    ref = [a.copy(order="K") for a in arrays]
    moments = [(np.zeros_like(a), np.zeros_like(a)) for a in arrays]
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
    leaf_opt = Adam([leaf], lr=lr, beta1=b1, beta2=b2, eps=eps)
    for p in params:  # as the first backward would
        p.grad = np.zeros_like(p.data)
    for p in (params[1], packed[1]):
        assert p.data.flags.f_contiguous and not p.data.flags.c_contiguous
    for t in range(1, 6):
        grads = [rng.standard_normal(a.shape) for a in arrays]
        for p, q, g in zip(params, packed, grads):
            p.grad[...] = g
            q.grad[...] = g
        opt.step()
        leaf_opt.step()
        for a, (m, v), g in zip(ref, moments, grads):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            a -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        for p, q, a in zip(params, packed, ref):
            assert np.array_equal(p.data, a)
            assert np.array_equal(q.data, a)
    assert params[1].data.flags.f_contiguous
    assert packed[1].data.flags.f_contiguous and packed[1].data.base is leaf.data


def test_clip_grad_norm_rescales():
    p = Tensor(np.zeros(4), requires_grad=True)
    p.grad = np.full(4, 10.0)
    grad = p.grad
    norm = clip_grad_norm([p], 1.0)
    assert norm == pytest.approx(20.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0)
    assert p.grad is grad  # scaled in place


def test_clip_grad_norm_sums_a_packed_parameter_in_memory_order():
    # the agent clips the tensors packed into its networks' leaves: a
    # Fortran-ordered one sums as its flat segment of the leaf, whose bits
    # differ from a C-order sum here, and the leaf's gradient scales in place
    rng = np.random.default_rng(0)
    params = [Tensor(rng.standard_normal(7), requires_grad=True),
              Tensor(np.asfortranarray(rng.standard_normal((5, 9))), requires_grad=True)]
    leaf = ad.pack(params)
    assert params[1].grad.flags.f_contiguous and not params[1].grad.flags.c_contiguous
    leaf.grad[...] = 100.0 * rng.standard_normal(leaf.size)
    g = leaf.grad.copy()
    sums = [np.add.reduce(g[:7] * g[:7]), np.add.reduce(g[7:] * g[7:])]
    c_order = np.ascontiguousarray(params[1].grad)
    assert np.add.reduce((c_order * c_order).ravel()) != sums[1]
    norm = clip_grad_norm(params, 1.0)
    assert norm == float(np.sqrt(float(sums[0]) + float(sums[1])))
    assert np.array_equal(leaf.grad, g * (1.0 / norm))
    assert all(p.grad.base is leaf.grad for p in params)
