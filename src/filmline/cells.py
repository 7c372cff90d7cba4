"""LSTM and GRU cells, one step at a time or over a whole sequence.

Both cells store their gate weights stacked by column, the layout cuDNN uses:
each step takes one input product and one recurrent product and cuts the
gates out of the result. ``lstm_cell``/``gru_cell`` record one [batch, in]
step from autodiff primitives; ``lstm_scan``/``gru_scan`` run the same steps
over [batch, time, in] in numpy as one node with its own BPTT; under
``no_grad`` they also take leading lane axes, [..., batch, time, in]."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .autodiff import (
    _GRAD_ENABLED, Tensor, _check_lanes, _make, bias_add, matmul, mul, sigmoid, slice_, sub,
    tanh,
)


def _param(data: np.ndarray) -> Tensor:
    return Tensor(data, requires_grad=True)


def _draw_gates(rng: np.random.Generator, gates: str, in_dim: int, hidden: int):
    """Per-gate input and recurrent weight draws, gate by gate in ``gates`` order."""
    s = 1.0 / np.sqrt(max(in_dim, hidden))
    wx, wh = [], []
    for _ in gates:
        wx.append(rng.standard_normal((in_dim, hidden)) * s)
        wh.append(rng.standard_normal((hidden, hidden)) * s)
    return wx, wh


def _cols(x: Tensor, k: int, width: int) -> Tensor:
    """Column block k of width ``width``: gate k of a stacked pre-activation."""
    return slice_(x, k * width, (k + 1) * width, axis=1)


@dataclass
class LstmParams:
    """Gates stacked in i, f, g, o column order: wx [in, 4H], wh [H, 4H], b [4H]."""

    wx: Tensor
    wh: Tensor
    b: Tensor

    @classmethod
    def init(cls, in_dim: int, hidden: int, rng: np.random.Generator) -> "LstmParams":
        wx, wh = _draw_gates(rng, "ifgo", in_dim, hidden)
        return cls(_param(np.concatenate(wx, axis=1)), _param(np.concatenate(wh, axis=1)),
                   _param(np.zeros(4 * hidden)))

    def tensors(self) -> list[Tensor]:
        return [getattr(self, f.name) for f in fields(self)]


@dataclass
class GruParams:
    """Gates stacked in z, r, n column order: wx [in, 3H]; wh [H, 2H] and
    b [2H] for z and r; the reset-gated candidate's w_hn [H, H] and b_n [H]."""

    wx: Tensor
    wh: Tensor
    b: Tensor
    w_hn: Tensor
    b_n: Tensor

    @classmethod
    def init(cls, in_dim: int, hidden: int, rng: np.random.Generator) -> "GruParams":
        wx, wh = _draw_gates(rng, "zrn", in_dim, hidden)
        return cls(_param(np.concatenate(wx, axis=1)), _param(np.concatenate(wh[:2], axis=1)),
                   _param(np.zeros(2 * hidden)), _param(wh[2]), _param(np.zeros(hidden)))

    def tensors(self) -> list[Tensor]:
        return [getattr(self, f.name) for f in fields(self)]


def lstm_cell(x_t: Tensor, h_prev: Tensor, c_prev: Tensor, p: LstmParams):
    """One LSTM step: sigmoid input/forget/output gates, tanh candidate."""
    hid = h_prev.shape[1]
    pre = bias_add(matmul(x_t, p.wx) + matmul(h_prev, p.wh), p.b)
    i = sigmoid(_cols(pre, 0, hid))
    f = sigmoid(_cols(pre, 1, hid))
    g = tanh(_cols(pre, 2, hid))
    o = sigmoid(_cols(pre, 3, hid))
    c_t = mul(f, c_prev) + mul(i, g)
    h_t = mul(o, tanh(c_t))
    return h_t, c_t


def gru_cell(x_t: Tensor, h_prev: Tensor, p: GruParams) -> Tensor:
    """One GRU step; update gate z = 1 keeps the previous hidden state."""
    hid = h_prev.shape[1]
    pre_x = matmul(x_t, p.wx)
    zr = sigmoid(bias_add(slice_(pre_x, 0, 2 * hid, axis=1) + matmul(h_prev, p.wh), p.b))
    z, r = _cols(zr, 0, hid), _cols(zr, 1, hid)
    n = tanh(bias_add(_cols(pre_x, 2, hid) + matmul(mul(r, h_prev), p.w_hn), p.b_n))
    one_minus_z = sub(Tensor(np.ones_like(z.data)), z)
    return mul(z, h_prev) + mul(one_minus_z, n)


def lstm_scan(x: Tensor, p: LstmParams) -> Tensor:
    """``lstm_cell`` over a [..., B, T, C] sequence from zero state, in the
    cell's order of operations (so bit-identical): the last hidden state
    [..., B, H]. Activations are kept only while grad recording is on."""
    _check_lanes(x, 3, "lstm_scan")
    *lead, b_n, t_n, _ = x.shape
    wx, wh, b = p.wx.data, p.wh.data, p.b.data
    hid = wh.shape[0]
    h, c = np.zeros((*lead, b_n, hid)), np.zeros((*lead, b_n, hid))
    saved = [] if _GRAD_ENABLED[0] else None
    for t in range(t_n):
        pre = x.data[..., t, :] @ wx + h @ wh + b
        act = 1.0 / (1.0 + np.exp(-pre))  # gates i, f, o; block 2 is unused
        g = np.tanh(pre[..., 2 * hid:3 * hid])
        if saved is not None:
            saved.append((h, c, act, g))
        c = act[..., hid:2 * hid] * c + act[..., :hid] * g
        h = act[..., 3 * hid:] * np.tanh(c)

    def bw(gh):
        dpre = np.empty((b_n, t_n, 4 * hid))
        dh, dc = gh, 0.0
        for t in reversed(range(t_n)):
            h_prev, c_prev, act, g = saved[t]
            i, f, o = act[:, :hid], act[:, hid:2 * hid], act[:, 3 * hid:]
            tc = np.tanh(f * c_prev + i * g)
            dc = dc + dh * o * (1.0 - tc * tc)
            slope = act * (1.0 - act)
            slope[:, 2 * hid:3 * hid] = 1.0 - g * g
            dpre[:, t] = np.concatenate([dc * g, dc * c_prev, dc * i, dh * tc], axis=1) * slope
            dc = dc * f
            dh = dpre[:, t] @ wh.T
        flat = dpre.reshape(b_n * t_n, 4 * hid)
        hs = np.stack([s[0] for s in saved], axis=1).reshape(b_n * t_n, hid)
        return ((flat @ wx.T).reshape(x.shape), x.data.reshape(b_n * t_n, -1).T @ flat,
                hs.T @ flat, flat.sum(axis=0))

    return _make(h, "lstm_scan", (x, p.wx, p.wh, p.b), bw)


def gru_scan(x: Tensor, p: GruParams, period: int) -> Tensor:
    """``gru_cell`` from zero state over every ``period``-th step of
    [..., B, T, C], one subsequence per phase ending at the last step: the
    phases' last hidden states side by side, [..., B, period * H]. Each step is
    one bit-identical ``gru_cell`` on phase-major rows (phase j in rows j*B to
    (j+1)*B)."""
    _check_lanes(x, 3, "gru_scan")
    *lead, b_n, t_n, c_in = x.shape
    hid = p.w_hn.shape[0]
    n_steps, rows = t_n // period, period * b_n
    start = t_n - n_steps * period
    # [..., B, steps, period, C] -> [steps, ..., period, B, C]
    nl = len(lead)
    steps = x.data[..., start:, :].reshape(*lead, b_n, n_steps, period, c_in)
    steps = steps.transpose(nl + 1, *range(nl), nl + 2, nl, nl + 3)
    steps = steps.reshape(n_steps, *lead, rows, c_in)
    h = np.zeros((*lead, rows, hid))
    saved = [] if _GRAD_ENABLED[0] else None
    for t in range(n_steps):
        pre_x = steps[t] @ p.wx.data
        zr = 1.0 / (1.0 + np.exp(-(pre_x[..., :2 * hid] + h @ p.wh.data + p.b.data)))
        z, r = zr[..., :hid], zr[..., hid:]
        n = np.tanh(pre_x[..., 2 * hid:] + (r * h) @ p.w_hn.data + p.b_n.data)
        if saved is not None:
            saved.append((h, zr, n))
        h = z * h + (1.0 - z) * n

    def bw(g_out):
        dh = g_out.reshape(b_n, period, hid).transpose(1, 0, 2).reshape(rows, hid)
        dpre = np.empty((n_steps, rows, 3 * hid))
        for t in reversed(range(n_steps)):
            h_prev, zr, n = saved[t]
            z, r = zr[:, :hid], zr[:, hid:]
            dn = dh * (1.0 - z) * (1.0 - n * n)
            drh = dn @ p.w_hn.data.T
            dzr = np.concatenate([dh * (h_prev - n), drh * h_prev], axis=1) * zr * (1.0 - zr)
            dpre[t] = np.concatenate([dzr, dn], axis=1)
            dh = dh * z + drh * r + dzr @ p.wh.data.T
        flat = dpre.reshape(n_steps * rows, 3 * hid)
        dzr, dn = flat[:, :2 * hid], flat[:, 2 * hid:]
        hs = np.concatenate([s[0] for s in saved])
        rhs = np.concatenate([s[1][:, hid:] * s[0] for s in saved])
        gsteps = (flat @ p.wx.data.T).reshape(n_steps, period, b_n, c_in).transpose(2, 0, 1, 3)
        gx = np.zeros_like(x.data)
        gx[:, start:] = gsteps.reshape(b_n, n_steps * period, c_in)
        return (gx, steps.reshape(-1, c_in).T @ flat, hs.T @ dzr, dzr.sum(axis=0),
                rhs.T @ dn, dn.sum(axis=0))

    out = h.reshape(*lead, period, b_n, hid).swapaxes(-3, -2).reshape(*lead, b_n, period * hid)
    return _make(out, "gru_scan", (x, p.wx, p.wh, p.b, p.w_hn, p.b_n), bw)
