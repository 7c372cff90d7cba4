"""LSTM and GRU cell steps built from the autodiff primitives.

Both cells store their gate weights stacked by column, the layout cuDNN uses:
each step takes one input product and one recurrent product and cuts the
gates out of the result. Inputs are [batch, in] rows with [batch, hidden]
states; single rows work too via a leading batch of 1 handled by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .autodiff import Tensor, bias_add, matmul, mul, sigmoid, slice_, sub, tanh


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
