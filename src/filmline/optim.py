"""Adam over autodiff tensors, plus global gradient-norm clipping."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class Adam:
    """Standard Adam with bias correction, stepping each tensor it is given.

    Each parameter keeps one pair of moment arrays. ``step()`` updates every
    parameter's ``data`` in place and zeroes its ``grad`` in place, so views
    of either (a network's flat leaf and the tensors packed into it) stay
    valid. A parameter that no gradient has reached yet steps as if its
    gradient were zero, and keeps that zeroed array as its ``grad``.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._moments = [(np.zeros_like(p.data), np.zeros_like(p.data)) for p in self.params]

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, (m, v) in zip(self.params, self._moments):
            g = p.grad
            if g is None:  # no gradient has reached it yet
                g = p.grad = np.zeros_like(p.data)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            g.fill(0.0)


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    """Rescale the gradients of ``params`` in place so their joint norm is at
    most max_norm; returns the norm before clipping.

    Each parameter's squares are summed on their own, in the parameter's
    memory order, then added in parameter order.
    """
    total = 0.0
    for p in params:
        g = p.grad.ravel(order="K")  # a view: a Fortran-ordered gradient sums column by column
        total += float(np.add.reduce(g * g))  # np.sum without its wrapper
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            p.grad *= scale
    return norm
