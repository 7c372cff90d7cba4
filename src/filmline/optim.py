"""Adam over one flat buffer of autodiff tensors, plus global gradient-norm clipping."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, pack


class Adam:
    """Standard Adam with bias correction, stepping one flat buffer.

    Construction packs ``params`` into one flat leaf, ``self.param``
    (``autodiff.pack``): every parameter's ``data`` and ``grad`` are views of
    its ``data`` and ``grad`` from then on, in the parameter's own memory
    order. ``step()`` updates the whole buffer with a few array operations
    and zeroes the gradients in place. A parameter whose ``data`` or ``grad``
    was rebound to another array since, or one added to ``params`` later, has
    no place in the buffer: ``step()`` refuses it.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.param = pack(self.params)
        ends = np.cumsum([p.size for p in self.params])
        self.bounds = [(int(end) - p.size, int(end)) for p, end in zip(self.params, ends)]
        self._m = np.zeros_like(self.param.data)
        self._v = np.zeros_like(self.param.data)

    def step(self):
        data, g = self.param.data, self.param.grad
        for i, p in enumerate(self.params):
            if p.data.base is not data or p.grad is None or p.grad.base is not g:
                raise KeyError(f"Adam.step: parameter {i} {p.shape} is not a view of the "
                               "optimizer's buffer; write into .data and .grad in place")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
        g.fill(0.0)


def clip_grad_norm(opt: Adam, max_norm: float) -> float:
    """Rescale the optimizer's gradients in place so their joint norm is at
    most max_norm; returns the norm before clipping.

    Each parameter's squares are summed on their own, then added in
    parameter order, as a loop over the tensors would.
    """
    g = opt.param.grad
    squares = g * g
    total = 0.0
    for start, stop in opt.bounds:
        total += float(np.add.reduce(squares[start:stop]))  # np.sum without its wrapper
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        g *= max_norm / norm
    return norm
