"""Adam optimizer over autodiff tensors, plus global gradient-norm clipping."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class Adam:
    """Standard Adam with bias correction; one moment slot per bound tensor.

    ``step()`` consumes and zeroes the gradients of the parameters the
    optimizer was constructed with. Stepping a tensor without a state slot
    is an error.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._state = {id(p): (np.zeros_like(p.data), np.zeros_like(p.data))
                       for p in self.params}

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p in self.params:
            slot = self._state.get(id(p))
            if slot is None:
                raise KeyError("Adam.step: parameter has no optimizer state slot")
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m, v = slot
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            p.grad = None


def global_grad_norm(params: list[Tensor]) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    return float(np.sqrt(total))


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    """Rescale all gradients in place so their joint norm is at most max_norm."""
    norm = global_grad_norm(params)
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm
