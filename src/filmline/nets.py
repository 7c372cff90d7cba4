"""Actor and critic networks with independent per-actuator pathways.

The policy is a shared tanh trunk feeding one head per branch; each branch
owns a state-independent trainable log-std vector. The critic is a separate
trunk with one scalar value head per branch. Branch declaration order fixes
the action-vector layout: branches in order, head output dimensions in order.

Each network call records one autodiff node over one flat parameter leaf,
with a hand-written backward that repeats the per-layer graph's operations;
acting runs the same arithmetic in plain numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import (
    _GRAD_ENABLED, Tensor, _make, bias_add, exp, matmul, scale_cols, slice_, square, sub, sum_,
)

LOG_TWO_PI = math.log(2.0 * math.pi)


def orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float = 1.0) -> np.ndarray:
    """Orthogonal-ish init: QR of a Gaussian draw, sign-fixed, then scaled."""
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


class Dense:
    """Affine layer; activation is applied by the caller."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, gain: float = 1.0):
        self.w = Tensor(orthogonal(rng, in_dim, out_dim, gain), requires_grad=True)
        self.b = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return bias_add(matmul(x, self.w), self.b)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


class Mlp:
    """Stack of Dense layers with tanh between them; the final layer is
    linear unless ``final_tanh``.

    The networks below run it in plain numpy (``run``) and differentiate it
    by hand (``backprop``) inside their one autodiff node, in the operations
    and order of the per-layer graph: the same bits.
    """

    def __init__(self, sizes: list[int], rng: np.random.Generator,
                 hidden_gain: float = math.sqrt(2.0), out_gain: float = 1.0,
                 final_tanh: bool = False):
        self.final_tanh = final_tanh
        self.layers = []
        for i in range(len(sizes) - 1):
            last = i == len(sizes) - 2
            self.layers.append(Dense(sizes[i], sizes[i + 1], rng,
                                     out_gain if last else hidden_gain))

    def _tanh_after(self, i: int) -> bool:
        return i < len(self.layers) - 1 or self.final_tanh

    def run(self, x: np.ndarray, acts: list | None = None) -> np.ndarray:
        """The forward in numpy; each layer's output is appended to ``acts`` when given."""
        for i, layer in enumerate(self.layers):
            x = x @ layer.w.data + layer.b.data
            if self._tanh_after(i):
                x = np.tanh(x)
            if acts is not None:
                acts.append(x)
        return x

    def backprop(self, x: np.ndarray, acts: list, g: np.ndarray, grad_of,
                 input_grad: bool = True) -> np.ndarray | None:
        """Gradients of one ``run`` from ``x`` that kept ``acts``, given the
        output gradient ``g``. Each parameter's gradient is written into
        ``grad_of(tensor)``; the input gradient is returned if asked for."""
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            if self._tanh_after(i):
                a = acts[i]
                g = g * (1.0 - a * a)
            grad_of(layer.b)[...] = g.sum(axis=0)
            inp = acts[i - 1] if i else x
            grad_of(layer.w)[...] = inp.T @ g
            if i or input_grad:
                g = g @ layer.w.data.T
        return g if input_grad else None

    def named(self, prefix: str) -> dict[str, Tensor]:
        """``{prefix}.{i}.w`` and ``{prefix}.{i}.b`` for each layer, in layer order."""
        named = {}
        for i, layer in enumerate(self.layers):
            named.update(layer.named(f"{prefix}.{i}"))
        return named


@dataclass
class BranchSpec:
    """Configuration of one action pathway (one actuator group)."""

    name: str
    action_dims: int
    clip_epsilon: float = 0.2
    discount: float = 0.99
    loss_weight: float = 0.5
    init_sigma: float = 0.5
    hidden_sizes: list[int] = field(default_factory=lambda: [32])

    def __post_init__(self):
        if self.action_dims < 1:
            raise ValueError(f"branch {self.name}: action_dims must be >= 1")
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ValueError(f"branch {self.name}: clip_epsilon must be in (0, 1)")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError(f"branch {self.name}: discount must be in (0, 1]")
        if self.loss_weight < 0.0:
            raise ValueError(f"branch {self.name}: loss_weight must be >= 0")
        if self.init_sigma <= 0.0:
            raise ValueError(f"branch {self.name}: init_sigma must be > 0")
        if any(size < 1 for size in self.hidden_sizes):
            raise ValueError(f"branch {self.name}: hidden_sizes must each be >= 1")


def _state_batch(states, state_dim: int, who: str) -> np.ndarray:
    """One state or a batch of them as a checked [B, state_dim] float64 array."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim == 1:
        states = states[None]
    if states.shape[1] != state_dim:
        raise ValueError(f"{who}: state dim {states.shape[1]} != configured {state_dim}")
    return states


def validate_branches(branches: list[BranchSpec]):
    if not branches:
        raise ValueError("at least one branch is required")
    if sum(b.loss_weight for b in branches) <= 0.0:
        raise ValueError("branch loss weights must not all be zero")


class _TrunkHeads:
    """A tanh trunk feeding linear heads, recorded as one autodiff node.

    ``param`` is the flat leaf that node differentiates: every tensor of
    ``named_tensors()`` is a view of it, back to back in that order
    (``autodiff.pack``), from construction on. The node's output is every
    head's output side by side, ``[B, sum of head widths]``; the trunk input
    is a constant state batch, so it gets no gradient. The heads' input
    gradients are summed in head order; the per-layer graph sums two the same
    way, and no configuration has more.
    """

    state_dim: int
    trunk: Mlp
    heads: list[Mlp]

    def _pack(self):
        tensors = self.tensors()
        self.param = ad.pack(tensors)
        starts = np.cumsum([0] + [t.size for t in tensors])
        self._starts = {id(t): int(start) for t, start in zip(tensors, starts)}

    def tensors(self) -> list[Tensor]:
        return list(self.named_tensors().values())

    def _run(self, x: np.ndarray, acts: list | None = None) -> np.ndarray:
        """The forward in numpy; ``acts``, when given, holds one list per Mlp
        (trunk first) that keeps its activations."""
        keep = acts or [None] * (1 + len(self.heads))
        feat = self.trunk.run(x, keep[0])
        outs = [head.run(feat, k) for head, k in zip(self.heads, keep[1:])]
        return outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)

    def _outputs(self, states, who: str) -> Tensor:
        x = _state_batch(states, self.state_dim, who)
        if not _GRAD_ENABLED[0]:
            return Tensor(self._run(x))
        param, heads = self.param, self.heads
        acts = [[] for _ in range(1 + len(heads))]
        out = self._run(x, acts)

        def bw(g):  # the gradient of the whole flat leaf; log-stds get none here
            grad = np.zeros(param.size)

            def grad_of(t):
                return ad.flat_view(grad, self._starts[id(t)], t.data)

            feat = acts[0][-1]
            g_feat = None
            col = 0
            for head, head_acts in zip(heads, acts[1:]):
                width = head.layers[-1].b.size
                g_head = g if len(heads) == 1 else np.ascontiguousarray(g[:, col:col + width])
                col += width
                g_in = head.backprop(feat, head_acts, g_head, grad_of)
                g_feat = g_in if g_feat is None else g_feat + g_in
            self.trunk.backprop(x, acts[0], g_feat, grad_of, input_grad=False)
            return (grad,)

        return _make(out, who, (param,), bw)

    def _split(self, out: Tensor) -> list[Tensor]:
        """Each head's columns of a node output, in head order."""
        if len(self.heads) == 1:
            return [out]
        parts, col = [], 0
        for head in self.heads:
            width = head.layers[-1].b.size
            parts.append(slice_(out, col, col + width, axis=1))
            col += width
        return parts


class PolicyNetwork(_TrunkHeads):
    """Shared trunk, one mean head per branch, per-branch trainable log-std."""

    def __init__(self, state_dim: int, branches: list[BranchSpec],
                 rng: np.random.Generator, trunk_sizes: list[int] = (64, 64)):
        validate_branches(branches)
        self.state_dim = state_dim
        self.branches = list(branches)
        self.trunk = Mlp([state_dim, *trunk_sizes], rng, final_tanh=True)
        self.heads = []
        self.log_stds = []
        for b in branches:
            # output layer scaled down so initial set-point moves are tiny
            head = Mlp([trunk_sizes[-1], *b.hidden_sizes, b.action_dims], rng,
                       out_gain=0.01)
            self.heads.append(head)
            self.log_stds.append(Tensor(np.full(b.action_dims, math.log(b.init_sigma)),
                                        requires_grad=True))
        self._pack()

    def forward(self, states: np.ndarray):
        """Per-branch (mean Tensor [B, dims], std Tensor [dims]) for a state batch."""
        means = self._split(self._outputs(states, "policy_forward"))
        return [(mean, exp(log_std)) for mean, log_std in zip(means, self.log_stds)]

    def means(self, states: np.ndarray) -> np.ndarray:
        """Every branch's mean side by side, [B, action dims], in plain numpy:
        the arithmetic of ``forward`` with no graph."""
        return self._run(_state_batch(states, self.state_dim, "policy_means"))

    def stds(self) -> list[np.ndarray]:
        """Every branch's standard deviation, exp(log_std), as a plain array."""
        return [np.exp(log_std.data) for log_std in self.log_stds]

    def named_tensors(self) -> dict[str, Tensor]:
        named = self.trunk.named("trunk")
        for branch, head, log_std in zip(self.branches, self.heads, self.log_stds):
            named.update(head.named(f"head.{branch.name}"))
            named[f"log_std.{branch.name}"] = log_std
        return named


class CriticNetwork(_TrunkHeads):
    """Shared trunk with one scalar value head per branch."""

    def __init__(self, state_dim: int, n_heads: int, rng: np.random.Generator,
                 trunk_sizes: list[int] = (64, 64)):
        if n_heads < 1:
            raise ValueError("critic needs at least one value head")
        self.state_dim = state_dim
        self.n_heads = n_heads
        self.trunk = Mlp([state_dim, *trunk_sizes], rng, final_tanh=True)
        self.heads = [Mlp([trunk_sizes[-1], 1], rng) for _ in range(n_heads)]
        self._pack()

    def forward(self, states: np.ndarray) -> list[Tensor]:
        return self._split(self._outputs(states, "critic_forward"))

    def values(self, states: np.ndarray) -> np.ndarray:
        """Every head's value as a plain [B, n_heads] array (no graph)."""
        return self._run(_state_batch(states, self.state_dim, "critic_values"))

    def named_tensors(self) -> dict[str, Tensor]:
        named = self.trunk.named("vtrunk")
        for hi, head in enumerate(self.heads):
            named.update(head.layers[0].named(f"vhead.{hi}"))
        return named


# ----------------------------------------------------------------------
# diagonal-Gaussian machinery
# ----------------------------------------------------------------------

def sample_action(mean: np.ndarray, stds: list[np.ndarray],
                  rng: np.random.Generator) -> np.ndarray:
    """Draw one action vector around ``mean`` (every branch's mean side by
    side), branch by branch: mean + std * standard-normal draws."""
    parts, lo = [], 0
    for std in stds:
        parts.append(mean[lo:lo + std.shape[0]] + std * rng.standard_normal(std.shape[0]))
        lo += std.shape[0]
    return np.concatenate(parts)


def gaussian_log_prob(mean: Tensor, log_std: Tensor, actions: np.ndarray) -> Tensor:
    """Diagonal-Gaussian log-density summed over dims; returns a [B] tensor."""
    actions = np.asarray(actions, dtype=np.float64)
    if actions.ndim == 1:
        actions = actions[None]
    if not np.all(np.isfinite(log_std.data)):
        raise ValueError("gaussian_log_prob: standard deviation must be positive and finite")
    diff = sub(Tensor(actions), mean)                      # [B, d]
    z = scale_cols(diff, exp(-1.0 * log_std))              # (a - mu) / sigma
    quad = sum_(square(z), axis=1) * 0.5                   # [B]
    const = Tensor(np.array(0.5 * LOG_TWO_PI * actions.shape[1]))
    return -1.0 * quad - sum_(log_std) - const


def gaussian_entropy(log_std: Tensor) -> Tensor:
    """Entropy of a diagonal Gaussian: sum over dims of 0.5*ln(2*pi*e*sigma^2)."""
    if not np.all(np.isfinite(log_std.data)):
        raise ValueError("gaussian_entropy: log_std must be finite")
    dims = log_std.shape[0]
    return sum_(log_std) + Tensor(np.array(0.5 * dims * (LOG_TWO_PI + 1.0)))


def log_prob_value(mean: np.ndarray, std: np.ndarray, action: np.ndarray) -> float:
    """Closed-form diagonal-Gaussian log-density (plain arrays, no graph)."""
    mean, std, action = (np.asarray(v, dtype=np.float64) for v in (mean, std, action))
    if np.any(std <= 0.0):
        raise ValueError(f"log_prob: standard deviation must be > 0, got {std}")
    z = (action - mean) / std
    return float(np.sum(-0.5 * z * z - np.log(std) - 0.5 * LOG_TWO_PI))


def entropy_value(std: np.ndarray) -> float:
    """Closed-form diagonal-Gaussian entropy (plain arrays, no graph)."""
    std = np.asarray(std, dtype=np.float64)
    if np.any(std <= 0.0):
        raise ValueError(f"entropy: standard deviation must be > 0, got {std}")
    return float(np.sum(0.5 * (LOG_TWO_PI + 1.0) + np.log(std)))


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------

def config_fingerprint(config_obj) -> str:
    """Stable hash of an arbitrary JSON-serializable config description."""
    blob = json.dumps(config_obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def save_checkpoint(path, named: dict[str, Tensor], meta: dict, **arrays: np.ndarray):
    """Write the one checkpoint layout every model file uses.

    Each tensor of ``named`` becomes a ``param:<name>`` array and each extra
    array keeps its keyword as its name; ``meta`` is stored as one JSON
    entry and carries the ``fingerprint`` of the configuration.
    """
    entries = {f"param:{k}": v.data for k, v in named.items()}
    entries.update(arrays)
    entries["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **entries)


@dataclass
class Checkpoint:
    """A checkpoint file as read back: its ``meta`` and every other array."""

    path: str
    meta: dict
    arrays: dict[str, np.ndarray]

    def restore(self, named: dict[str, Tensor], fingerprint: str):
        """Load parameter values in place, verifying the fingerprint and shapes."""
        stored = self.meta.get("fingerprint")
        if stored != fingerprint:
            raise ValueError(
                f"{self.path}: checkpoint fingerprint {stored!r} does not match expected "
                f"{fingerprint!r}; it was saved under a different configuration")
        for key, tensor in named.items():
            arr = self.arrays.get(f"param:{key}")
            if arr is None:
                raise ValueError(f"{self.path}: checkpoint has no entry param:{key}")
            if arr.shape != tensor.data.shape:
                raise ValueError(f"{self.path}: checkpoint entry {key}: shape {arr.shape} "
                                 f"!= expected {tensor.data.shape}")
            # in place: a network's tensors are views of its flat leaf
            tensor.data[...] = arr


def load_checkpoint(path) -> Checkpoint:
    """Read a file written by ``save_checkpoint``."""
    with np.load(path) as data:
        if "meta" not in data.files:
            raise ValueError(f"{path}: no 'meta' entry; checkpoints that store a "
                             "'__fingerprint__' entry instead no longer load")
        meta = json.loads(bytes(data["meta"]).decode())
        arrays = {k: data[k] for k in data.files if k != "meta"}
    return Checkpoint(str(path), meta, arrays)
