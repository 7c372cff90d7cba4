"""Actor and critic networks with independent per-actuator pathways.

The policy is a shared tanh trunk feeding one head per branch; each branch
owns a state-independent trainable log-std vector. The critic is a separate
trunk with one scalar value head per branch. Branch declaration order fixes
the action-vector layout: branches in order, head output dimensions in order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Tensor, bias_add, exp, matmul, no_grad, scale_cols, square, sub, sum_, tanh,
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
    """Stack of Dense layers with tanh between them and a linear final layer."""

    def __init__(self, sizes: list[int], rng: np.random.Generator,
                 hidden_gain: float = math.sqrt(2.0), out_gain: float = 1.0):
        self.layers = []
        for i in range(len(sizes) - 1):
            last = i == len(sizes) - 2
            self.layers.append(Dense(sizes[i], sizes[i + 1], rng,
                                     out_gain if last else hidden_gain))

    def __call__(self, x: Tensor, final_tanh: bool = False) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1 or final_tanh:
                x = tanh(x)
        return x

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


class PolicyNetwork:
    """Shared trunk, one mean head per branch, per-branch trainable log-std."""

    def __init__(self, state_dim: int, branches: list[BranchSpec],
                 rng: np.random.Generator, trunk_sizes: list[int] = (64, 64)):
        validate_branches(branches)
        self.state_dim = state_dim
        self.branches = list(branches)
        self.trunk = Mlp([state_dim, *trunk_sizes], rng)
        self.heads = []
        self.log_stds = []
        for b in branches:
            # output layer scaled down so initial set-point moves are tiny
            head = Mlp([trunk_sizes[-1], *b.hidden_sizes, b.action_dims], rng,
                       out_gain=0.01)
            self.heads.append(head)
            self.log_stds.append(Tensor(np.full(b.action_dims, math.log(b.init_sigma)),
                                        requires_grad=True))

    def forward(self, states: np.ndarray):
        """Per-branch (mean Tensor [B, dims], std Tensor [dims]) for a state batch."""
        states = _state_batch(states, self.state_dim, "policy_forward")
        feat = self.trunk(Tensor(states), final_tanh=True)
        out = []
        for head, log_std in zip(self.heads, self.log_stds):
            mean = head(feat)
            out.append((mean, exp(log_std)))
        return out

    def tensors(self) -> list[Tensor]:
        return list(self.named_tensors().values())

    def named_tensors(self) -> dict[str, Tensor]:
        named = self.trunk.named("trunk")
        for branch, head, log_std in zip(self.branches, self.heads, self.log_stds):
            named.update(head.named(f"head.{branch.name}"))
            named[f"log_std.{branch.name}"] = log_std
        return named


class CriticNetwork:
    """Shared trunk with one scalar value head per branch."""

    def __init__(self, state_dim: int, n_heads: int, rng: np.random.Generator,
                 trunk_sizes: list[int] = (64, 64)):
        if n_heads < 1:
            raise ValueError("critic needs at least one value head")
        self.state_dim = state_dim
        self.n_heads = n_heads
        self.trunk = Mlp([state_dim, *trunk_sizes], rng)
        self.heads = [Dense(trunk_sizes[-1], 1, rng, gain=1.0) for _ in range(n_heads)]

    def forward(self, states: np.ndarray) -> list[Tensor]:
        states = _state_batch(states, self.state_dim, "critic_forward")
        feat = self.trunk(Tensor(states), final_tanh=True)
        return [head(feat) for head in self.heads]

    def values(self, states: np.ndarray) -> np.ndarray:
        """Forward pass as a plain [B, n_heads] array (no graph)."""
        with no_grad():
            outs = self.forward(states)
        return np.concatenate([o.data for o in outs], axis=1)

    def tensors(self) -> list[Tensor]:
        return list(self.named_tensors().values())

    def named_tensors(self) -> dict[str, Tensor]:
        named = self.trunk.named("vtrunk")
        for hi, head in enumerate(self.heads):
            named.update(head.named(f"vhead.{hi}"))
        return named


# ----------------------------------------------------------------------
# diagonal-Gaussian machinery
# ----------------------------------------------------------------------

def sample_action(branch_outputs, rng: np.random.Generator) -> np.ndarray:
    """Draw one concatenated action vector from per-branch ([1, d] mean, std) pairs."""
    parts = []
    for mean, std in branch_outputs:
        parts.append(mean.data[0] + std.data * rng.standard_normal(std.data.shape[0]))
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
            tensor.data = arr.astype(np.float64)


def load_checkpoint(path) -> Checkpoint:
    """Read a file written by ``save_checkpoint``."""
    with np.load(path) as data:
        if "meta" not in data.files:
            raise ValueError(f"{path}: no 'meta' entry; checkpoints that store a "
                             "'__fingerprint__' entry instead no longer load")
        meta = json.loads(bytes(data["meta"]).decode())
        arrays = {k: data[k] for k in data.files if k != "meta"}
    return Checkpoint(str(path), meta, arrays)
