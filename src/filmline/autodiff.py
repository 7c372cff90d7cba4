"""Reverse-mode automatic differentiation over dense float64 arrays.

Implements exactly the primitives the rest of the package needs: pointwise
arithmetic, matrix products, valid 1-d convolution, non-overlapping max
pooling, layer normalization, axis reductions and a few structural ops
(bias/column broadcasting, time-step gather, row or column slices,
concatenation). Every primitive records a node with a hand-written backward
rule; ``backward`` linearizes the recorded graph into a :class:`Tape` and walks
it once in reverse, accumulating gradients into the leaf tensors.

Broadcasting is deliberately restricted to scalar-vs-array and equal shapes;
anything richer (bias rows, per-column scaling) goes through a dedicated
primitive so gradient shapes stay unambiguous.

``pack`` moves parameters into one flat leaf whose ``data`` and ``grad``
they view, in their own memory order; each of the agent's networks
differentiates its leaf as one node.

The forecaster's primitives (``matmul``, ``concat``, ``conv1d``,
``max_pool1d``, and the recurrent scans in ``cells``) also take leading lane
axes, under ``no_grad`` only: each lane's products are slices of one stacked
``np.matmul``, which gives every lane the bits of its own call.
"""

from __future__ import annotations

import numpy as np

_GRAD_ENABLED = [True]


class no_grad:
    """Context manager that suspends graph recording (forward values only)."""

    def __enter__(self):
        self._prev = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = False
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED[0] = self._prev
        return False


class Node:
    """One recorded primitive: input tensors plus a local backward closure.

    ``backward_fn(grad_out) -> tuple`` returns one gradient array (or None)
    per input, in input order.
    """

    __slots__ = ("op", "inputs", "backward_fn")

    def __init__(self, op, inputs, backward_fn):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tensor:
    """Dense float64 array with optional gradient recording."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _make(data, op, inputs, backward_fn) -> Tensor:
    """Wrap a result array, recording a node when any input tracks gradients."""
    out = Tensor(data)
    if _GRAD_ENABLED[0]:
        for t in inputs:  # a plain loop: any() over a generator costs as much as the op
            if t.requires_grad:
                out.requires_grad = True
                out.node = Node(op, tuple(inputs), backward_fn)
                break
    return out


def _binary_out_shape(a: np.ndarray, b: np.ndarray, op: str):
    """Restricted broadcasting: equal shapes or one side is a scalar."""
    if a.shape == b.shape:
        return a.shape
    if a.size == 1 or b.size == 1:
        return b.shape if a.size == 1 else a.shape
    raise ValueError(
        f"{op}: unsupported broadcast between shapes {a.shape} and {b.shape}; "
        "only scalar-vs-array and equal shapes are allowed"
    )


def _check_lanes(x: Tensor, rank: int, op: str):
    """Refuse a rank below ``rank``, and lane axes before it while grad
    recording is on: no backward rule reads lanes."""
    if x.ndim < rank:
        raise ValueError(f"{op}: input must be rank {rank}, got {x.shape}")
    if x.ndim > rank and _GRAD_ENABLED[0]:
        raise ValueError(f"{op}: lane input {x.shape} is forward-only; run it under no_grad")


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce a gradient back to a (possibly scalar) input shape."""
    if grad.shape == shape:
        return grad
    return np.sum(grad).reshape(shape) if np.prod(shape, dtype=int) <= 1 else grad


# ----------------------------------------------------------------------
# flat parameter leaves
# ----------------------------------------------------------------------

def flat_view(buf: np.ndarray, start: int, like: np.ndarray) -> np.ndarray:
    """``buf[start:start + like.size]`` shaped as ``like``, in ``like``'s memory order.

    ``nets.orthogonal`` returns a Fortran-ordered array when rows < cols, and
    BLAS picks its path from the layout: a C-ordered copy of such a weight
    multiplies to other bits.
    """
    seg = buf[start:start + like.size]
    if like.ndim > 1 and like.flags.f_contiguous and not like.flags.c_contiguous:
        return seg.reshape(like.shape[::-1]).T
    return seg.reshape(like.shape)


def pack(tensors) -> Tensor:
    """Move ``tensors`` into one new flat leaf, back to back in order.

    Each tensor's ``data`` becomes a view of the leaf's ``data`` holding its
    values, and its ``grad`` a zeroed view of the leaf's ``grad``, both in the
    tensor's own memory order. Gradients accumulated into either side are seen
    by the other, as long as nothing rebinds ``data`` or ``grad``.
    """
    tensors = list(tensors)
    leaf = Tensor(np.empty(sum(t.size for t in tensors)), requires_grad=True)
    leaf.grad = np.zeros_like(leaf.data)
    start = 0
    for t in tensors:
        view = flat_view(leaf.data, start, t.data)
        view[...] = t.data
        t.data, t.grad = view, flat_view(leaf.grad, start, t.data)
        start += t.size
    return leaf


# ----------------------------------------------------------------------
# pointwise primitives
# ----------------------------------------------------------------------

def add(x: Tensor, y: Tensor) -> Tensor:
    x, y = _as_tensor(x), _as_tensor(y)
    _binary_out_shape(x.data, y.data, "add")
    out = x.data + y.data

    def bw(g):
        return _unbroadcast(g, x.shape), _unbroadcast(g, y.shape)

    return _make(out, "add", (x, y), bw)


def sub(x: Tensor, y: Tensor) -> Tensor:
    x, y = _as_tensor(x), _as_tensor(y)
    _binary_out_shape(x.data, y.data, "sub")
    out = x.data - y.data

    def bw(g):
        return _unbroadcast(g, x.shape), _unbroadcast(-g, y.shape)

    return _make(out, "sub", (x, y), bw)


def mul(x: Tensor, y: Tensor) -> Tensor:
    x, y = _as_tensor(x), _as_tensor(y)
    _binary_out_shape(x.data, y.data, "mul")
    out = x.data * y.data

    def bw(g):
        return _unbroadcast(g * y.data, x.shape), _unbroadcast(g * x.data, y.shape)

    return _make(out, "mul", (x, y), bw)


def div(x: Tensor, y: Tensor) -> Tensor:
    x, y = _as_tensor(x), _as_tensor(y)
    _binary_out_shape(x.data, y.data, "div")
    if np.any(y.data == 0.0):
        raise ZeroDivisionError("div: denominator contains zero")
    out = x.data / y.data

    def bw(g):
        gx = _unbroadcast(g / y.data, x.shape)
        gy = _unbroadcast(-g * x.data / (y.data * y.data), y.shape)
        return gx, gy

    return _make(out, "div", (x, y), bw)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(x.data * c, "scale", (x,), lambda g: (g * c,))


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)
    return _make(out, "exp", (x,), lambda g: (g * out,))


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _make(out, "tanh", (x,), lambda g: (g * (1.0 - out * out),))


def sigmoid(x: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-x.data))
    return _make(out, "sigmoid", (x,), lambda g: (g * out * (1.0 - out),))


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)
    return _make(out, "relu", (x,), lambda g: (g * (x.data > 0.0),))


def square(x: Tensor) -> Tensor:
    return _make(x.data * x.data, "square", (x,), lambda g: (g * 2.0 * x.data,))


def abs_(x: Tensor) -> Tensor:
    # subgradient 0 at the kink
    return _make(np.abs(x.data), "abs", (x,), lambda g: (g * np.sign(x.data),))


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    lo, hi = float(lo), float(hi)
    if lo > hi:
        raise ValueError(f"clip: lo={lo} exceeds hi={hi}")
    out = np.clip(x.data, lo, hi)
    inside = (x.data >= lo) & (x.data <= hi)
    return _make(out, "clip", (x,), lambda g: (g * inside,))


def minimum(x: Tensor, y: Tensor) -> Tensor:
    x, y = _as_tensor(x), _as_tensor(y)
    _binary_out_shape(x.data, y.data, "minimum")
    out = np.minimum(x.data, y.data)
    # ties route to the first argument, for determinism
    take_x = x.data <= y.data

    def bw(g):
        return _unbroadcast(g * take_x, x.shape), _unbroadcast(g * ~take_x, y.shape)

    return _make(out, "minimum", (x, y), bw)


def maximum(x: Tensor, y: Tensor) -> Tensor:
    x, y = _as_tensor(x), _as_tensor(y)
    _binary_out_shape(x.data, y.data, "maximum")
    out = np.maximum(x.data, y.data)
    take_x = x.data >= y.data

    def bw(g):
        return _unbroadcast(g * take_x, x.shape), _unbroadcast(g * ~take_x, y.shape)

    return _make(out, "maximum", (x, y), bw)


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------

def sum_(x: Tensor, axis=None) -> Tensor:
    out = np.sum(x.data, axis=axis)

    def bw(g):
        if axis is None:
            return (np.full(x.shape, g),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),)

    return _make(out, "sum", (x,), bw)


def mean_(x: Tensor, axis=None) -> Tensor:
    n = x.size if axis is None else x.shape[axis]
    out = np.mean(x.data, axis=axis)

    def bw(g):
        if axis is None:
            return (np.full(x.shape, g / n),)
        return (np.broadcast_to(np.expand_dims(g, axis) / n, x.shape).copy(),)

    return _make(out, "mean", (x,), bw)


# ----------------------------------------------------------------------
# linear algebra and structure
# ----------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[..., n, m] @ [m, p]; lane axes of ``a`` stay batch axes of ``np.matmul``."""
    if b.ndim != 2:
        raise ValueError(f"matmul: expects rank-2 operands, got {a.shape} @ {b.shape}")
    _check_lanes(a, 2, "matmul")
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def bw(g):
        return g @ b.data.T, a.data.T @ g

    return _make(out, "matmul", (a, b), bw)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a rank-1 vector along the last axis of x, summing grads back."""
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ValueError(f"bias_add: bias {b.shape} does not match last axis of {x.shape}")
    out = x.data + b.data

    def bw(g):
        lead = tuple(range(g.ndim - 1))
        return g, g.sum(axis=lead)

    return _make(out, "bias_add", (x, b), bw)


def scale_cols(x: Tensor, v: Tensor) -> Tensor:
    """Multiply each column (last axis) of x by the rank-1 vector v."""
    if v.ndim != 1 or x.shape[-1] != v.shape[0]:
        raise ValueError(f"scale_cols: vector {v.shape} does not match last axis of {x.shape}")
    out = x.data * v.data

    def bw(g):
        lead = tuple(range(g.ndim - 1))
        return g * v.data, (g * x.data).sum(axis=lead)

    return _make(out, "scale_cols", (x, v), bw)


def take_time(x: Tensor, t: int) -> Tensor:
    """Select time step t from a [batch, time, ch] tensor."""
    if x.ndim != 3:
        raise ValueError(f"take_time: expects rank 3, got {x.shape}")
    out = x.data[:, t, :]

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[:, t, :] = g
        return (gx,)

    return _make(out, "take_time", (x,), bw)


def slice_(x: Tensor, start: int, stop: int, axis: int) -> Tensor:
    """Select rows (axis 0) or columns (axis 1) [start, stop) of a rank-2 tensor."""
    if x.ndim != 2 or axis not in (0, 1):
        raise ValueError(f"slice_: expects rank 2 and axis 0 or 1, got {x.shape}, axis {axis}")
    index = (slice(None),) * axis + (slice(start, stop),)
    out = x.data[index]

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[index] = g
        return (gx,)

    return _make(out, "slice", (x,), bw)


def concat(parts, axis: int = 0) -> Tensor:
    """Concatenate rank-2 tensors (after any lane axes) along rows (axis 0)
    or columns (axis 1)."""
    parts = [_as_tensor(p) for p in parts]
    if axis not in (0, 1):
        raise ValueError("concat: axis must be 0 or 1")
    for p in parts:
        _check_lanes(p, 2, "concat")
    out = np.concatenate([p.data for p in parts], axis=axis - 2)
    sizes = [p.shape[axis] for p in parts]

    def bw(g):
        offsets = np.cumsum([0] + sizes)
        if axis == 0:
            return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _make(out, "concat", tuple(parts), bw)


# ----------------------------------------------------------------------
# sequence primitives
# ----------------------------------------------------------------------

def conv1d(x: Tensor, kernels: Tensor) -> Tensor:
    """Valid (no padding) 1-d convolution over the time axis.

    x is [..., batch, time, in_ch]; kernels is [k, in_ch, out_ch]. Output time
    length is T - k + 1.
    """
    if kernels.ndim != 3:
        raise ValueError(f"conv1d: kernels must be [k, in_ch, out_ch], got {kernels.shape}")
    _check_lanes(x, 3, "conv1d")
    *lead, b_n, t_n, c_in = x.shape
    k, kc_in, c_out = kernels.shape
    if kc_in != c_in:
        raise ValueError(f"conv1d: kernel channels {kc_in} != input channels {c_in}")
    if k > t_n:
        raise ValueError(f"conv1d: kernel length {k} exceeds input length {t_n}")
    t_out = t_n - k + 1

    # im2col: windows [..., b, t_out, k, c_in] -> one matmul (per lane) against [k*c_in, c_out]
    cols = np.stack([x.data[..., j:j + t_out, :] for j in range(k)], axis=-2)
    cols = cols.reshape(*lead, b_n * t_out, k * c_in)
    kflat = kernels.data.reshape(k * c_in, c_out)
    out = (cols @ kflat).reshape(*lead, b_n, t_out, c_out)

    def bw(g):
        gflat = g.reshape(b_n * t_out, c_out)
        gk = (cols.T @ gflat).reshape(k, c_in, c_out)
        gcols = (gflat @ kflat.T).reshape(b_n, t_out, k, c_in)
        gx = np.zeros_like(x.data)
        for j in range(k):
            gx[:, j:j + t_out, :] += gcols[:, :, j, :]
        return gx, gk

    return _make(out, "conv1d", (x, kernels), bw)


def max_pool1d(x: Tensor, window: int) -> Tensor:
    """Non-overlapping max over time; a trailing remainder is dropped.

    Gradient routes to the first occurrence of the maximum in each window.
    """
    if window < 1:
        raise ValueError(f"max_pool1d: window must be >= 1, got {window}")
    _check_lanes(x, 3, "max_pool1d")
    *lead, b_n, t_n, c_n = x.shape
    t_out = t_n // window
    if t_out == 0:
        raise ValueError(f"max_pool1d: window {window} longer than input {t_n}")
    blocks = x.data[..., : t_out * window, :].reshape(*lead, b_n, t_out, window, c_n)
    out = blocks.max(axis=-2)

    def bw(g):
        arg = np.argmax(blocks, axis=2)  # first occurrence on ties
        gblocks = np.zeros_like(blocks)
        np.put_along_axis(gblocks, arg[:, :, None, :], g[:, :, None, :], axis=2)
        gx = np.zeros_like(x.data)
        gx[:, : t_out * window, :] = gblocks.reshape(b_n, t_out * window, c_n)
        return (gx,)

    return _make(out, "max_pool1d", (x,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ValueError(f"layer_norm: eps must be > 0, got {eps}")
    n = x.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ValueError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} do not match last axis {n}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = xhat * gain.data + bias.data

    def bw(g):
        lead = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=lead)
        gbias = g.sum(axis=lead)
        gh = g * gain.data
        gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                    - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
        return gx, ggain, gbias

    return _make(out, "layer_norm", (x, gain, bias), bw)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity (deterministic) when not training."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return mul(x, Tensor(mask))


# ----------------------------------------------------------------------
# backward pass
# ----------------------------------------------------------------------

class Tape:
    """Topologically ordered record of the graph reachable from one output.

    Every tensor's inputs appear before it; a single reverse sweep therefore
    visits each node exactly once.
    """

    def __init__(self, output: Tensor):
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(output, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                order.append(t)
                continue
            if id(t) in visited:
                continue
            visited.add(id(t))
            stack.append((t, True))
            if t.node is not None:
                for parent in t.node.inputs:
                    if id(parent) not in visited:
                        stack.append((parent, False))
        self.order = order  # inputs precede consumers
        self.output = output

    def backprop(self, seed: np.ndarray):
        grads: dict[int, np.ndarray] = {id(self.output): seed}
        for t in reversed(self.order):
            g = grads.pop(id(t), None)
            if g is None:
                continue
            if t.node is None:
                if t.requires_grad:
                    if t.grad is None:
                        t.grad = np.zeros_like(t.data)
                    t.grad += g
                continue
            for parent, pg in zip(t.node.inputs, t.node.backward_fn(g)):
                if pg is None or not parent.requires_grad:
                    continue
                # a backward rule may hand one array to several parents, so
                # sums go to a new array and stored gradients stay unwritten
                key = id(parent)
                acc = grads.get(key)
                grads[key] = np.asarray(pg, dtype=np.float64) if acc is None else acc + pg


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into every reachable requires_grad leaf.

    Repeated calls without zeroing keep accumulating.
    """
    if loss.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("backward: loss is not connected to any tracked tensor")
    Tape(loss).backprop(np.ones_like(loss.data))
