"""Dense float tensors with reverse-mode automatic differentiation.

Every forward op under grad gives its output a node on a dynamic tape
(links to its parents' nodes plus a backward closure); ``backward`` replays
the tape in reverse topological order and frees each node once its closure
has returned. A node holds no array of its own: a tensor's data lives as
long as a Python name or a backward closure holds it, so an output that no
backward reads is freed as soon as the caller drops it. An op written as a
composition of other ops (the k2s2 convolution, ``embedding``) records the
nodes of its parts and has no closure of its own. Compute precision
is float32 by default; passing float64 arrays through the same ops gives a
64-bit mode used for tight gradient checks.

The closure contract: a backward closure returns, per parent, its incoming
gradient, a view of it, or an array it allocated for that call, and keeps
no reference to what it returns. ``backward`` relies on this to sum a
node's later gradient contributions in place into a fresh array. A closure
captures the arrays its backward reads and, for the rest, plain shapes,
dtypes or scalars: it names an operand ``Tensor`` only to read its
``.data``, so an operand whose values the backward does not need is not
kept alive by the tape.

Shapes follow numpy row-major conventions. Broadcasting is supported only
with numpy's trailing-axis alignment (bias vectors against batched
activations); anything else raises ShapeError naming both shapes.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import numpy as np

DEFAULT_DTYPE = np.float32
LAYER_NORM_EPS = 1e-5  # added to the variance before its square root


class ShapeError(ValueError):
    """Operand shapes cannot be combined by the requested op."""


class ContractError(RuntimeError):
    """An op was called outside its contract (e.g. backward on a non-scalar)."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / benchmarking)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _float_array(data) -> np.ndarray:
    if isinstance(data, (np.ndarray, np.generic)):
        data = np.asarray(data)  # 0-d ops return numpy scalars; keep their dtype
        return data if data.dtype in _FLOAT_DTYPES else data.astype(DEFAULT_DTYPE)
    return np.asarray(data, dtype=DEFAULT_DTYPE)


def records_grad(t: "Tensor") -> bool:
    """Whether an op taking t would be recorded on the tape right now."""
    return _grad_enabled and t._node is not None


class _Node:
    """A tensor's place on the tape: its parents' nodes (None for a parent
    that records no gradient), its backward closure and its gradient. A
    leaf (a parameter) has no closure; its gradient is the tensor's
    ``grad``. The node holds no forward array, so the tape keeps alive only
    what the closures capture."""

    __slots__ = ("parents", "backward", "grad")

    def __init__(self, parents=(), backward=None):
        self.parents = parents
        self.backward = backward
        self.grad = None


class Tensor:
    """N-dimensional float array, optionally recorded on the autodiff tape.

    Data is immutable once the tensor participates in recorded ops; only the
    ``grad`` buffer is written after the fact. Grads accumulate across
    separate graphs until ``zero_grad``, and a graph runs backward once.
    A tensor that requires grad has a tape node (``_node``), which holds its
    gradient and backward closure; ``requires_grad`` reads it, and ``grad``
    and ``_backward`` read and write through it.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        if type(data) is not np.ndarray or data.dtype not in _FLOAT_DTYPES:
            data = _float_array(data)
        self.data = data
        self._node = _Node(tuple(p._node for p in _parents), _backward) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise ContractError("grad set on a tensor that does not require grad")

    @property
    def _backward(self):
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn):
        self._node.backward = fn

    # -- introspection ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- autodiff -----------------------------------------------------------

    def backward(self):
        """Reverse-mode pass from this scalar; populates grads of every
        requires_grad leaf on the tape that feeds it.

        Each non-leaf node is spent as soon as its closure has returned: its
        grad, closure and parent links are dropped, so intermediate gradients
        and saved arrays are freed as the pass moves on. A spent node raises
        ContractError if a later pass reaches it.
        """
        if self.data.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {self.data.shape}")
        if self._node is None:
            return  # no leaf on the tape feeds it
        order = _topo_order(self._node)
        self._node.grad = np.ones_like(self.data)
        # A node's first contribution is adopted without copying. A second is
        # summed in place into the first only when that array is fresh: not a
        # view, not the closure's own incoming gradient (which other nodes may
        # still hold) and not handed to another parent. Otherwise the sum goes
        # to a new buffer. Leaves copy at once since their grads outlive the pass.
        borrowed = set()
        for i in range(len(order) - 1, -1, -1):
            node = order[i]
            order[i] = None
            incoming = node.grad
            if node.backward is None or incoming is None:
                continue
            grads = node.backward(incoming)
            parents = node.parents
            node.grad, node.backward, node.parents = None, _spent, ()
            for parent, g in zip(parents, grads):
                if g is None or parent is None:
                    continue
                if parent.grad is None:
                    if parent.backward is None:
                        parent.grad = g.copy()  # leaves must own their buffers
                    else:
                        parent.grad = g
                        if g.base is not None or g is incoming or sum(h is g for h in grads) > 1:
                            borrowed.add(id(parent))
                elif id(parent) in borrowed:
                    parent.grad = parent.grad + g
                    borrowed.discard(id(parent))
                else:
                    parent.grad += g


def _spent(g):
    raise ContractError("backward reached a node of a graph that has already run backward; "
                        "run the forward again")


def _topo_order(root: _Node):
    # Iterative post-order DFS: a deep tape would exceed the recursion limit.
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p is not None and id(p) not in visited:
                stack.append((p, False))
    return order


def _make(data, parents, backward_fn):
    if _grad_enabled and any(p._node is not None for p in parents):
        return Tensor(data, True, parents, backward_fn)
    return Tensor(data)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Elementwise ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:  # numpy's own broadcast error
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not align") from None
    a_shape, b_shape = a.data.shape, b.data.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _make(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:  # numpy's own broadcast error
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not align") from None

    def bwd(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _make(out, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    s = a.dtype.type(s)
    out = a.data * s

    def bwd(g):
        return (g * s,)

    return _make(out, (a,), bwd)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU; backward differentiates the approximation
    exactly so finite-difference checks stay tight.

    Both passes run in place on one or two fresh arrays, and the tape keeps
    only t = tanh(c (x + k x^3)) beside the input.
    """
    c = a.dtype.type(math.sqrt(2.0 / math.pi))
    k = a.dtype.type(0.044715)
    x = a.data
    t = np.multiply(x, k)
    t *= x
    t *= x
    t += x
    t *= c
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5  # 0.5 x (1 + t)

    def bwd(g):
        # d/dx = 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 k x^2)
        dx = np.multiply(x, x)
        dx *= 3.0 * k
        dx += 1.0
        dx *= c
        sech2 = np.multiply(t, t)
        np.subtract(1.0, sech2, out=sech2)
        dx *= sech2
        dx *= x
        dx += t
        dx += 1.0
        dx *= 0.5
        dx *= g
        return (dx,)

    return _make(out, (a,), bwd)


# ---------------------------------------------------------------------------
# Linear algebra / shape ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.data.shape, b.data.shape
    if len(a_shape) < 2 or len(b_shape) < 2:
        raise ShapeError(f"matmul: operands {a_shape} and {b_shape} must be at least 2-D")
    if a_shape[-1] != b_shape[-2]:
        raise ShapeError(f"matmul: inner dims of {a_shape} and {b_shape} differ")
    k = a_shape[-1]
    if len(b_shape) == 2 and len(a_shape) > 2:
        # x @ weight: flatten the batch into one large GEMM
        n = b_shape[1]
        out = np.matmul(a.data.reshape(-1, k), b.data).reshape(*a_shape[:-1], n)

        def bwd(g):
            gflat = g.reshape(-1, n)
            ga = np.matmul(gflat, b.data.T).reshape(a_shape)
            gb = np.matmul(a.data.reshape(-1, k).T, gflat)
            return ga, gb

        return _make(out, (a, b), bwd)

    out = np.matmul(a.data, b.data)

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a_shape), _unbroadcast(gb, b_shape)

    return _make(out, (a, b), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    a_shape = a.data.shape
    out = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a_shape),)

    return _make(out, (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)
    out = np.transpose(a.data, axes)

    def bwd(g):
        return (np.transpose(g, inv),)

    return _make(out, (a,), bwd)


def concat(tensors, axis: int) -> Tensor:
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:  # numpy's own shape error
        shapes = ", ".join(str(t.shape) for t in tensors)
        raise ShapeError(f"concat: shapes {shapes} differ off axis {axis}") from None
    sizes = [t.shape[axis] for t in tensors]
    # plain ints: np.cumsum of a list leaves a varying number of small
    # cached allocations that tracemalloc counts as live
    splits = list(itertools.accumulate(sizes[:-1]))

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))  # views; backward adopts or adds

    return _make(out, tuple(tensors), bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along an axis."""
    a_shape = a.data.shape
    idx = [slice(None)] * len(a_shape)
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = np.ascontiguousarray(a.data[idx])

    def bwd(g):
        full = np.zeros(a_shape, dtype=g.dtype)
        full[idx] = g
        return (full,)

    return _make(out, (a,), bwd)


def index_select(a: Tensor, axis: int, indices) -> Tensor:
    """Gather along an axis with a 1-D integer index array."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1:
        raise ShapeError(f"index_select: indices must be 1-D, got shape {indices.shape}")
    out = np.take(a.data, indices, axis=axis)
    n = a.shape[axis]
    rows = indices % n if n else indices  # np.take wraps negative indices

    def bwd(g):
        return (_scatter_add(g, rows, n, axis),)

    return _make(out, (a,), bwd)


def _scatter_add(g: np.ndarray, indices: np.ndarray, n: int, axis: int) -> np.ndarray:
    """Sum the slices of g along axis into n slots, slice i into slot indices[i].

    index_select's backward, which in the library serves ``embedding``: the
    token ids of a batch repeat in any order, so their rows need a real
    scatter. One stable sort groups equal indices into runs; np.add.reduceat
    sums each run and one fancy assignment writes the distinct slots, so the
    work is vectorized per slot rather than looped per element. indices must
    lie in [0, n).
    """
    shape = list(g.shape)
    shape[axis] = n
    full = np.zeros(shape, dtype=g.dtype)
    if indices.size:
        order = np.argsort(indices, kind="stable")
        ordered = indices[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        idx = [slice(None)] * g.ndim
        idx[axis] = ordered[starts]
        full[tuple(idx)] = np.add.reduceat(np.take(g, order, axis=axis), starts, axis=axis)
    return full


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: ids [...] of ints into weight [V, E] -> [..., E]."""
    ids = np.asarray(ids, dtype=np.intp)
    # read as unsigned, a negative id lies past every row: one reduction checks both ends
    if ids.view(np.uintp).max(initial=0) >= weight.shape[0]:
        raise ShapeError(f"embedding: id out of range for table {weight.shape}")
    return reshape(index_select(weight, 0, ids.reshape(-1)), (*ids.shape, weight.shape[1]))


def sum_axis(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a_shape = a.data.shape
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a_shape).copy(),)
        gx = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gx, a_shape).copy(),)

    return _make(np.asarray(out, dtype=a.dtype), (a,), bwd)


# Attention's contractions as batched matmuls of each position's [D, E]
# rows. Per einsum_pair call, one BLAS thread, 2-CPU x86, float32, einsum ->
# matmul: score 0.44 -> 0.23 ms and weighted sum 0.46 -> 0.17 ms at
# [16, 256, 18, 32]; 0.140 -> 0.072 and 0.149 -> 0.057 ms at [1, 1024, 26, 32];
# 2.5 -> 2.0 us at one step, [1, 1, 22, 32]. The outer products stay on
# einsum: as broadcast multiplies they were slower.
_MATMUL_SPECS = {
    "blde,ble->bld": lambda a, b: np.matmul(a, b[..., None])[..., 0],
    "ble,blde->bld": lambda a, b: np.matmul(b, a[..., None])[..., 0],
    "bld,blde->ble": lambda a, b: np.matmul(a[..., None, :], b)[..., 0, :],
    "blde,bld->ble": lambda a, b: np.matmul(b[..., None, :], a)[..., 0, :],
}


def _einsum(spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    run = _MATMUL_SPECS.get(spec)
    return np.einsum(spec, a, b) if run is None else run(a, b)


def einsum_pair(spec: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand einsum with autodiff.

    Requires every index to appear at most once per operand (no within-operand
    traces), which makes each gradient another einsum with permuted specs.
    The contractions in ``_MATMUL_SPECS`` run as batched matmuls; every
    other spec, the outer products among them, runs numpy's plain einsum
    loop without ``optimize=True``, whose path planner ran on every call
    (22-31 us -> 3-5 us per einsum at one-token stepping shapes, one BLAS
    thread on a 2-CPU Xeon).
    """
    ins, out_spec = spec.split("->")
    a_spec, b_spec = ins.split(",")
    out = _einsum(spec, a.data, b.data)

    def bwd(g):
        ga = _einsum(f"{out_spec},{b_spec}->{a_spec}", g, b.data)
        gb = _einsum(f"{a_spec},{out_spec}->{b_spec}", a.data, g)
        return ga, gb

    return _make(out, (a, b), bwd)


def affine_masked(x: Tensor, w: Tensor, b: Tensor, keep: np.ndarray) -> Tensor:
    """(x @ w + b) with rows zeroed where keep is False, in one fused pass.

    keep broadcasts against the output's leading axes (a trailing length-1
    axis is appended internally). The unfused form would materialize three
    [B, L, D, 3E]-sized buffers; this writes one.
    """
    x_shape, n, b_shape = x.shape, w.shape[1], b.shape
    k = x_shape[-1]
    y = np.matmul(x.data.reshape(-1, k), w.data).reshape(*x_shape[:-1], n)
    maskf = np.asarray(keep, dtype=x.dtype)[..., None]
    try:
        if np.broadcast_shapes(maskf.shape, y.shape) != y.shape:
            raise ValueError
    except ValueError:
        raise ShapeError(f"affine_masked: mask {keep.shape} does not broadcast over {y.shape}") from None
    y += b.data
    y *= maskf

    def bwd(g):
        gm = g * maskf
        gflat = gm.reshape(-1, n)
        gx = np.matmul(gflat, w.data.T).reshape(x_shape)
        gw = np.matmul(x.data.reshape(-1, k).T, gflat)
        return gx, gw, _unbroadcast(gm, b_shape)

    return _make(y, (x, w, b), bwd)


# ---------------------------------------------------------------------------
# Masking / normalization
# ---------------------------------------------------------------------------

def masked_fill(a: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where mask is True with a constant (e.g. -inf)."""
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
    out = np.where(mask, a.dtype.type(value), a.data)

    def bwd(g):
        return (np.where(mask, 0.0, g),)

    return _make(out, (a,), bwd)


def softmax_last(a: Tensor) -> Tensor:
    """Softmax along the last axis; -inf entries map to exact zeros."""
    y = a.data - np.max(a.data, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = np.sum(g * y, axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _make(y, (a,), bwd)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then apply per-feature gain and bias."""
    if gain.shape != (a.shape[-1],) or bias.shape != (a.shape[-1],):
        raise ShapeError(f"layer_norm: params {gain.shape}/{bias.shape} vs features {a.shape[-1:]}")
    # sum / n is what ndarray.mean computes, without its Python-level wrapper
    n = a.shape[-1]
    centred = a.data - a.data.sum(axis=-1, keepdims=True) / n
    var = (centred * centred).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + a.dtype.type(LAYER_NORM_EPS))
    xhat = centred * inv
    out = xhat * gain.data + bias.data

    def bwd(g):
        gg = g * gain.data
        dx = inv * (gg - gg.mean(axis=-1, keepdims=True) - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        dgain = (g * xhat).reshape(-1, n).sum(axis=0)
        dbias = g.reshape(-1, n).sum(axis=0)
        return dx, dgain, dbias

    return _make(out, (a, gain, bias), bwd)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean token-level cross-entropy; logits [..., V], integer targets [...]."""
    targets = np.asarray(targets)
    shape = logits.shape
    if targets.shape != shape[:-1]:
        raise ShapeError(f"cross_entropy: targets {targets.shape} vs logits {shape}")
    flat = logits.data.reshape(-1, shape[-1])
    t = targets.reshape(-1)
    m = flat.max(axis=-1, keepdims=True)
    z = flat - m
    lse = np.log(np.exp(z).sum(axis=-1)) + m[:, 0]
    n = flat.shape[0]
    loss = (lse - flat[np.arange(n), t]).mean()

    def bwd(g):
        p = np.exp(flat - m)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(n), t] -= 1.0
        return ((g * p / n).reshape(shape),)

    return _make(np.asarray(loss, dtype=logits.dtype), (logits,), bwd)


# ---------------------------------------------------------------------------
# 1-D convolutions over the second-to-last axis (positions x channels)
# ---------------------------------------------------------------------------

def conv1d_k2s2(x: Tensor, w: Tensor) -> Tensor:
    """Kernel-2 stride-2 convolution: x [..., T, C], w [2, C, Co] -> [..., T/2, Co].

    Pairs (x[2j], x[2j+1]) map to w[0] @ x[2j] + w[1] @ x[2j+1], which is a
    [2C -> Co] linear layer on each concatenated pair: one matmul.
    """
    if x.shape[-2] % 2 != 0:
        raise ShapeError(f"conv1d_k2s2: position axis of {x.shape} must be even")
    if w.shape[0] != 2 or w.shape[1] != x.shape[-1]:
        raise ShapeError(f"conv1d_k2s2: weight {w.shape} vs input {x.shape}")
    *lead, t, c = x.shape
    return matmul(reshape(x, (*lead, t // 2, 2 * c)), reshape(w, (2 * c, w.shape[2])))


def conv_transpose1d(x: Tensor, w: Tensor) -> Tensor:
    """Stride-1 transposed convolution: x [..., T, C], w [K, C, Co] -> [..., T+K-1, Co]."""
    if w.shape[1] != x.shape[-1]:
        raise ShapeError(f"conv_transpose1d: weight {w.shape} vs input {x.shape}")
    K = w.shape[0]
    T = x.shape[-2]
    out = np.zeros((*x.shape[:-2], T + K - 1, w.shape[2]), dtype=x.dtype)
    for k in range(K):
        out[..., k:k + T, :] += np.matmul(x.data, w.data[k])

    def bwd(g):
        gx = np.zeros_like(x.data)
        gw = np.zeros_like(w.data)
        xflat = x.data.reshape(-1, x.data.shape[-1])
        for k in range(K):
            gk = g[..., k:k + T, :]
            gx += np.matmul(gk, w.data[k].T)
            gw[k] = xflat.T @ np.ascontiguousarray(gk).reshape(-1, g.shape[-1])
        return gx, gw

    return _make(out, (x, w), bwd)


# ---------------------------------------------------------------------------
# RNG and gradient checking
# ---------------------------------------------------------------------------

def make_rng(seed: int) -> np.random.Generator:
    """Deterministic PRNG (PCG64); identical seeds give identical streams."""
    return np.random.default_rng(seed)


def check_indexable(count: int, itemsize: int, what: str) -> None:
    """MemoryError for ``count`` items of ``itemsize`` bytes past the largest
    array numpy can index: numpy would refuse it with a ValueError, and no
    machine can allocate it."""
    if count * itemsize > np.iinfo(np.intp).max:
        raise MemoryError(f"{what}: {count} items of {itemsize} bytes are more than numpy can index")


def zeros(shape, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype))


def grad_check(f, params, eps: float = 1e-3) -> float:
    """Max relative error between tape gradients and central differences.

    f maps the list of parameter tensors to a scalar Tensor and must be
    deterministic. Error per coordinate is |analytic - numeric| divided by
    max(1e-8, |analytic| + |numeric|).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    for p in params:
        p.grad = None
    loss = f(params)
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    worst = 0.0
    for pi, p in enumerate(params):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            with no_grad():
                f_plus = f(params).item()
            flat[i] = orig - eps
            with no_grad():
                f_minus = f(params).item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = analytic[pi].reshape(-1)[i]
            if not (math.isfinite(numeric) and math.isfinite(a)):
                raise ContractError(f"grad_check: non-finite value at parameter {pi} coord {i}")
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if err > worst:
                worst = err
    return worst
