"""Dense float tensors with reverse-mode automatic differentiation.

Every forward op records a node on a dynamic tape (parent links plus a
backward closure); ``backward`` replays the tape in reverse topological
order. Compute precision is float32 by default; passing float64 arrays
through the same ops gives a 64-bit mode used for tight gradient checks.

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


class ShapeError(ValueError):
    """Operand shapes cannot be combined by the requested op."""


class ContractError(RuntimeError):
    """An op was called outside its contract (e.g. backward on a non-scalar)."""


# ---------------------------------------------------------------------------
# Allocation accounting.
#
# The benchmark harness measures "peak allocated bytes" as the peak of live
# tensor buffers created through this engine (views excluded), not OS RSS.
# Buffers are registered at construction and released by ``Tensor.__del__``,
# so under CPython refcounting the counter tracks live memory deterministically.
# ---------------------------------------------------------------------------

class AllocCounter:
    def __init__(self):
        self.live_bytes = 0
        self.peak_bytes = 0

    def add(self, nbytes: int):
        self.live_bytes += nbytes
        if self.live_bytes > self.peak_bytes:
            self.peak_bytes = self.live_bytes

    def release(self, nbytes: int):
        self.live_bytes -= nbytes

    def reset_peak(self):
        self.peak_bytes = self.live_bytes


ALLOC = AllocCounter()

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


def is_grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    """N-dimensional float array, optionally recorded on the autodiff tape.

    Data is immutable once the tensor participates in recorded ops; only the
    ``grad`` buffer is written after the fact. Calling backward twice without
    zeroing grads accumulates (documented behaviour, used for shared weights).
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_owned_bytes")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        if isinstance(data, (np.ndarray, np.generic)):
            data = np.asarray(data)  # 0-d ops return numpy scalars; keep their dtype
            if data.dtype not in (np.float32, np.float64):
                data = data.astype(DEFAULT_DTYPE)
        else:
            data = np.asarray(data, dtype=DEFAULT_DTYPE)
        self.data = data
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        # owns its buffer; views are not re-counted. Kept apart from data,
        # which checkpoint loading and astype reassign.
        self._owned_bytes = data.nbytes if data.base is None else 0
        ALLOC.add(self._owned_bytes)

    def __del__(self):
        ALLOC.release(self._owned_bytes)

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

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype), requires_grad=self.requires_grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- autodiff -----------------------------------------------------------

    def backward(self):
        """Reverse-mode pass from this scalar; populates grads of every
        requires_grad tensor on the tape that feeds it."""
        if self.data.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {self.data.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        # First contribution to a node is adopted without copying (it may be
        # a view of the child's grad, which is dead by then); the second
        # switches to an owned buffer. Leaves copy immediately since their
        # grads outlive the pass.
        borrowed = set()
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            grads = node._backward(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    if parent._backward is None:
                        parent.grad = g.copy()  # leaves must own their buffers
                    else:
                        parent.grad = g
                        borrowed.add(id(parent))
                elif id(parent) in borrowed:
                    parent.grad = parent.grad + g
                    borrowed.discard(id(parent))
                else:
                    parent.grad += g


def _topo_order(root: Tensor):
    # Iterative post-order DFS; sequential-mode tapes can be deep.
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
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _make(data, parents, backward_fn):
    requires = _grad_enabled and any(p.requires_grad for p in parents)
    if requires:
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward_fn)
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


def _check_broadcast(a: Tensor, b: Tensor, opname: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} do not align") from None


# ---------------------------------------------------------------------------
# Elementwise ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")
    out = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    out = a.data * b.data

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * a.dtype.type(s)

    def bwd(g):
        return (g * a.dtype.type(s),)

    return _make(out, (a,), bwd)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU; backward differentiates the approximation
    exactly so finite-difference checks stay tight."""
    c = a.dtype.type(math.sqrt(2.0 / math.pi))
    k = a.dtype.type(0.044715)
    x = a.data
    inner = c * (x + k * x * x * x)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def bwd(g):
        dinner = c * (1.0 + 3.0 * k * x * x)
        dt = (1.0 - t * t) * dinner
        return (g * (0.5 * (1.0 + t) + 0.5 * x * dt),)

    return _make(out, (a,), bwd)


# ---------------------------------------------------------------------------
# Linear algebra / shape ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeError(f"matmul: inner dims of {a.shape} and {b.shape} differ")
    k = a.shape[-1]
    if b.ndim == 2 and a.ndim > 2:
        # x @ weight: flatten the batch into one large GEMM
        out = np.matmul(a.data.reshape(-1, k), b.data).reshape(*a.shape[:-1], b.shape[1])

        def bwd(g):
            gflat = g.reshape(-1, b.shape[1])
            ga = np.matmul(gflat, b.data.T).reshape(a.shape)
            gb = np.matmul(a.data.reshape(-1, k).T, gflat)
            return ga, gb

        return _make(out, (a, b), bwd)

    out = np.matmul(a.data, b.data)

    def bwd(g):
        if b.ndim == 1:
            ga = np.outer(g, b.data).reshape(a.shape) if a.ndim > 1 else g * b.data
            gb = np.matmul(a.data.reshape(-1, k).T, g.reshape(-1))
            return ga, gb
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _make(out, (a, b), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.shape),)

    return _make(out, (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)
    out = np.transpose(a.data, axes)

    def bwd(g):
        return (np.transpose(g, inv),)

    return _make(out, (a,), bwd)


def concat(tensors, axis: int) -> Tensor:
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != len(base) or any(
            i != axis % len(base) and other[i] != base[i] for i in range(len(base))
        ):
            raise ShapeError(f"concat: shapes {tensors[0].shape} and {t.shape} differ off axis {axis}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    # plain ints: np.cumsum of a list leaves a varying number of small
    # cached allocations that tracemalloc counts as live
    splits = list(itertools.accumulate(sizes[:-1]))

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))  # views; backward adopts or adds

    return _make(out, tuple(tensors), bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along an axis."""
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = np.ascontiguousarray(a.data[idx])

    def bwd(g):
        full = np.zeros_like(a.data)
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

    One stable sort groups equal indices into runs; np.add.reduceat sums each
    run and one fancy assignment writes the distinct slots, so the work is
    vectorized per slot rather than looped per element. indices must lie in
    [0, n).
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
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= weight.shape[0]):
        raise ShapeError(f"embedding: id out of range for table {weight.shape}")
    out = weight.data[ids.reshape(-1)].reshape(*ids.shape, weight.shape[1])

    def bwd(g):
        return (_scatter_add(g.reshape(-1, weight.shape[1]), ids.reshape(-1), weight.shape[0], 0),)

    return _make(out, (weight,), bwd)


def sum_axis(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gx = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gx, a.shape).copy(),)

    return _make(np.asarray(out, dtype=a.dtype), (a,), bwd)


def einsum_pair(spec: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand einsum with autodiff.

    Requires every index to appear at most once per operand (no within-operand
    traces), which makes each gradient another einsum with permuted specs.
    """
    ins, out_spec = spec.split("->")
    a_spec, b_spec = ins.split(",")
    out = np.einsum(spec, a.data, b.data, optimize=True)

    def bwd(g):
        ga = np.einsum(f"{out_spec},{b_spec}->{a_spec}", g, b.data, optimize=True)
        gb = np.einsum(f"{a_spec},{out_spec}->{b_spec}", a.data, g, optimize=True)
        return ga, gb

    return _make(out, (a, b), bwd)


def affine_masked(x: Tensor, w: Tensor, b: Tensor | None, keep: np.ndarray) -> Tensor:
    """(x @ w + b) with rows zeroed where keep is False, in one fused pass.

    keep broadcasts against the output's leading axes (a trailing length-1
    axis is appended internally). The unfused form would materialize three
    [B, L, D, 3E]-sized buffers; this writes one.
    """
    k = x.shape[-1]
    y = np.matmul(x.data.reshape(-1, k), w.data).reshape(*x.shape[:-1], w.shape[1])
    maskf = np.asarray(keep, dtype=x.dtype)[..., None]
    try:
        if np.broadcast_shapes(maskf.shape, y.shape) != y.shape:
            raise ValueError
    except ValueError:
        raise ShapeError(f"affine_masked: mask {keep.shape} does not broadcast over {y.shape}") from None
    if b is not None:
        y += b.data
    y *= maskf

    def bwd(g):
        gm = g * maskf
        gflat = gm.reshape(-1, w.shape[1])
        gx = np.matmul(gflat, w.data.T).reshape(x.shape)
        gw = np.matmul(x.data.reshape(-1, k).T, gflat)
        grads = [gx, gw]
        if b is not None:
            grads.append(_unbroadcast(gm, b.shape))
        return tuple(grads)

    parents = (x, w) if b is None else (x, w, b)
    return _make(y, parents, bwd)


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
    m = np.max(a.data, axis=-1, keepdims=True)
    e = np.exp(a.data - m)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = np.sum(g * y, axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _make(y, (a,), bwd)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply per-feature gain and bias."""
    if gain.shape != (a.shape[-1],) or bias.shape != (a.shape[-1],):
        raise ShapeError(f"layer_norm: params {gain.shape}/{bias.shape} vs features {a.shape[-1:]}")
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + a.dtype.type(eps))
    xhat = (a.data - mu) * inv
    out = xhat * gain.data + bias.data

    def bwd(g):
        gg = g * gain.data
        n = a.shape[-1]
        dx = inv * (gg - gg.mean(axis=-1, keepdims=True) - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        dgain = (g * xhat).reshape(-1, n).sum(axis=0)
        dbias = g.reshape(-1, n).sum(axis=0)
        return dx, dgain, dbias

    return _make(out, (a, gain, bias), bwd)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean token-level cross-entropy; logits [..., V], integer targets [...]."""
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(f"cross_entropy: targets {targets.shape} vs logits {logits.shape}")
    flat = logits.data.reshape(-1, logits.shape[-1])
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
        return ((g * p / n).reshape(logits.shape),)

    return _make(np.asarray(loss, dtype=logits.dtype), (logits,), bwd)


# ---------------------------------------------------------------------------
# 1-D convolutions over the second-to-last axis (positions x channels)
# ---------------------------------------------------------------------------

def conv1d_k2s2(x: Tensor, w: Tensor) -> Tensor:
    """Kernel-2 stride-2 convolution: x [..., T, C], w [2, C, Co] -> [..., T/2, Co].

    Pairs (x[2j], x[2j+1]) map to w[0] @ x[2j] + w[1] @ x[2j+1]; equivalent
    to a [2C -> Co] linear layer on each concatenated pair.
    """
    if x.shape[-2] % 2 != 0:
        raise ShapeError(f"conv1d_k2s2: position axis of {x.shape} must be even")
    if w.shape[0] != 2 or w.shape[1] != x.shape[-1]:
        raise ShapeError(f"conv1d_k2s2: weight {w.shape} vs input {x.shape}")
    xe = x.data[..., 0::2, :]
    xo = x.data[..., 1::2, :]
    out = np.matmul(xe, w.data[0]) + np.matmul(xo, w.data[1])

    def bwd(g):
        gx = np.empty_like(x.data)
        gx[..., 0::2, :] = np.matmul(g, w.data[0].T)
        gx[..., 1::2, :] = np.matmul(g, w.data[1].T)
        gflat = g.reshape(-1, g.shape[-1])
        gw = np.stack([
            xe.reshape(-1, x.shape[-1]).T @ gflat,
            xo.reshape(-1, x.shape[-1]).T @ gflat,
        ])
        return gx, gw

    return _make(out, (x, w), bwd)


def conv1d_depthwise_k2s2(x: Tensor, w: Tensor) -> Tensor:
    """Per-channel kernel-2 stride-2 convolution: x [..., T, C], w [C, 2]."""
    if x.shape[-2] % 2 != 0:
        raise ShapeError(f"conv1d_depthwise_k2s2: position axis of {x.shape} must be even")
    if w.shape != (x.shape[-1], 2):
        raise ShapeError(f"conv1d_depthwise_k2s2: weight {w.shape} vs input {x.shape}")
    xe = x.data[..., 0::2, :]
    xo = x.data[..., 1::2, :]
    out = xe * w.data[:, 0] + xo * w.data[:, 1]

    def bwd(g):
        gx = np.empty_like(x.data)
        gx[..., 0::2, :] = g * w.data[:, 0]
        gx[..., 1::2, :] = g * w.data[:, 1]
        gw = np.stack([
            (g * xe).reshape(-1, x.shape[-1]).sum(axis=0),
            (g * xo).reshape(-1, x.shape[-1]).sum(axis=0),
        ], axis=1)
        return gx, gw

    return _make(out, (x, w), bwd)


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
        xflat = x.data.reshape(-1, x.shape[-1])
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


def uniform_init(rng: np.random.Generator, shape, fan_in: int, dtype=DEFAULT_DTYPE) -> Tensor:
    """Weights drawn uniformly in +/- 1/sqrt(fan_in)."""
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True)


def zeros(shape, dtype=DEFAULT_DTYPE, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


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
