"""Learnable pair-merging layers for the block tree in ``memory.py``.

Every summarizer has an expansion factor ``k`` and one contract: it merges
two width-w blocks, the older first, into one width-(w+k) block, either one
pair at a time (``merge_pair([*, w, E], [*, w, E]) -> [*, w+k, E]``) or
every adjacent pair of a pyramid level at once
(``merge_level([B, n, w, E]) -> [B, n/2, w+k, E]``). The k = 0 summarizers
keep every block one row wide and are one linear merge, a [2E, E] weight
applied to the concatenated pair: the linear summarizer holds that weight,
and the depthwise-separable convolution builds it as depthwise x pointwise.
The expander summarizer widens blocks by k rows per merge, so a level-l
block holds w_l = 1 + l*k rows and deeper levels keep more detail.

A summarizer holds the tensors it is given; they come from the model's
parameter schema (``model.param_schema`` -> ``init_params`` ->
``build_model``), the one place a weight is made. The linear and dsconv
bias is optional because ``model.summarizer_bias=False`` builds them
without one.

The tree itself (carry chain, snapshot, validity mask, pyramid, gather) is
written once in ``memory.py`` for every summarizer, and holds all of a
block's banks at once: each function below takes the block's summarizers,
one per bank. The expander still enters it through three named functions
below, each a plain delegation: ``parallel_expanded_memory`` is its range
read of the row table that ``build_pyramid`` returns (``gather_memory``),
and ``push_token_expanded`` and ``snapshot_expanded`` are its steps. The
benchmark's per-layer traces report expander time under those names, and
``model.LmnBlock`` picks them for the expander.
"""

from __future__ import annotations

from .counters import COUNTER
from .memory import (
    MemoryTensor,
    RowTable,
    gather_memory,
    push_token,
    snapshot,
)
from .tensor import (
    Tensor,
    add,
    concat,
    conv1d_k2s2,
    conv_transpose1d,
    einsum_pair,
    matmul,
    reshape,
)


class LinearSummarizer:
    """weight [2E, E] applied to concat(older, newer), plus optional bias."""

    k = 0

    def __init__(self, weight: Tensor, bias: Tensor | None = None):
        self.weight = weight
        self.bias = bias

    def merge_pair(self, a: Tensor, b: Tensor) -> Tensor:
        """[*, 1, E] x [*, 1, E] -> [*, 1, E]; a is the older block."""
        y = matmul(concat([a, b], axis=-1), self.weight)
        return add(y, self.bias) if self.bias is not None else y

    def merge_level(self, x: Tensor) -> Tensor:
        """[B, n, 1, E] -> [B, n/2, 1, E], merging adjacent (older, newer) pairs."""
        b, n, _, e = x.shape
        y = matmul(reshape(x, (b, n // 2, 1, 2 * e)), self.weight)
        return add(y, self.bias) if self.bias is not None else y


class DsConvSummarizer(LinearSummarizer):
    """Depthwise kernel-2 stride-2 over the pair axis, then pointwise mix.

    That is the linear merge with a factored weight: depthwise d [E, 2] and
    pointwise P [E, E] give ``weight = [diag(d[:, 0]) P; diag(d[:, 1]) P]``.
    The weight is rebuilt from d and P on every merge, so gradients reach
    both factors and each merge reads their current data. The merges are
    bound here too, because the benchmark's tracer wraps them by this
    class's name.
    """

    merge_pair = LinearSummarizer.merge_pair
    merge_level = LinearSummarizer.merge_level

    def __init__(self, depthwise: Tensor, pointwise: Tensor, bias: Tensor | None = None):
        self.depthwise = depthwise  # [E, 2]
        self.pointwise = pointwise  # [E, E]
        self.bias = bias

    @property
    def weight(self) -> Tensor:
        e = self.pointwise.shape[0]
        return reshape(einsum_pair("ec,ef->cef", self.depthwise, self.pointwise), (2 * e, e))


class ExpanderSummarizer:
    """Merges two width-w blocks into one width-(w+k) block.

    A kernel-2 stride-2 convolution over the row axis condenses the
    concatenated pair [2w, E] -> [w, E]; a stride-1 transposed convolution
    with kernel k+1 then widens it to [w+k, E].
    """

    def __init__(self, conv_w: Tensor, expand_w: Tensor, k: int):
        self.conv_w = conv_w      # [2, E, E]
        self.expand_w = expand_w  # [k+1, E, E]
        self.k = k

    def merge_level(self, x: Tensor) -> Tensor:
        """[B, n, w, E] -> [B, n/2, w+k, E], merging adjacent (older, newer) blocks."""
        b, n, w, e = x.shape
        COUNTER.expander_ops += n // 2
        return self._condense_expand(reshape(x, (b, n // 2, 2 * w, e)))

    def merge_pair(self, a: Tensor, b: Tensor) -> Tensor:
        return self.merge_blocks(a, b)

    def merge_blocks(self, left: Tensor, right: Tensor) -> Tensor:
        """[*, w, E] x [*, w, E] -> [*, w+k, E]; left is the older block."""
        if left.shape != right.shape:
            raise ValueError(f"block widths differ: {left.shape} vs {right.shape}")
        COUNTER.expander_ops += 1
        return self._condense_expand(concat([left, right], axis=-2))

    def _condense_expand(self, pair: Tensor) -> Tensor:
        return conv_transpose1d(conv1d_k2s2(pair, self.conv_w), self.expand_w)


def parallel_expanded_memory(table: RowTable, start: int, stop: int) -> MemoryTensor:
    return gather_memory(table, start, stop)


def push_token_expanded(state, x, summarizers):
    return push_token(state, x, summarizers)


def snapshot_expanded(state, x_current):
    return snapshot(state, x_current)
