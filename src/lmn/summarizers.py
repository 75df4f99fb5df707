"""Learnable pair-merging layers for the block tree in ``memory.py``.

Every summarizer has an expansion factor ``k`` and one contract: it merges
two width-w blocks, the older first, into one width-(w+k) block, either one
pair at a time (``merge_pair([*, w, E], [*, w, E]) -> [*, w+k, E]``) or
every adjacent pair of a pyramid level at once
(``merge_level([B, n, w, E]) -> [B, n/2, w+k, E]``). The plain linear map
and the depthwise-separable convolution keep every block one row wide
(k = 0); the expander summarizer widens blocks by k rows per merge, so a
level-l block holds w_l = 1 + l*k rows and deeper levels keep more detail.

The tree itself (carry chain, snapshot, validity mask, pyramid, gather) is
written once in ``memory.py`` for every summarizer. The expander still
enters it through three named functions below, ``parallel_expanded_memory``,
``push_token_expanded`` and ``snapshot_expanded``, each a plain delegation:
the benchmark's per-layer traces report expander time under those names.
"""

from __future__ import annotations

import numpy as np

from .counters import COUNTER
from .memory import (  # the expanded_* names are re-exports under their former names
    parallel_memory,
    push_token,
    sequential_memory,
    slot_widths as expanded_slot_widths,
    snapshot,
    valid_mask as expanded_valid_mask,
)
from .tensor import (
    Tensor,
    add,
    concat,
    conv1d_depthwise_k2s2,
    conv1d_k2s2,
    conv_transpose1d,
    matmul,
    reshape,
    uniform_init,
)


class LinearSummarizer:
    """weight [2E, E] applied to concat(older, newer), plus optional bias."""

    kind = "linear"
    k = 0

    def __init__(self, weight: Tensor, bias: Tensor | None = None):
        self.weight = weight
        self.bias = bias
        self.embed = weight.shape[1]

    @classmethod
    def init(cls, rng, embed: int, bias: bool = True, dtype=np.float32):
        w = uniform_init(rng, (2 * embed, embed), fan_in=2 * embed, dtype=dtype)
        b = uniform_init(rng, (embed,), fan_in=2 * embed, dtype=dtype) if bias else None
        return cls(w, b)

    def merge_pair(self, a: Tensor, b: Tensor) -> Tensor:
        """[*, 1, E] x [*, 1, E] -> [*, 1, E]; a is the older block."""
        y = matmul(concat([a, b], axis=-1), self.weight)
        return add(y, self.bias) if self.bias is not None else y

    def merge_level(self, x: Tensor) -> Tensor:
        """[B, n, 1, E] -> [B, n/2, 1, E], merging adjacent (older, newer) pairs."""
        b, n, _, e = x.shape
        y = matmul(reshape(x, (b, n // 2, 1, 2 * e)), self.weight)
        return add(y, self.bias) if self.bias is not None else y


class DsConvSummarizer:
    """Depthwise kernel-2 stride-2 over the pair axis, then pointwise mix."""

    kind = "dsconv"
    k = 0

    def __init__(self, depthwise: Tensor, pointwise: Tensor, bias: Tensor | None = None):
        self.depthwise = depthwise  # [E, 2]
        self.pointwise = pointwise  # [E, E]
        self.bias = bias
        self.embed = pointwise.shape[0]

    @classmethod
    def init(cls, rng, embed: int, bias: bool = True, dtype=np.float32):
        dw = uniform_init(rng, (embed, 2), fan_in=2, dtype=dtype)
        pw = uniform_init(rng, (embed, embed), fan_in=embed, dtype=dtype)
        b = uniform_init(rng, (embed,), fan_in=embed, dtype=dtype) if bias else None
        return cls(dw, pw, b)

    def merge_level(self, x: Tensor) -> Tensor:
        """[B, n, 1, E] -> [B, n/2, 1, E]: depthwise over each pair, then pointwise."""
        b, n, _, e = x.shape
        return self._merge(reshape(x, (b, n // 2, 2, e)))

    def merge_pair(self, a: Tensor, b: Tensor) -> Tensor:
        """[*, 1, E] x [*, 1, E] -> [*, 1, E]; a is the older block."""
        return self._merge(concat([a, b], axis=-2))

    def _merge(self, pair: Tensor) -> Tensor:
        y = matmul(conv1d_depthwise_k2s2(pair, self.depthwise), self.pointwise)
        return add(y, self.bias) if self.bias is not None else y

    def as_linear_weight(self) -> np.ndarray:
        """The equivalent [2E, E] linear map (no bias): factorized form made explicit."""
        top = self.pointwise.data.T * self.depthwise.data[:, 0]
        bot = self.pointwise.data.T * self.depthwise.data[:, 1]
        return np.concatenate([top.T, bot.T], axis=0)


class ExpanderSummarizer:
    """Merges two width-w blocks into one width-(w+k) block.

    A kernel-2 stride-2 convolution over the row axis condenses the
    concatenated pair [2w, E] -> [w, E]; a stride-1 transposed convolution
    with kernel k+1 then widens it to [w+k, E].
    """

    kind = "expander"

    def __init__(self, conv_w: Tensor, expand_w: Tensor, k: int):
        self.conv_w = conv_w      # [2, E, E]
        self.expand_w = expand_w  # [k+1, E, E]
        self.k = k
        self.embed = conv_w.shape[1]

    @classmethod
    def init(cls, rng, embed: int, k: int, dtype=np.float32):
        cw = uniform_init(rng, (2, embed, embed), fan_in=2 * embed, dtype=dtype)
        ew = uniform_init(rng, (k + 1, embed, embed), fan_in=embed, dtype=dtype)
        return cls(cw, ew, k)

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


def parallel_expanded_memory(x, es: ExpanderSummarizer, n_levels: int | None = None):
    return parallel_memory(x, es, n_levels)


def push_token_expanded(state, x, es: ExpanderSummarizer):
    return push_token(state, x, es)


def snapshot_expanded(state, x_current):
    return snapshot(state, x_current)


def build_memory(x: Tensor, summarizer, mode: str = "parallel", n_levels: int | None = None):
    """One bank's memory, built in parallel or sequentially on the shared tree."""
    if mode == "parallel":
        build = parallel_expanded_memory if summarizer.kind == "expander" else parallel_memory
    elif mode == "sequential":
        build = sequential_memory
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return build(x, summarizer, n_levels)
