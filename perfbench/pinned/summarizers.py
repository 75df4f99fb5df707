"""Learnable pair-merging layers for tree memory construction.

Three summarizer families: a plain linear map on the concatenated pair, a
depthwise-separable convolution form, and the expander summarizer whose
merges widen slots so deeper levels keep more detail. All operate on an
"older first" concatenation order, declared once here and relied on by the
memory builders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import COUNTER
from .memory import CapacityError, MemoryTensor, levels_for
from .tensor import (
    Tensor,
    add,
    concat,
    conv1d_depthwise_k2s2,
    conv1d_k2s2,
    conv_transpose1d,
    index_select,
    masked_fill,
    matmul,
    narrow,
    reshape,
    uniform_init,
    zeros,
)


class LinearSummarizer:
    """weight [2E, E] applied to concat(older, newer), plus optional bias."""

    kind = "linear"

    def __init__(self, weight: Tensor, bias: Tensor | None = None):
        self.weight = weight
        self.bias = bias
        self.embed = weight.shape[1]

    @classmethod
    def init(cls, rng, embed: int, bias: bool = True, dtype=np.float32):
        w = uniform_init(rng, (2 * embed, embed), fan_in=2 * embed, dtype=dtype)
        b = uniform_init(rng, (embed,), fan_in=2 * embed, dtype=dtype) if bias else None
        return cls(w, b)

    def params(self) -> dict:
        out = {"weight": self.weight}
        if self.bias is not None:
            out["bias"] = self.bias
        return out

    def merge_pair(self, a: Tensor, b: Tensor) -> Tensor:
        """[*, E] x [*, E] -> [*, E]; a is the older node."""
        y = matmul(concat([a, b], axis=-1), self.weight)
        return add(y, self.bias) if self.bias is not None else y

    def merge_level(self, x: Tensor) -> Tensor:
        """[B, n, E] -> [B, n/2, E], merging adjacent (older, newer) pairs."""
        b, n, e = x.shape
        y = matmul(reshape(x, (b, n // 2, 2 * e)), self.weight)
        return add(y, self.bias) if self.bias is not None else y


class DsConvSummarizer:
    """Depthwise kernel-2 stride-2 over the pair axis, then pointwise mix."""

    kind = "dsconv"

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

    def params(self) -> dict:
        out = {"depthwise": self.depthwise, "pointwise": self.pointwise}
        if self.bias is not None:
            out["bias"] = self.bias
        return out

    def merge_level(self, x: Tensor) -> Tensor:
        """[..., n, E] -> [..., n/2, E]: depthwise over pairs, then pointwise."""
        y = matmul(conv1d_depthwise_k2s2(x, self.depthwise), self.pointwise)
        return add(y, self.bias) if self.bias is not None else y

    def merge_pair(self, a: Tensor, b: Tensor) -> Tensor:
        lead = a.shape[:-1]
        e = a.shape[-1]
        pair = concat([reshape(a, (*lead, 1, e)), reshape(b, (*lead, 1, e))], axis=-2)
        return reshape(self.merge_level(pair), a.shape)

    def as_linear_weight(self) -> np.ndarray:
        """The equivalent [2E, E] linear map (no bias): factorized form made explicit."""
        top = self.pointwise.data.T * self.depthwise.data[:, 0]
        bot = self.pointwise.data.T * self.depthwise.data[:, 1]
        return np.concatenate([top.T, bot.T], axis=0)


def expanded_slot_widths(n_levels: int, k: int) -> list[int]:
    """Slot width per level under expansion factor k: w_l = 1 + l*k.

    Total entries across levels is S + k*S*(S-1)/2.
    """
    if n_levels < 1:
        raise ValueError("need at least one level")
    if k < 0:
        raise ValueError("expansion factor must be non-negative")
    widths = [1 + level * k for level in range(n_levels)]
    assert sum(widths) == n_levels + k * n_levels * (n_levels - 1) // 2
    return widths


def expanded_slot_offsets(n_levels: int, k: int) -> list[int]:
    """Row offset of each level's span in the flattened memory (row 0 = current)."""
    widths = expanded_slot_widths(n_levels, k)
    offsets = [1]
    for w in widths[:-1]:
        offsets.append(offsets[-1] + w)
    return offsets


class ExpanderSummarizer:
    """Merges two width-w blocks into one width-(w+k) block.

    A kernel-2 stride-2 convolution over the slot axis condenses the
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

    def params(self) -> dict:
        return {"conv": self.conv_w, "expand": self.expand_w}

    def merge_blocks(self, left: Tensor, right: Tensor) -> Tensor:
        """[*, w, E] x [*, w, E] -> [*, w+k, E]; left is the older block."""
        if left.shape != right.shape:
            raise ValueError(f"block widths differ: {left.shape} vs {right.shape}")
        pair = concat([left, right], axis=-2)
        condensed = conv1d_k2s2(pair, self.conv_w)
        COUNTER.summarizer_ops += 1
        out = conv_transpose1d(condensed, self.expand_w)
        COUNTER.expander_ops += 1
        return out


@dataclass
class ExpanderSlotState:
    """Binary-counter state whose level-l slot is a [w_l, E] block."""

    slots: list
    consumed: int
    n_levels: int
    k: int

    @classmethod
    def fresh(cls, n_levels: int, k: int) -> "ExpanderSlotState":
        # extra entry for the full-tree root, as in SlotState
        return cls(slots=[None] * (n_levels + 1), consumed=0, n_levels=n_levels, k=k)

    def occupied(self, level: int) -> bool:
        return (self.consumed >> level) & 1 == 1


def push_token_expanded(state: ExpanderSlotState, x: Tensor, es: ExpanderSummarizer) -> ExpanderSlotState:
    """Carry chain over widening blocks; x is a [1, E] node."""
    if state.consumed >= (1 << state.n_levels):
        raise CapacityError(f"slot state full after {state.consumed} tokens ({state.n_levels} levels)")
    carry = x
    level = 0
    while state.occupied(level):
        carry = es.merge_blocks(state.slots[level], carry)
        state.slots[level] = None
        level += 1
    state.slots[level] = carry
    state.consumed += 1
    return state


def snapshot_expanded(state: ExpanderSlotState, x_current: Tensor) -> tuple[Tensor, np.ndarray]:
    """Flatten current token + occupied blocks into [D', E] with validity mask."""
    if state.consumed >= (1 << state.n_levels):
        raise CapacityError(f"no position {state.consumed} in a {state.n_levels}-level memory")
    widths = expanded_slot_widths(state.n_levels, state.k)
    e = x_current.shape[-1]
    rows = [reshape(x_current, (1, e))]
    valid = [np.ones(1, dtype=bool)]
    for level in range(state.n_levels):
        w = widths[level]
        if state.occupied(level):
            rows.append(state.slots[level])
            valid.append(np.ones(w, dtype=bool))
        else:
            rows.append(zeros((w, e), dtype=x_current.dtype))
            valid.append(np.zeros(w, dtype=bool))
    return concat(rows, axis=0), np.concatenate(valid)


def expanded_valid_mask(L: int, n_levels: int, k: int) -> np.ndarray:
    """Mask [L, D'] whose level-l span is on iff bit l of t is set."""
    widths = expanded_slot_widths(n_levels, k)
    d_total = 1 + sum(widths)
    mask = np.zeros((L, d_total), dtype=bool)
    mask[:, 0] = True
    t = np.arange(L, dtype=np.int64)
    col = 1
    for level, w in enumerate(widths):
        on = ((t >> level) & 1) == 1
        mask[:, col:col + w] = on[:, None]
        col += w
    return mask


def sequential_expanded_memory(x: Tensor, es: ExpanderSummarizer, n_levels: int | None = None) -> MemoryTensor:
    """Iterative expander construction: snapshot, then push, per position."""
    from .memory import narrow_position

    b, L, e = x.shape
    if n_levels is None:
        n_levels = levels_for(L)
    if L > (1 << n_levels):
        raise CapacityError(f"sequence length {L} exceeds capacity 2^{n_levels}")
    d_total = 1 + sum(expanded_slot_widths(n_levels, es.k))
    per_batch = []
    for bi in range(b):
        state = ExpanderSlotState.fresh(n_levels, es.k)
        rows = []
        for t in range(L):
            xt = narrow_position(x, bi, t)
            row, _ = snapshot_expanded(state, xt)
            rows.append(reshape(row, (1, 1, d_total, e)))
            push_token_expanded(state, xt, es)
        per_batch.append(concat(rows, axis=1))
    data = concat(per_batch, axis=0) if b > 1 else per_batch[0]
    return MemoryTensor(data=data, valid=expanded_valid_mask(L, n_levels, es.k))


def parallel_expanded_memory(x: Tensor, es: ExpanderSummarizer, n_levels: int | None = None) -> MemoryTensor:
    """Pyramid of widening blocks plus closed-form gather; equals sequential."""
    b, L, e = x.shape
    if n_levels is None:
        n_levels = levels_for(L)
    if L > (1 << n_levels):
        raise CapacityError(f"sequence length {L} exceeds capacity 2^{n_levels}")
    L_pad = 1 << n_levels
    if L < L_pad:
        x = concat([x, zeros((b, L_pad - L, e), dtype=x.dtype)], axis=1)

    widths = expanded_slot_widths(n_levels, es.k)
    # levels[l]: [B, L_pad >> l, w_l, E] blocks
    cur = reshape(x, (b, L_pad, 1, e))
    levels = [cur]
    for level in range(n_levels):
        nblk, w = cur.shape[1], cur.shape[2]
        paired = reshape(cur, (b, nblk // 2, 2 * w, e))
        condensed = conv1d_k2s2(paired, es.conv_w)
        COUNTER.summarizer_ops += nblk // 2
        cur = conv_transpose1d(condensed, es.expand_w)
        COUNTER.expander_ops += nblk // 2
        levels.append(cur)

    t = np.arange(L, dtype=np.int64)
    mask = expanded_valid_mask(L, n_levels, es.k)
    parts = [reshape(narrow(levels[0], 1, 0, L), (b, L, 1, e))]
    col = 1
    for level in range(n_levels):
        w = widths[level]
        idx = 2 * (t >> (level + 1))
        picked = index_select(levels[level], 1, idx)  # [B, L, w, E]
        span_mask = mask[:, col:col + w]
        picked = masked_fill(picked, ~span_mask[None, :, :, None], 0.0)
        parts.append(picked)
        col += w
    return MemoryTensor(data=concat(parts, axis=2), valid=mask)


def build_expanded_memory(x: Tensor, es: ExpanderSummarizer, mode: str = "parallel",
                          n_levels: int | None = None) -> MemoryTensor:
    if mode == "parallel":
        return parallel_expanded_memory(x, es, n_levels)
    if mode == "sequential":
        return sequential_expanded_memory(x, es, n_levels)
    raise ValueError(f"unknown mode {mode!r}")


def build_memory(x: Tensor, summarizer, mode: str = "parallel", n_levels: int | None = None) -> MemoryTensor:
    """Dispatch: plain summarizers use the width-1 tree, expanders the widened one."""
    from .memory import parallel_memory, sequential_memory

    if isinstance(summarizer, ExpanderSummarizer):
        return build_expanded_memory(x, summarizer, mode, n_levels)
    if mode == "parallel":
        return parallel_memory(x, summarizer, n_levels)
    if mode == "sequential":
        return sequential_memory(x, summarizer, n_levels)
    raise ValueError(f"unknown mode {mode!r}")
