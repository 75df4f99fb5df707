"""Logarithmic tree memory: one block tree, built two ways that must agree.

Slot l summarizes 2^l consecutive past tokens as a [w_l, E] block with
w_l = 1 + l*k, where k is the summarizer's expansion factor: 0 for the
linear and dsconv summarizers (every block is one row), k for the expander
(deeper blocks keep more rows). Every summarizer merges two width-w blocks,
older first, into one width-(w+k) block, either one pair at a time
(``merge_pair``) or a whole pyramid level at once (``merge_level``).

Sequential mode runs a binary counter: slot l is occupied iff bit l of the
consumed count is set, and pushing a token triggers the carry chain of
merges. Parallel mode builds the full pyramid of pair summaries bottom-up,
then gathers each position's slot contents with closed-form block indices.
Both produce a [B, L, D, E] memory (row 0 = current token, then the w_l
rows of each slot in level order, D = 1 + sum_l w_l) with an [L, D]
validity mask; invalid rows are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import COUNTER
from .tensor import Tensor, concat, index_select, masked_fill, narrow, reshape, zeros


class CapacityError(RuntimeError):
    """Sequence exceeded the 2^S token capacity of the slot state."""


def levels_for(max_seq_len: int) -> int:
    """Number of slot levels S = ceil(log2(max_seq_len))."""
    if max_seq_len < 1:
        raise ValueError("max_seq_len must be positive")
    return max(1, int(np.ceil(np.log2(max_seq_len))))


def slot_widths(n_levels: int, k: int = 0) -> list[int]:
    """Block width per level under expansion factor k: w_l = 1 + l*k.

    Total rows across levels is S + k*S*(S-1)/2.
    """
    if n_levels < 1:
        raise ValueError("need at least one level")
    if k < 0:
        raise ValueError("expansion factor must be non-negative")
    widths = [1 + level * k for level in range(n_levels)]
    assert sum(widths) == n_levels + k * n_levels * (n_levels - 1) // 2
    return widths


@dataclass
class SlotState:
    """Binary-counter memory state: one optional block per level.

    slots[l] is a [1 + l*k, E] tensor when occupied (bit l of consumed set)
    else None. Single-owner mutable; the recurrent state during generation.
    """

    slots: list
    consumed: int
    n_levels: int
    k: int

    @classmethod
    def fresh(cls, n_levels: int, k: int = 0) -> "SlotState":
        # one extra entry: the final push of a full sequence writes the tree
        # root at level S, which snapshots never read
        return cls(slots=[None] * (n_levels + 1), consumed=0, n_levels=n_levels, k=k)

    def occupied(self, level: int) -> bool:
        return (self.consumed >> level) & 1 == 1


def push_token(state: SlotState, x: Tensor, summarizer) -> SlotState:
    """Push one [1, E] node through the carry chain, mutating the state.

    Merges always take the older block first; the final carry lands in the
    first empty level.
    """
    if state.consumed >= (1 << state.n_levels):
        raise CapacityError(f"slot state full after {state.consumed} tokens ({state.n_levels} levels)")
    carry = x
    level = 0
    while state.occupied(level):
        carry = summarizer.merge_pair(state.slots[level], carry)
        COUNTER.summarizer_ops += 1
        state.slots[level] = None
        level += 1
    state.slots[level] = carry
    state.consumed += 1
    return state


def snapshot(state: SlotState, x_current: Tensor) -> tuple[Tensor, np.ndarray]:
    """Assemble the [D, E] memory row seen by position t = state.consumed.

    Row 0 is the current token ([1, E]); then each level's block, or zeros.
    """
    if state.consumed >= (1 << state.n_levels):
        raise CapacityError(f"no position {state.consumed} in a {state.n_levels}-level memory")
    e = x_current.shape[-1]
    widths = slot_widths(state.n_levels, state.k)
    rows = [x_current]
    valid = np.zeros(1 + sum(widths), dtype=bool)
    valid[0] = True
    col = 1
    for level, w in enumerate(widths):
        if state.occupied(level):
            rows.append(state.slots[level])
            valid[col:col + w] = True
        else:
            rows.append(zeros((w, e), dtype=x_current.dtype))
        col += w
    return concat(rows, axis=0), valid


@dataclass
class MemoryTensor:
    """Per-position memory: data [B, L, D, E], validity mask [L, D]."""

    data: Tensor
    valid: np.ndarray


def valid_mask(L: int, n_levels: int, k: int = 0) -> np.ndarray:
    """Mask [L, D]: row 0 always valid, level l's w_l rows iff bit l of t set."""
    t = np.arange(L, dtype=np.int64)
    widths = slot_widths(n_levels, k)
    mask = np.zeros((L, 1 + sum(widths)), dtype=bool)
    mask[:, 0] = True
    col = 1
    for level, w in enumerate(widths):
        mask[:, col:col + w] = (((t >> level) & 1) == 1)[:, None]
        col += w
    return mask


def sequential_memory(x: Tensor, summarizer, n_levels: int | None = None) -> MemoryTensor:
    """Iterative construction: snapshot position t, then push x_t."""
    b, L, e = x.shape
    if n_levels is None:
        n_levels = levels_for(L)
    if L > (1 << n_levels):
        raise CapacityError(f"sequence length {L} exceeds capacity 2^{n_levels}")
    valid = valid_mask(L, n_levels, summarizer.k)
    per_batch = []
    for bi in range(b):
        state = SlotState.fresh(n_levels, summarizer.k)
        rows = []
        for t in range(L):
            xt = narrow_position(x, bi, t)
            row, _ = snapshot(state, xt)
            rows.append(reshape(row, (1, 1, valid.shape[1], e)))
            push_token(state, xt, summarizer)
        per_batch.append(concat(rows, axis=1))
    data = concat(per_batch, axis=0) if b > 1 else per_batch[0]
    return MemoryTensor(data=data, valid=valid)


def narrow_position(x: Tensor, batch_index: int, t: int) -> Tensor:
    """One [1, E] position of a [B, L, E] tensor (tape-recorded)."""
    row = narrow(x, 0, batch_index, 1)
    row = narrow(row, 1, t, 1)
    return reshape(row, (1, x.shape[2]))


@dataclass
class Pyramid:
    """All pair summaries: levels[l] is [B, L_pad / 2^l, 1 + l*k, E], levels[0] = input."""

    levels: list
    k: int


def build_pyramid(x: Tensor, summarizer, n_levels: int | None = None) -> Pyramid:
    """Bottom-up batched construction, zero-padding L to a power of two."""
    b, L, e = x.shape
    if n_levels is None:
        n_levels = levels_for(L)
    L_pad = 1 << n_levels
    if L < L_pad:
        x = concat([x, zeros((b, L_pad - L, e), dtype=x.dtype)], axis=1)
    cur = reshape(x, (b, L_pad, 1, e))
    levels = [cur]
    for _ in range(n_levels):
        n_pairs = cur.shape[1] // 2
        cur = summarizer.merge_level(cur)
        COUNTER.summarizer_ops += n_pairs
        levels.append(cur)
    return Pyramid(levels=levels, k=summarizer.k)


def gather_memory(p: Pyramid, L: int) -> MemoryTensor:
    """Assemble per-position rows from the pyramid.

    For level l with bit l of t set, the contributing block is
    levels[l][2 * (t >> (l+1))]: the lone level-l block in the greedy binary
    decomposition of the prefix [0, t). Blocks always lie inside the real
    prefix, so pyramid padding never leaks in.
    """
    n_levels = len(p.levels) - 1
    t = np.arange(L, dtype=np.int64)
    mask = valid_mask(L, n_levels, p.k)
    level0 = p.levels[0]
    parts = [level0 if level0.shape[1] == L else narrow(level0, 1, 0, L)]
    col = 1
    for level in range(n_levels):
        w = p.levels[level].shape[2]
        picked = index_select(p.levels[level], 1, 2 * (t >> (level + 1)))  # [B, L, w, E]
        # rebinding frees the unmasked copy before the next level is picked
        picked = masked_fill(picked, ~mask[None, :, col:col + w, None], 0.0)
        parts.append(picked)
        col += w
    return MemoryTensor(data=concat(parts, axis=2), valid=mask)


def parallel_memory(x: Tensor, summarizer, n_levels: int | None = None) -> MemoryTensor:
    """build_pyramid + gather_memory; agrees with sequential_memory."""
    if n_levels is None:
        n_levels = levels_for(x.shape[1])
    if x.shape[1] > (1 << n_levels):
        raise CapacityError(f"sequence length {x.shape[1]} exceeds capacity 2^{n_levels}")
    return gather_memory(build_pyramid(x, summarizer, n_levels), x.shape[1])
