"""Logarithmic tree memory, built two ways that must agree.

Sequential mode runs a binary counter: slot l holds the summary of exactly
2^l consecutive past tokens, occupied iff bit l of the consumed count is
set; pushing a token triggers the carry chain of merges. Parallel mode
builds the full pyramid of pair summaries bottom-up, then gathers each
position's slot contents with closed-form block indices. Both produce a
[B, L, D, E] memory (level 0 = current token, level i >= 1 = slot i-1)
with a [L, D] validity mask; invalid levels are exactly zero.
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


def summarize_table(prev_pointer: int) -> tuple[int, int]:
    """Advance the position pointer and report which levels change.

    The bitmask is prev XOR next: every set bit below the highest is a carry
    merge, the highest set bit is the slot written.
    """
    if prev_pointer < 0:
        raise ValueError("pointer must be non-negative")
    new_pointer = prev_pointer + 1
    return new_pointer, prev_pointer ^ new_pointer


@dataclass
class SlotState:
    """Binary-counter memory state: one optional node per level.

    slots[l] is a [1, E] tensor when occupied (bit l of consumed set) else
    None. Single-owner mutable; the recurrent state during generation.
    """

    slots: list
    consumed: int
    n_levels: int

    @classmethod
    def fresh(cls, n_levels: int) -> "SlotState":
        # one extra entry: the final push of a full sequence writes the tree
        # root at level S, which snapshots never read
        return cls(slots=[None] * (n_levels + 1), consumed=0, n_levels=n_levels)

    def occupied(self, level: int) -> bool:
        return (self.consumed >> level) & 1 == 1


def push_token(state: SlotState, x: Tensor, summarizer) -> SlotState:
    """Push one [1, E] node through the carry chain, mutating the state.

    Merges always take the older node first; the final carry lands in the
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

    Row 0 is the current token; row i >= 1 is slot i-1 or zeros.
    """
    t = state.consumed
    if t >= (1 << state.n_levels):
        raise CapacityError(f"no position {t} in a {state.n_levels}-level memory")
    e = x_current.shape[-1]
    rows = [reshape(x_current, (1, e))]
    valid = np.zeros(state.n_levels + 1, dtype=bool)
    valid[0] = True
    for level in range(state.n_levels):
        if state.occupied(level):
            rows.append(reshape(state.slots[level], (1, e)))
            valid[level + 1] = True
        else:
            rows.append(zeros((1, e), dtype=x_current.dtype))
    assert valid[1:].sum() == bin(t).count("1")
    return concat(rows, axis=0), valid


@dataclass
class MemoryTensor:
    """Per-position memory: data [B, L, D, E], validity mask [L, D]."""

    data: Tensor
    valid: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.data.shape[2]


def valid_mask(L: int, n_levels: int) -> np.ndarray:
    """Mask [L, S+1]: level 0 always valid, level i iff bit i-1 of t set."""
    t = np.arange(L, dtype=np.int64)[:, None]
    mask = np.zeros((L, n_levels + 1), dtype=bool)
    mask[:, 0] = True
    for level in range(n_levels):
        mask[:, level + 1] = (t[:, 0] >> level) & 1 == 1
    return mask


def sequential_memory(x: Tensor, summarizer, n_levels: int | None = None) -> MemoryTensor:
    """Iterative construction: snapshot position t, then push x_t."""
    b, L, e = x.shape
    if n_levels is None:
        n_levels = levels_for(L)
    if L > (1 << n_levels):
        raise CapacityError(f"sequence length {L} exceeds capacity 2^{n_levels}")
    per_batch = []
    for bi in range(b):
        state = SlotState.fresh(n_levels)
        rows = []
        for t in range(L):
            xt = narrow_position(x, bi, t)
            row, _ = snapshot(state, xt)
            rows.append(reshape(row, (1, 1, n_levels + 1, e)))
            push_token(state, xt, summarizer)
        per_batch.append(concat(rows, axis=1))
    data = concat(per_batch, axis=0) if b > 1 else per_batch[0]
    return MemoryTensor(data=data, valid=valid_mask(L, n_levels))


def narrow_position(x: Tensor, batch_index: int, t: int) -> Tensor:
    """One [1, E] position of a [B, L, E] tensor (tape-recorded)."""
    row = narrow(x, 0, batch_index, 1)
    row = narrow(row, 1, t, 1)
    return reshape(row, (1, x.shape[2]))


@dataclass
class Pyramid:
    """All pair summaries: levels[l] is [B, L_pad / 2^l, E], levels[0] = input."""

    levels: list
    orig_len: int


def build_pyramid(x: Tensor, summarizer, n_levels: int | None = None) -> Pyramid:
    """Bottom-up batched construction, zero-padding L to a power of two."""
    b, L, e = x.shape
    if n_levels is None:
        n_levels = levels_for(L)
    L_pad = 1 << n_levels
    if L < L_pad:
        pad = zeros((b, L_pad - L, e), dtype=x.dtype)
        x = concat([x, pad], axis=1)
    levels = [x]
    cur = x
    for _ in range(n_levels):
        n_pairs = cur.shape[1] // 2
        cur = summarizer.merge_level(cur)
        COUNTER.summarizer_ops += n_pairs
        levels.append(cur)
    return Pyramid(levels=levels, orig_len=L)


def gather_memory(p: Pyramid, L: int) -> MemoryTensor:
    """Assemble per-position rows from the pyramid.

    For level l with bit l of t set, the contributing block is
    levels[l][2 * (t >> (l+1))]: the lone level-l block in the greedy binary
    decomposition of the prefix [0, t). Blocks always lie inside the real
    prefix, so pyramid padding never leaks in.
    """
    n_levels = len(p.levels) - 1
    b = p.levels[0].shape[0]
    e = p.levels[0].shape[2]
    t = np.arange(L, dtype=np.int64)
    mask = valid_mask(L, n_levels)
    level0 = p.levels[0] if p.levels[0].shape[1] == L else narrow(p.levels[0], 1, 0, L)
    parts = [reshape(level0, (b, L, 1, e))]
    for level in range(n_levels):
        idx = 2 * (t >> (level + 1))
        picked = index_select(p.levels[level], 1, idx)  # [B, L, E]
        picked = masked_fill(picked, ~mask[None, :, level + 1, None], 0.0)
        parts.append(reshape(picked, (b, L, 1, e)))
    data = concat(parts, axis=2)
    return MemoryTensor(data=data, valid=mask)


def parallel_memory(x: Tensor, summarizer, n_levels: int | None = None) -> MemoryTensor:
    """build_pyramid + gather_memory; agrees with sequential_memory."""
    if n_levels is None:
        n_levels = levels_for(x.shape[1])
    if x.shape[1] > (1 << n_levels):
        raise CapacityError(f"sequence length {x.shape[1]} exceeds capacity 2^{n_levels}")
    return gather_memory(build_pyramid(x, summarizer, n_levels), x.shape[1])
