"""Logarithmic tree memory: one block tree, built two ways that must agree.

Slot l summarizes 2^l consecutive past tokens as a [w_l, E] block with
w_l = 1 + l*k, where k is the summarizer's expansion factor: 0 for the
linear and dsconv summarizers (every block is one row), k for the expander
(deeper blocks keep more rows). Every summarizer merges two width-w blocks,
older first, into one width-(w+k) block, either one pair at a time
(``merge_pair``) or a whole pyramid level at once (``merge_level``).

A block's banks see the same tokens, so their trees share shape and
occupancy and differ only in what their summarizers write: one slot state,
one row table and one memory hold every bank on a bank axis, and one
validity mask broadcasts over it.

The carry chain is a binary counter, the recurrent state a model steps
through: slot l is occupied iff bit l of the consumed count is set, and
pushing a token triggers one carry chain of merges, each bank merging its
own blocks. The parallel forward builds every bank's full pyramid of pair
summaries bottom-up over the whole sequence, and ``build_pyramid`` returns
their levels joined in one row table (``RowTable``). ``gather_memory``
then reads the memory of any range of positions from it in closed form
(Fenwick bucketing): position t's level-l slot is block 2 * (t >> (l+1))
of level l, so each level's read is a strided broadcast and its gradient a
reshape-sum, with no index table and no scatter. The model reads one tile
of positions at a time, so no [B, L, banks, D, E] memory of the whole
sequence is ever held, and a range's memory holds only the levels its
positions occupy. ``parallel_memory`` (one read of the whole sequence) and
``sequential_memory`` (its stepped reference) both produce a
[B, L, banks, D, E] memory (per bank: row 0 = current token, then the w_l
rows of each slot in level order, D = 1 + sum_l w_l) with the [L, D]
validity mask every bank shares; invalid rows are exactly zero.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .counters import COUNTER
from .tensor import ContractError, Tensor, _make, concat, records_grad, reshape, zeros


class CapacityError(RuntimeError):
    """Sequence exceeded the 2^S token capacity of the slot state."""


def levels_for(max_seq_len: int) -> int:
    """Number of slot levels S = ceil(log2(max_seq_len)), at least 1, in
    integer arithmetic, so it is exact at any length."""
    if max_seq_len < 1:
        raise ValueError("max_seq_len must be positive")
    return max(1, (max_seq_len - 1).bit_length())


def slot_widths(n_levels: int, k: int = 0) -> list[int]:
    """Block width per level under expansion factor k: w_l = 1 + l*k.

    Total rows across levels is S + k*S*(S-1)/2.
    """
    if n_levels < 1:
        raise ValueError("need at least one level")
    if k < 0:
        raise ValueError("expansion factor must be non-negative")
    return [1 + level * k for level in range(n_levels)]


@dataclass
class SlotState:
    """Binary-counter memory state of one stream for all of a block's banks,
    held in one row buffer.

    ``rows`` is a [banks, D + w_S, E] array, allocated at first use with the
    dtype of the token it is given. In each bank's rows, row 0 holds the
    current token and level l owns rows ``bounds[l]``, in snapshot order;
    level S, the tree root that the final push of a full sequence writes,
    lies past the D rows a snapshot reads. The banks share one count: level
    l of every bank is occupied iff bit l of ``consumed`` is set, and the
    rows of an empty level are zero. Single-owner and mutable: the recurrent
    state during generation. Inference-only: the rows are plain arrays, so
    no gradient flows through them.
    """

    n_levels: int
    bounds: list           # (first row, end row) of each level, the root included
    row_level: np.ndarray  # [D] level of each snapshot row (row 0: the current token)
    banks: int = 1
    consumed: int = 0
    rows: np.ndarray | None = None

    @classmethod
    def fresh(cls, n_levels: int, k: int = 0, banks: int = 1) -> "SlotState":
        widths = slot_widths(n_levels + 1, k)  # the last is the root's
        ends = list(itertools.accumulate(widths, initial=1))
        row_level = [0] + [level for level, w in enumerate(widths[:-1]) for _ in range(w)]
        return cls(n_levels, list(zip(ends[:-1], ends[1:])), np.array(row_level, dtype=np.int64), banks)

    def occupied(self, level: int) -> bool:
        return (self.consumed >> level) & 1 == 1

    def _buffer(self, x: Tensor) -> np.ndarray:
        if self.rows is None:
            self.rows = np.zeros((self.banks, self.bounds[-1][1], x.shape[-1]), dtype=x.dtype)
        return self.rows


def _check_step(state: SlotState, x: Tensor, what: str) -> None:
    if state.consumed >= (1 << state.n_levels):
        raise CapacityError(f"{what}: slot state full after {state.consumed} tokens "
                            f"({state.n_levels} levels)")
    if records_grad(x):
        raise ContractError(f"{what}: the slot state is inference-only and would cut "
                            "the gradient; run it under no_grad()")


def push_token(state: SlotState, x: Tensor, summarizers) -> SlotState:
    """Push one [1, E] node through the carry chain, mutating the state.

    The banks share the occupancy, so one chain serves them all: at each
    occupied level, each bank merges its own block, the older, with its own
    carry through its own summarizer, and the level's rows are zeroed; the
    final carries land in the first empty level.
    """
    _check_step(state, x, "push_token")
    if len(summarizers) != state.banks:
        raise ValueError(f"push_token: {len(summarizers)} summarizers for {state.banks} banks")
    rows = state._buffer(x)
    carries = [x] * state.banks
    level = 0
    while state.occupied(level):
        lo, hi = state.bounds[level]
        carries = [s.merge_pair(Tensor(r[lo:hi]), c) for s, r, c in zip(summarizers, rows, carries)]
        COUNTER.summarizer_ops += state.banks
        rows[:, lo:hi] = 0.0
        level += 1
    lo, hi = state.bounds[level]
    for r, carry in zip(rows, carries):
        r[lo:hi] = carry.data
    state.consumed += 1
    return state


def snapshot(state: SlotState, x_current: Tensor) -> MemoryTensor:
    """The memory of position t = state.consumed: every bank's D rows as
    [1, 1, banks, D, E] and their [1, D] mask: a one-position tile's
    ``gather_memory`` with the levels it does not occupy kept.

    One copy of the row buffer with each bank's row 0 set to the current
    token; empty levels are already zero.
    """
    _check_step(state, x_current, "snapshot")
    rows = state._buffer(x_current)
    rows[:, :1] = x_current.data
    valid = ((state.consumed >> state.row_level) & 1).astype(bool)
    valid[0] = True
    return MemoryTensor(Tensor(rows[None, None, :, :valid.size].copy()), valid[None])


@dataclass
class MemoryTensor:
    """Per-position memory: data [B, L, banks, D, E] and the validity mask
    [L, D], which broadcasts over the bank axis; ``attention.multi_bank_combine``
    flattens it to the [B, L, banks*D, E] rows that ``attend`` takes. A
    range read holds only the levels its positions occupy, a snapshot all."""

    data: Tensor
    valid: np.ndarray


def valid_mask(stop: int, n_levels: int, k: int = 0, start: int = 0) -> np.ndarray:
    """Mask [stop - start, D] of positions t = start..stop-1: row 0 always
    valid, level l's w_l rows iff bit l of t set."""
    return _mask_of_columns(start, stop, _column_levels(n_levels, k))


@functools.lru_cache(maxsize=None)
def _column_levels(n_levels: int, k: int) -> np.ndarray:
    """[D - 1] level of each slot row after row 0, in memory order (read-only)."""
    levels = np.repeat(np.arange(n_levels, dtype=np.int64), slot_widths(n_levels, k))
    levels.flags.writeable = False
    return levels


def _mask_of_columns(start: int, stop: int, levels: np.ndarray) -> np.ndarray:
    """Row 0 valid, then column j valid at position t iff bit levels[j] of t is set."""
    t = np.arange(start, stop, dtype=np.int64)[:, None]
    mask = np.empty((t.shape[0], 1 + levels.size), dtype=bool)
    mask[:, 0] = True
    np.bitwise_and(t >> levels, 1, out=mask[:, 1:], casting="unsafe")
    return mask


def sequential_memory(x: Tensor, summarizers) -> MemoryTensor:
    """Iterative construction, the reference for parallel_memory: snapshot
    position t, then push x_t (inference-only)."""
    b, L, e = x.shape
    n_levels = levels_for(L)
    if records_grad(x):
        raise ContractError("sequential memory is inference-only and would cut the "
                            "gradient; run it under no_grad()")
    k, banks = summarizers[0].k, len(summarizers)
    valid = valid_mask(L, n_levels, k)
    data = np.empty((b, L, banks, valid.shape[1], e), dtype=x.dtype)
    for bi in range(b):
        state = SlotState.fresh(n_levels, k, banks)
        for t in range(L):
            xt = Tensor(x.data[bi, t:t + 1])
            data[bi, t] = snapshot(state, xt).data.data[0, 0]
            push_token(state, xt, summarizers)
    return MemoryTensor(data=Tensor(data), valid=valid)


@dataclass
class RowTable:
    """The pyramid levels 0..S-1 of a block's banks in one [B, banks, R, E]
    table: each bank's R rows hold its levels in level order (level l's
    L_pad >> l blocks of w_l rows follow level l-1's). Row t of each bank's
    rows is token t, so it also holds the current-token rows."""

    rows: Tensor
    n_levels: int
    k: int


def build_pyramid(x: Tensor, summarizers) -> RowTable:
    """Bottom-up batched construction, zero-padding L to a power of two.

    Level l is [B, L_pad >> l, w_l, E]; level 0 is the padded input for
    every bank, each bank merges its levels up to the root, and every bank's
    levels 0..S-1 are joined into the row table in one copy, then split on
    the bank axis (the root is a block no position reads).
    """
    b, L, e = x.shape
    n_levels = levels_for(L)
    L_pad = 1 << n_levels
    if L < L_pad:
        x = concat([x, zeros((b, L_pad - L, e), dtype=x.dtype)], axis=1)
    leaves = reshape(x, (b, L_pad, 1, e))
    levels = []
    for summarizer in summarizers:
        cur = leaves
        for _ in range(n_levels):
            levels.append(cur)
            n_pairs = cur.shape[1] // 2
            cur = summarizer.merge_level(cur)
            COUNTER.summarizer_ops += n_pairs
    rows = concat([reshape(lv, (b, lv.shape[1] * lv.shape[2], e)) for lv in levels], axis=1)
    return RowTable(reshape(rows, (b, len(summarizers), -1, e)), n_levels, summarizers[0].k)


def gather_memory(table: RowTable, start: int, stop: int) -> MemoryTensor:
    """The memory of positions start..stop-1, read from the row table in closed form.

    Every bank's reads fill one [B, stop - start, banks, D, E] buffer in
    one pass over the levels. Row 0 of position t is each bank's table row
    t. For level l with bit l of t set, the slot holds
    levels[l][2 * (t >> (l+1))], the lone level-l block in the greedy
    binary decomposition of the prefix [0, t), so blocks lie inside the
    real prefix and padding never leaks in. The read is one op: a broadcast
    write per ``_level_reads`` pair, and a backward that sums each pair's
    gradient over its positions into its blocks of one table gradient.
    Every other slot row stays exactly zero and gets no gradient. A range
    that starts at a multiple of 2^(l+1) holds whole level-l groups; one
    that lies inside a single group reads that group's block, or none.
    Levels no position occupies are cut from the memory and from its mask.
    """
    rows = table.rows
    shape = rows.shape
    b, banks, _, e = shape
    widths = slot_widths(table.n_levels, table.k)
    levels = _column_levels(table.n_levels, table.k)
    # the columns of the levels some position occupies, the ones _level_reads fills
    valid = _mask_of_columns(start, stop, levels[(start >> levels) | 1 <= (stop - 1) >> levels])
    out = np.zeros((b, stop - start, banks, valid.shape[1], e), dtype=rows.dtype)
    out[:, :, :, 0] = rows.data[:, :, start:stop].swapaxes(1, 2)
    for mem, blocks in _level_reads(out, rows.data, start, widths):
        mem[...] = blocks

    def bwd(g):
        grad = np.zeros(shape, dtype=g.dtype)
        for mem, blocks in _level_reads(g, grad, start, widths):
            np.sum(mem, axis=-4, keepdims=True, out=blocks)  # each block is read by one group
        grad[:, :, start:stop] += g[:, :, :, 0].swapaxes(1, 2)
        return (grad,)

    return MemoryTensor(data=_make(out, (rows,), bwd), valid=valid)


def _level_reads(mem: np.ndarray, rows: np.ndarray, start: int, widths: list):
    """(memory view, block view) pairs: the reads of the slot rows of every
    bank by the positions start..start+n-1 that ``mem``'s n rows hold, out
    of the [B, banks, R, E] table rows ``rows``.

    Level l's positions fall in groups of R = 2^(l+1): the second half of
    group g reads block 2g of the level and the first half reads nothing.
    A group the range enters partway gives its positions in the range past
    its half, if any, against its one block; the G whole groups that follow
    give a [B, G, R/2, banks, w, E] memory view against the
    [B, G, 1, banks, w, E] even blocks; a last group the range leaves
    partway gives its positions past its half, if any, against its one
    block. A level no position occupies gives none and has no columns in
    ``mem``. All are strided views, so writes through them land in the arrays.
    """
    b, n, banks, d, e = mem.shape
    stop = start + n
    n_levels = len(widths)
    off, col = 0, 1
    for level, w in enumerate(widths):
        count, R = 1 << (n_levels - level), 2 << level
        half = R >> 1
        blocks = rows[:, :, off:off + count * w].reshape(b, banks, count, w, e).transpose(0, 2, 1, 3, 4)
        g = start // R
        if start % R:
            lo, hi = max(start, g * R + half), min(stop, g * R + R)
            if lo < hi:
                yield mem[:, lo - start:hi - start, :, col:col + w], blocks[:, 2 * g, None]
            g += 1
        G = (stop - g * R) // R
        if G > 0:
            lo = g * R - start
            yield (mem[:, lo:lo + G * R].reshape(b, G, R, banks, d, e)[:, :, half:, :, col:col + w],
                   blocks[:, 2 * g:2 * (g + G):2, None])
            g += G
        lo = g * R + half
        if stop > lo:
            yield mem[:, lo - start:, :, col:col + w], blocks[:, 2 * g, None]
        off += count * w
        col += w if (start >> level) | 1 <= (stop - 1) >> level else 0  # some t has bit l set


def parallel_memory(x: Tensor, summarizers) -> MemoryTensor:
    """Every position's memory in one read of the whole sequence: the
    reference for the model's tiled reads; agrees with sequential_memory."""
    return gather_memory(build_pyramid(x, summarizers), 0, x.shape[1])
