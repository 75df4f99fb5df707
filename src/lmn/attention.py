"""Single-vector attention over memory levels.

Each position attends over its own memory rows only: scores are dot
products between per-level Q rows and the current token's K row (level 0),
scaled by 1/sqrt(E), masked to valid levels, softmaxed, and used for a
weighted sum of V.

The projection y = m W + b takes the block's ``qkv.weight`` [E, 3E] and
``qkv.bias`` [3E] from the parameter schema as they are, E read off W;
every LMN block has both, so b is never absent.

``attend`` never projects the memory rows above level 0. With the
projection split into (W_q, W_k, W_v) and (b_q, b_k, b_v), and m_i the
memory row at level i, the score is

    q_i . k_0 = m_i . (k_0 W_q^T) + b_q . k_0

The second term is the same at every level of a position, and softmax
ignores a per-row shift, so it is dropped: one probe k_0 W_q^T per position
is scored against the raw rows. Because the weights sum to 1 and invalid
levels get weight exactly 0, the values fold the same way:

    sum_i w_i v_i = (sum_i w_i m_i) W_v + b_v

Only the level-0 rows go through ``qkv_project``, so the [B, L, D, 3E]
projection of the whole memory is never built. The dropped bias b_q gets an
exactly zero gradient; no output ever depended on it. The parameters are
the same as for the unfused chain qkv_project -> single_vector_scores ->
mask_softmax -> weighted_sum, which ``lmn verify`` checks ``attend`` against.
"""

from __future__ import annotations

import math

import numpy as np

from .counters import COUNTER
from .memory import MemoryTensor
from .tensor import (
    ShapeError,
    Tensor,
    add,
    affine_masked,
    einsum_pair,
    masked_fill,
    matmul,
    narrow,
    reshape,
    scale,
    softmax_last,
    transpose,
)


def qkv_project(mem: MemoryTensor, weight: Tensor, bias: Tensor):
    """Project memory entries by the [E, 3E] weight and [3E] bias, re-zero
    invalid levels, split into Q, K, V.

    The bias leaks into padded levels, so the validity mask is re-applied
    after the affine map (fused into one pass).
    """
    e = weight.shape[0]
    if mem.data.shape[-1] != e:
        raise ShapeError(f"qkv_project: memory {mem.data.shape} vs weight {weight.shape}")
    y = affine_masked(mem.data, weight, bias, mem.valid[None, :, :])
    q = narrow(y, 3, 0, e)
    k = narrow(y, 3, e, e)
    v = narrow(y, 3, 2 * e, e)
    return q, k, v


def single_vector_scores(q: Tensor, k: Tensor, valid: np.ndarray) -> Tensor:
    """Scores [B, L, D]: each level's query against the current token's key,
    score[b,t,i] = q[b,t,i] . k[b,t,0] / sqrt(E)."""
    e = q.shape[-1]
    b, L = q.shape[0], q.shape[1]
    current = reshape(narrow(k, 2, 0, 1), (b, L, e))
    scores = scale(einsum_pair("blde,ble->bld", q, current), 1.0 / math.sqrt(e))
    COUNTER.score_macs += int(e * valid.sum())  # per batch item; valid levels only
    return scores


def mask_softmax(scores: Tensor, valid: np.ndarray) -> Tensor:
    """Softmax over the level axis with -inf at invalid levels.

    Level 0 is always valid, so the softmax never sees an empty row; invalid
    levels come out exactly zero.
    """
    if not valid[:, 0].all():
        raise ValueError("level 0 (current token) must be valid at every position")
    masked = masked_fill(scores, ~valid[None, :, :], -np.inf)
    return softmax_last(masked)


def weighted_sum(weights: Tensor, v: Tensor) -> Tensor:
    """values[b,t] = sum_i weights[b,t,i] * v[b,t,i]; invalid levels contribute 0."""
    return einsum_pair("bld,blde->ble", weights, v)


def multi_bank_combine(mem: MemoryTensor) -> MemoryTensor:
    """Flatten the bank axis of a [B, L, banks, D, E] memory into its rows,
    [B, L, banks*D, E], by a reshape that copies no row, and widen the
    [L, D] mask the banks share to match. Every bank's level 0 holds the
    current token, so each gets its own softmax term. A mask that is not
    [L, D] raises ShapeError."""
    b, L, banks, d, e = mem.data.shape
    if mem.valid.shape != (L, d):
        raise ShapeError(f"multi_bank_combine: memory {mem.data.shape} vs mask {mem.valid.shape}")
    # np.concatenate, not np.tile: np.tile left 56 bytes per call for the
    # cycle collector, which doubled the traced peak of a stepped generate
    return MemoryTensor(data=reshape(mem.data, (b, L, banks * d, e)),
                        valid=np.concatenate([mem.valid] * banks, axis=1))


def attend(mem: MemoryTensor, current: Tensor, weight: Tensor, bias: Tensor):
    """Full single-vector attention pass over a (possibly multi-bank) memory,
    with the projection folded into a per-position probe (module docstring);
    returns (values [B, L, E], weights [B, L, D]).

    current [B, L, E] is each position's own token, the rows that level 0
    of the memory holds; it is projected directly, so no gradient passes
    through a slice of the memory.
    """
    b, L, e = current.shape
    _, k0, _ = qkv_project(MemoryTensor(reshape(current, (b, L, 1, e)), mem.valid[:, :1]), weight, bias)
    probe = matmul(k0, transpose(narrow(weight, 1, 0, e), (1, 0)))  # [B, L, 1, E]
    weights = mask_softmax(single_vector_scores(mem.data, probe, mem.valid), mem.valid)
    values = add(matmul(weighted_sum(weights, mem.data), narrow(weight, 1, 2 * e, e)),
                 narrow(bias, 0, 2 * e, e))
    return values, weights
