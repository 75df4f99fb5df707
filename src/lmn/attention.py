"""Single-vector attention over memory levels.

Each position attends over its own memory rows only: scores are dot
products between per-level Q rows and the current token's K row (level 0),
scaled by 1/sqrt(E), masked to valid levels, softmaxed, and used for a
weighted sum of V. A config flag selects the mirrored score orientation
(Q row 0 against per-level K rows).

The projection y = m W + b is the block's ``qkv.weight`` and ``qkv.bias``
from the parameter schema; every LMN block has both, so b is never absent.

``attend`` never projects the memory rows above level 0. With the
projection split into (W_q, W_k, W_v) and (b_q, b_k, b_v), and m_i the
memory row at level i, the literal score is

    q_i . k_0 = m_i . (k_0 W_q^T) + b_q . k_0

The second term is the same at every level of a position, and softmax
ignores a per-row shift, so it is dropped: one probe k_0 W_q^T per position
is scored against the raw rows (the swapped orientation uses q_0 W_k^T and
drops b_k . q_0). Because the weights sum to 1 and invalid levels get
weight exactly 0, the values fold the same way:

    sum_i w_i v_i = (sum_i w_i m_i) W_v + b_v

Only the level-0 rows go through ``qkv_project``, so the [B, L, D, 3E]
projection of the whole memory is never built. The dropped bias (b_q in the
literal orientation, b_k in the swapped one) gets an exactly zero gradient;
no output ever depended on it. The parameters are the same as for the
unfused chain qkv_project -> single_vector_scores -> mask_softmax ->
weighted_sum, which ``lmn verify`` checks ``attend`` against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counters import COUNTER
from .memory import MemoryTensor
from .tensor import (
    ShapeError,
    Tensor,
    add,
    affine_masked,
    concat,
    einsum_pair,
    masked_fill,
    matmul,
    narrow,
    reshape,
    scale,
    softmax_last,
    transpose,
)

ORIENTATIONS = ("literal", "swapped")


class QkvProjection:
    """Per-entry affine map [E] -> [3E], split into Q, K, V; an LMN block's
    qkv weight and bias."""

    def __init__(self, weight: Tensor, bias: Tensor):
        self.weight = weight  # [E, 3E]
        self.bias = bias      # [3E]
        self.embed = weight.shape[0]


@dataclass
class AttentionOutput:
    values: Tensor   # [B, L, E]
    weights: Tensor  # [B, L, D], kept for tests


def qkv_project(mem: MemoryTensor, proj: QkvProjection):
    """Project memory entries, re-zero invalid levels, split into Q, K, V.

    The bias leaks into padded levels, so the validity mask is re-applied
    after the affine map (fused into one pass).
    """
    e = proj.embed
    if mem.data.shape[-1] != e:
        raise ShapeError(f"qkv_project: memory {mem.data.shape} vs weight {proj.weight.shape}")
    y = affine_masked(mem.data, proj.weight, proj.bias, mem.valid[None, :, :])
    q = narrow(y, 3, 0, e)
    k = narrow(y, 3, e, e)
    v = narrow(y, 3, 2 * e, e)
    return q, k, v


def single_vector_scores(q: Tensor, k: Tensor, valid: np.ndarray,
                         orientation: str = "literal") -> Tensor:
    """Scores [B, L, D]: each level against the current token, scaled by 1/sqrt(E).

    literal: score[b,t,i] = q[b,t,i] . k[b,t,0] / sqrt(E)
    swapped: score[b,t,i] = q[b,t,0] . k[b,t,i] / sqrt(E)
    """
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown score orientation {orientation!r}")
    e = q.shape[-1]
    b, L = q.shape[0], q.shape[1]
    if orientation == "literal":
        current = reshape(narrow(k, 2, 0, 1), (b, L, e))
        scores = einsum_pair("blde,ble->bld", q, current)
    else:
        current = reshape(narrow(q, 2, 0, 1), (b, L, e))
        scores = einsum_pair("ble,blde->bld", current, k)
    scores = scale(scores, 1.0 / math.sqrt(e))
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


def multi_bank_combine(memories: list[MemoryTensor]) -> MemoryTensor:
    """Concatenate bank memories along the level axis.

    Level 0 of the first bank is the current-token key; every bank's level 0
    holds the same raw input by construction. Banks whose shapes differ off
    the level axis raise concat's ShapeError.
    """
    if len(memories) == 1:
        return memories[0]
    data = concat([m.data for m in memories], axis=2)
    valid = np.concatenate([m.valid for m in memories], axis=1)
    return MemoryTensor(data=data, valid=valid)


def attend(mem: MemoryTensor, current: Tensor, proj: QkvProjection,
           orientation: str = "literal") -> AttentionOutput:
    """Full single-vector attention pass over a (possibly multi-bank) memory,
    with the projection folded into a per-position probe (module docstring).

    current [B, L, E] is each position's own token, the rows that level 0
    of the memory holds; it is projected directly, so no gradient passes
    through a slice of the memory.
    """
    e = proj.embed
    b, L, _ = current.shape
    q0, k0, _ = qkv_project(MemoryTensor(reshape(current, (b, L, 1, e)), mem.valid[:, :1]), proj)
    if orientation == "literal":
        own, w_score = k0, narrow(proj.weight, 1, 0, e)
    elif orientation == "swapped":
        own, w_score = q0, narrow(proj.weight, 1, e, e)
    else:
        raise ValueError(f"unknown score orientation {orientation!r}")
    probe = matmul(own, transpose(w_score, (1, 0)))  # [B, L, 1, E]
    scores = single_vector_scores(mem.data, probe, mem.valid)
    weights = mask_softmax(scores, mem.valid)
    values = add(matmul(weighted_sum(weights, mem.data), narrow(proj.weight, 1, 2 * e, e)),
                 narrow(proj.bias, 0, 2 * e, e))
    return AttentionOutput(values=values, weights=weights)
