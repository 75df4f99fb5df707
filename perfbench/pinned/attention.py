"""Single-vector attention over memory levels.

Each position attends over its own memory rows only: scores are dot
products between per-level Q rows and the current token's K row (level 0),
scaled by 1/sqrt(E), masked to valid levels, softmaxed, and used for a
weighted sum of V. A config flag selects the mirrored score orientation
(Q row 0 against per-level K rows).
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
    affine_masked,
    concat,
    einsum_pair,
    masked_fill,
    narrow,
    reshape,
    scale,
    softmax_last,
    uniform_init,
)

ORIENTATIONS = ("literal", "swapped")


class QkvProjection:
    """Per-entry affine map [E] -> [3E], split into Q, K, V."""

    def __init__(self, weight: Tensor, bias: Tensor | None = None):
        self.weight = weight  # [E, 3E]
        self.bias = bias      # [3E]
        self.embed = weight.shape[0]

    @classmethod
    def init(cls, rng, embed: int, bias: bool = True, dtype=np.float32):
        w = uniform_init(rng, (embed, 3 * embed), fan_in=embed, dtype=dtype)
        b = uniform_init(rng, (3 * embed,), fan_in=embed, dtype=dtype) if bias else None
        return cls(w, b)

    def params(self) -> dict:
        out = {"weight": self.weight}
        if self.bias is not None:
            out["bias"] = self.bias
        return out


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
    holds the same raw input by construction.
    """
    first = memories[0]
    if len(memories) == 1:
        return first
    for m in memories[1:]:
        if (m.data.shape[0], m.data.shape[1], m.data.shape[3]) != (
            first.data.shape[0], first.data.shape[1], first.data.shape[3]
        ):
            raise ShapeError(f"multi_bank_combine: {m.data.shape} vs {first.data.shape}")
    data = concat([m.data for m in memories], axis=2)
    valid = np.concatenate([m.valid for m in memories], axis=1)
    return MemoryTensor(data=data, valid=valid)


def attend(mem: MemoryTensor, proj: QkvProjection, orientation: str = "literal") -> AttentionOutput:
    """Full single-vector attention pass over a (possibly multi-bank) memory."""
    q, k, v = qkv_project(mem, proj)
    scores = single_vector_scores(q, k, mem.valid, orientation)
    weights = mask_softmax(scores, mem.valid)
    return AttentionOutput(values=weighted_sum(weights, v), weights=weights)
