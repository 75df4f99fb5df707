"""Float64 numpy evaluations written apart from lmn, used to check its outputs.

They read only a model's named parameter arrays and recompute logits from
the method's definition: for the tree model the greedy prefix decomposition
of [0, t) into aligned power-of-two blocks, each summarised by recursive
(older, newer) pair merges; for the baseline plain causal attention with a
learned positional table. Both cover one block, as the benchmark builds.
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-5


def _f64(params) -> dict:
    return {name: np.asarray(p.data, dtype=np.float64) for name, p in params.items()}


def _layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gain + bias


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))


def _softmax(s):
    e = np.exp(s - s.max())
    return e / e.sum()


def _residual_tail(P, x_t, attn_out):
    """Output projection and residual, pre-norm FFN and residual, final norm, unembed."""
    h = x_t + attn_out @ P["block0.attn_out.weight"] + P["block0.attn_out.bias"]
    n2 = _layer_norm(h, P["block0.ln2.gain"], P["block0.ln2.bias"])
    if "block0.ffn.w1" in P:
        ffn = _gelu(n2 @ P["block0.ffn.w1"] + P["block0.ffn.b1"]) @ P["block0.ffn.w2"] + P["block0.ffn.b2"]
    else:
        w, b = P["block0.ffn.weight"], P["block0.ffn.bias"]
        ffn = _gelu(n2 @ w + b) @ w + b
    h = h + ffn
    z = _layer_norm(h, P["final.ln.gain"], P["final.ln.bias"])
    w_out = P["unembed.weight"] if "unembed.weight" in P else P["embed.weight"].T
    return z @ w_out + P["unembed.bias"]


def prefix_blocks(t: int) -> list[tuple[int, int]]:
    """Greedy decomposition of [0, t) into (level, start) blocks of 2^level tokens, oldest first."""
    blocks, start = [], 0
    for level in range(t.bit_length() - 1, -1, -1):
        if (t >> level) & 1:
            blocks.append((level, start))
            start += 1 << level
    return blocks


def logmem_logits(params, tokens, positions) -> np.ndarray:
    """Logits [len(positions), V] of a one-block linear-summarizer tree model."""
    P = _f64(params)
    banks = sorted({name.split(".")[1] for name in P if name.startswith("block0.bank")})
    e = P["embed.weight"].shape[1]
    x = P["embed.weight"][np.asarray(tokens)]
    n = _layer_norm(x, P["block0.ln1.gain"], P["block0.ln1.bias"])
    memo = {}

    def summary(bank, level, start):
        key = (bank, level, start)
        if key not in memo:
            if level == 0:
                memo[key] = n[start]
            else:
                half = 1 << (level - 1)
                pair = np.concatenate([summary(bank, level - 1, start),
                                       summary(bank, level - 1, start + half)])
                out = pair @ P[f"block0.{bank}.weight"]
                bias = P.get(f"block0.{bank}.bias")
                memo[key] = out if bias is None else out + bias
        return memo[key]

    w_qkv = P["block0.qkv.weight"]
    b_qkv = P.get("block0.qkv.bias", np.zeros(3 * e))
    rows_out = []
    for t in positions:
        rows = []
        for bank in banks:
            rows.append(n[t])
            rows += [summary(bank, level, start) for level, start in prefix_blocks(int(t))]
        y = np.stack(rows) @ w_qkv + b_qkv
        q, k, v = y[:, :e], y[:, e:2 * e], y[:, 2 * e:]
        weights = _softmax(q @ k[0] / math.sqrt(e))
        rows_out.append(_residual_tail(P, x[t], weights @ v))
    return np.stack(rows_out)


def baseline_logits(params, tokens, positions, n_heads: int) -> np.ndarray:
    """Logits [len(positions), V] of a one-block causal-attention decoder."""
    P = _f64(params)
    tokens = np.asarray(tokens)
    L = len(tokens)
    e = P["embed.weight"].shape[1]
    d = e // n_heads
    x = P["embed.weight"][tokens] + P["pos.weight"][:L]
    qkv = _layer_norm(x, P["block0.ln1.gain"], P["block0.ln1.bias"]) @ P["block0.qkv.weight"]
    q, k, v = qkv[:, :e], qkv[:, e:2 * e], qkv[:, 2 * e:]
    rows_out = []
    for t in positions:
        heads = []
        for h in range(n_heads):
            cols = slice(h * d, (h + 1) * d)
            p = _softmax(k[:t + 1, cols] @ q[t, cols] / math.sqrt(d))
            heads.append(p @ v[:t + 1, cols])
        rows_out.append(_residual_tail(P, x[t], np.concatenate(heads)))
    return np.stack(rows_out)


def popcount(t: int) -> int:
    return bin(t).count("1")


def stepped_counts(variant: str, positions: int, embed: int, banks: int, expansion: int) -> dict:
    """Exact operation counts of stepping `positions` tokens through one block.

    A binary counter does T - popcount(T) carry merges per bank after T pushes.
    Position t scores its current token plus one row per occupied slot; an
    expander slot at level l holds 1 + l*k rows. The baseline scores t + 1 keys.
    """
    T = positions
    if variant == "baseline-attn":
        return {"score_macs": embed * T * (T + 1) // 2}
    merges = banks * (T - popcount(T))
    if variant == "expsum":
        rows = sum(1 + sum(1 + level * expansion for level in range(t.bit_length()) if (t >> level) & 1)
                   for t in range(T))
        return {"score_macs": embed * rows, "summarizer_ops": merges, "expander_ops": merges}
    rows = sum(popcount(t) + 1 for t in range(T))
    return {"score_macs": embed * banks * rows, "summarizer_ops": merges}
