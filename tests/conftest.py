"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: naive
loops for linear algebra, greedy prefix decomposition for slot occupancy,
recursive tree evaluation for block summaries, and central finite
differences for gradients.
"""

import numpy as np
import pytest

from lmn.corpus import generate_corpus
from lmn.data import Dataset
from lmn.model import ModelConfig, build_model


@pytest.fixture(scope="session")
def corpus_text():
    return generate_corpus(300_000, seed=1337)


@pytest.fixture(scope="session")
def dataset(corpus_text):
    return Dataset.from_text(corpus_text)


def block_layers(embed, seed, dtype=np.float32, **cfg):
    """(qkv projection, bank summarizers) of a one-block model: layers made the
    one way every model's are, from the parameter schema."""
    block = build_model(ModelConfig(embed=embed, n_blocks=1, seed=seed, **cfg), dtype).blocks[0]
    return block.qkv, block.summarizers


# -- oracles ----------------------------------------------------------------

def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            s = 0.0
            for k in range(a.shape[1]):
                s += float(a[i, k]) * float(b[k, j])
            out[i, j] = s
    return out


def prefix_blocks(t: int):
    """Greedy binary decomposition of [0, t): aligned power-of-two blocks,
    oldest (largest) first. Returns (level, start) pairs."""
    blocks = []
    start, remaining = 0, t
    level = max(0, t.bit_length() - 1)
    while remaining > 0:
        size = 1 << level
        if size <= remaining:
            blocks.append((level, start))
            start += size
            remaining -= size
        level -= 1
    return blocks


def tree_summary(x: np.ndarray, level: int, start: int, merge) -> np.ndarray:
    """Recursive summary of the block of 2^level tokens starting at start."""
    if level == 0:
        return x[start].astype(np.float64)
    half = 1 << (level - 1)
    return merge(tree_summary(x, level - 1, start, merge),
                 tree_summary(x, level - 1, start + half, merge))


def linear_merge_fn(weight: np.ndarray, bias):
    w = weight.astype(np.float64)
    b = None if bias is None else bias.astype(np.float64)

    def merge(older, newer):
        cat = np.concatenate([older, newer])
        out = cat @ w
        return out + b if b is not None else out

    return merge


def fd_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f with respect to array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return g


def slot_blocks(state):
    """Each level's [w_l, E] block of a SlotState's rows, or None when the level is empty."""
    return [state.rows[lo:hi] if state.occupied(level) else None
            for level, (lo, hi) in enumerate(state.bounds)]


def naive_softmax(row: np.ndarray) -> np.ndarray:
    e = np.exp(row - row.max())
    return e / e.sum()


def naive_single_vector_attention(mem: np.ndarray, valid: np.ndarray,
                                  weight: np.ndarray, bias, orientation="literal"):
    """Per-position oracle over all levels: project, score, softmax, sum."""
    bsz, L, d, e = mem.shape
    out = np.zeros((bsz, L, e))
    weights = np.zeros((bsz, L, d))
    for b in range(bsz):
        for t in range(L):
            proj = mem[b, t].astype(np.float64) @ weight.astype(np.float64) + bias.astype(np.float64)
            proj[~valid[t]] = 0.0
            q, k, v = proj[:, :e], proj[:, e:2 * e], proj[:, 2 * e:]
            if orientation == "literal":
                scores = q @ k[0] / np.sqrt(e)
            else:
                scores = k @ q[0] / np.sqrt(e)
            scores[~valid[t]] = -np.inf
            w = naive_softmax(scores)
            weights[b, t] = w
            out[b, t] = w @ v
    return out, weights
