"""Summarizer layers: linear, depthwise-separable, and the expander with
its widened-slot memory discipline."""

import numpy as np
import pytest

from lmn.memory import (
    SlotState,
    parallel_memory,
    push_token,
    sequential_memory,
    slot_widths,
    snapshot,
    valid_mask,
)
from lmn.summarizers import ExpanderSummarizer, LinearSummarizer
from lmn.tensor import Tensor, make_rng, no_grad

from conftest import block_layers, prefix_blocks, slot_blocks


def expander(e, seed, k):
    """The summarizer of an expsum block with expansion k."""
    return block_layers(e, seed, variant="expsum", expansion=k)[1][0]


def test_identity_weight_picks_older():
    e = 4
    w = np.zeros((2 * e, e), dtype=np.float32)
    w[:e] = np.eye(e)
    s = LinearSummarizer(Tensor(w))
    a = Tensor(np.arange(e, dtype=np.float32).reshape(1, e))
    b = Tensor(np.full((1, e), 7.0, dtype=np.float32))
    assert np.array_equal(s.merge_pair(a, b).data, a.data)


def test_identity_weight_picks_newer():
    e = 4
    w = np.zeros((2 * e, e), dtype=np.float32)
    w[e:] = np.eye(e)
    s = LinearSummarizer(Tensor(w))
    a = Tensor(np.zeros((1, e), dtype=np.float32))
    b = Tensor(np.arange(e, dtype=np.float32).reshape(1, e))
    assert np.array_equal(s.merge_pair(a, b).data, b.data)


def test_linear_summarizer_matches_naive_loop():
    e = 5
    rng = make_rng(1)
    s = block_layers(e, 1)[1][0]
    a = rng.standard_normal(e).astype(np.float32)
    b = rng.standard_normal(e).astype(np.float32)
    got = s.merge_pair(Tensor(a.reshape(1, e)), Tensor(b.reshape(1, e))).data[0]
    cat = np.concatenate([a, b]).astype(np.float64)
    expect = np.array([float(cat @ s.weight.data[:, j].astype(np.float64)) for j in range(e)])
    expect += s.bias.data
    assert np.allclose(got, expect, atol=1e-5)


def test_dsconv_and_linear_agree_under_constructed_weights():
    # depthwise d [E, 2] and pointwise P encode the linear weight
    # [diag(d[:, 0]) P; diag(d[:, 1]) P], built here in numpy alone
    e = 6
    rng = make_rng(2)
    a = Tensor(rng.standard_normal((1, e)))
    b = Tensor(rng.standard_normal((1, e)))
    x = Tensor(rng.standard_normal((2, 8, 1, e)))
    for bias in (True, False):
        ds = block_layers(e, 2, np.float64, summarizer="dsconv", summarizer_bias=bias)[1][0]
        assert (ds.bias is not None) == bias
        ds.merge_pair(a, b)
        # AdamW rebinds p.data: the next merge must read the new factors
        ds.depthwise.data = rng.standard_normal((e, 2))
        ds.pointwise.data = rng.standard_normal((e, e))
        dw, pw = ds.depthwise.data, ds.pointwise.data
        lin = LinearSummarizer(Tensor(np.concatenate([dw[:, :1] * pw, dw[:, 1:] * pw])), ds.bias)
        assert np.abs(ds.merge_pair(a, b).data - lin.merge_pair(a, b).data).max() <= 1e-12
        assert np.abs(ds.merge_level(x).data - lin.merge_level(x).data).max() <= 1e-12


@pytest.mark.parametrize("S,k,expect_widths,expect_total", [
    (4, 1, [1, 2, 3, 4], 10),
    (5, 0, [1, 1, 1, 1, 1], 5),
    (13, 1, None, 91),
    (6, 2, [1, 3, 5, 7, 9, 11], 36),
])
def test_expanded_slot_widths(S, k, expect_widths, expect_total):
    widths = slot_widths(S, k)
    if expect_widths is not None:
        assert widths == expect_widths
    assert sum(widths) == expect_total == S + k * S * (S - 1) // 2


def test_expanded_widths_formula_matches_counter_run():
    # run the expander counter for 8192 tokens and confirm slot totals
    S, k = 13, 1
    widths = slot_widths(S, k)
    assert sum(widths) == 91
    mask = valid_mask(8192, S, k)
    worst = int(mask.sum(axis=1).max())
    assert worst <= 1 + sum(widths)


@pytest.mark.parametrize("k,w,expect", [(1, 1, 2), (1, 2, 3), (2, 1, 3)])
def test_expand_merge_widths(k, w, expect):
    e = 4
    rng = make_rng(3)
    es = expander(e, 3, k)
    left = Tensor(rng.standard_normal((w, e)).astype(np.float32))
    right = Tensor(rng.standard_normal((w, e)).astype(np.float32))
    out = es.merge_blocks(left, right)
    assert out.shape == (expect, e)


def test_expand_merge_width_mismatch_errors():
    e = 4
    es = expander(e, 4, 1)
    with pytest.raises(ValueError):
        es.merge_blocks(Tensor(np.zeros((1, e), dtype=np.float32)),
                        Tensor(np.zeros((2, e), dtype=np.float32)))


def test_expander_block_widths_follow_formula():
    e = 4
    es = expander(e, 5, 1)
    state = SlotState.fresh(4, 1, 1, e, np.float32)
    rng = make_rng(6)
    for _ in range(12):
        push_token(state, Tensor(rng.standard_normal((1, e)).astype(np.float32)), [es])
    for level in range(4):
        if state.occupied(level):
            assert slot_blocks(state)[level].shape == (1 + level, e)


def test_snapshot_expanded_valid_rows():
    e = 4
    es = expander(e, 7, 1)
    rng = make_rng(8)
    state = SlotState.fresh(3, 1, 1, e, np.float32)
    for _ in range(5):
        push_token(state, Tensor(rng.standard_normal((1, e)).astype(np.float32)), [es])
    mem = snapshot(state, Tensor(rng.standard_normal((1, e)).astype(np.float32)))
    # t=5 = 101b with widths 1+l: 1 (current) + w0 + w2 = 5 valid rows
    assert mem.valid.sum() == 5
    assert mem.data.shape == (1, 1, 1, 1 + 1 + 2 + 3, e)
    state0 = SlotState.fresh(3, 1, 1, e, np.float32)
    assert snapshot(state0, Tensor(np.zeros((1, e), dtype=np.float32))).valid.sum() == 1


def test_expanded_valid_counts_match_oracle():
    S, k = 12, 1
    widths = slot_widths(S, k)
    mask = valid_mask(4096, S, k)
    for t in range(4096):
        expect = 1 + sum(widths[level] for level, _ in prefix_blocks(t))
        assert mask[t].sum() == expect


def test_expanded_parallel_equals_sequential():
    e, L = 8, 32
    es = expander(e, 9, 1)
    x = Tensor(make_rng(10).standard_normal((2, L, e)).astype(np.float32))
    with no_grad():
        par = parallel_memory(x, [es])
        seq = sequential_memory(x, [es])
    assert np.array_equal(par.valid, seq.valid)
    assert np.abs(par.data.data - seq.data.data).max() <= 1e-5


def test_expanded_parallel_equals_sequential_k2_ragged():
    e, L = 4, 11
    es = expander(e, 11, 2)
    x = Tensor(make_rng(12).standard_normal((1, L, e)).astype(np.float32))
    with no_grad():
        par = parallel_memory(x, [es])
        seq = sequential_memory(x, [es])
    assert np.abs(par.data.data - seq.data.data).max() <= 1e-5


def test_expander_k0_matches_plain_linear_summarizer():
    # k=0: transposed conv has kernel 1; with identity expander weights the
    # whole merge is the [2E -> E] linear map of the conv kernel
    e = 4
    rng = make_rng(13)
    conv_w = rng.standard_normal((2, e, e)).astype(np.float32)
    es = ExpanderSummarizer(Tensor(conv_w), Tensor(np.eye(e, dtype=np.float32)[None]), k=0)
    lin = LinearSummarizer(Tensor(np.concatenate([conv_w[0], conv_w[1]], axis=0)))
    a = Tensor(rng.standard_normal((1, e)).astype(np.float32))
    b = Tensor(rng.standard_normal((1, e)).astype(np.float32))
    got = es.merge_blocks(a, b).data
    expect = lin.merge_pair(a, b).data
    assert np.allclose(got, expect, atol=1e-6)
    assert slot_widths(6, 0) == [1] * 6

