"""Memory construction: carry chain, snapshots, pyramid, gather, and the
sequential/parallel equivalence that everything else leans on."""

import numpy as np
import pytest

from lmn.counters import COUNTER
from lmn.memory import (
    CapacityError,
    SlotState,
    build_pyramid,
    gather_memory,
    levels_for,
    parallel_memory,
    push_token,
    sequential_memory,
    snapshot,
    valid_mask,
)
from lmn.summarizers import DsConvSummarizer, ExpanderSummarizer, LinearSummarizer
from lmn.tensor import Tensor, make_rng, no_grad

from conftest import linear_merge_fn, prefix_blocks, tree_summary


def make_summ(e, seed=0, bias=True):
    return LinearSummarizer.init(make_rng(seed), e, bias=bias)


def identity_summarizer(e, which="older"):
    """Weights picking one side of the pair exactly."""
    w = np.zeros((2 * e, e), dtype=np.float32)
    block = np.eye(e, dtype=np.float32)
    if which == "older":
        w[:e] = block
    else:
        w[e:] = block
    return LinearSummarizer(Tensor(w))


def test_push_token_first_three_examples():
    e = 3
    summ = make_summ(e)
    state = SlotState.fresh(3)
    x0 = Tensor(np.arange(e, dtype=np.float32).reshape(1, e))
    push_token(state, x0, summ)
    assert state.consumed == 1
    assert np.array_equal(state.slots[0].data, x0.data)

    x1 = Tensor((np.arange(e) + 10).astype(np.float32).reshape(1, e))
    push_token(state, x1, summ)
    assert state.consumed == 2
    assert state.slots[0] is None
    expect = summ.merge_pair(x0, x1).data
    assert np.allclose(state.slots[1].data, expect)


def test_push_token_carry_chain_t3():
    e = 2
    summ = make_summ(e)
    rng = make_rng(2)
    xs = [Tensor(rng.standard_normal((1, e)).astype(np.float32)) for _ in range(4)]
    state = SlotState.fresh(3)
    for x in xs:
        push_token(state, x, summ)
    assert state.consumed == 4
    assert state.slots[0] is None and state.slots[1] is None
    s01 = summ.merge_pair(xs[0], xs[1])
    s23 = summ.merge_pair(xs[2], xs[3])
    expect = summ.merge_pair(s01, s23).data
    assert np.allclose(state.slots[2].data, expect, atol=1e-6)


def test_push_overflow_raises_capacity():
    summ = make_summ(2)
    state = SlotState.fresh(1)
    x = Tensor(np.ones((1, 2), dtype=np.float32))
    push_token(state, x, summ)
    push_token(state, x, summ)  # fills level 1 (the root)
    with pytest.raises(CapacityError):
        push_token(state, x, summ)


@pytest.mark.parametrize("t,expect_valid", [
    (5, [True, True, False, True]),
    (0, [True, False, False, False]),
    (6, [True, False, True, True]),
])
def test_snapshot_validity_patterns(t, expect_valid):
    e = 2
    summ = make_summ(e)
    state = SlotState.fresh(3)
    rng = make_rng(3)
    for _ in range(t):
        push_token(state, Tensor(rng.standard_normal((1, e)).astype(np.float32)), summ)
    cur = Tensor(rng.standard_normal((1, e)).astype(np.float32))
    row, valid = snapshot(state, cur)
    assert valid.tolist() == expect_valid
    assert np.array_equal(row.data[0], cur.data[0])
    for i, v in enumerate(expect_valid[1:], start=1):
        if not v:
            assert np.all(row.data[i] == 0.0)


def test_snapshot_t5_contents():
    # t=5 = 101b: slot 0 holds x4, slot 2 holds the summary of x0..x3
    e = 2
    summ = make_summ(e)
    rng = make_rng(4)
    xs = [Tensor(rng.standard_normal((1, e)).astype(np.float32)) for _ in range(6)]
    state = SlotState.fresh(3)
    for x in xs[:5]:
        push_token(state, x, summ)
    row, valid = snapshot(state, xs[5])
    merge = linear_merge_fn(summ.weight.data, summ.bias.data)
    xs_np = np.stack([x.data[0] for x in xs[:5]])
    assert np.allclose(row.data[1], xs_np[4], atol=1e-6)
    assert np.allclose(row.data[3], tree_summary(xs_np, 2, 0, merge), atol=1e-5)


def test_sequential_memory_single_token():
    e = 4
    x = Tensor(np.arange(e, dtype=np.float32).reshape(1, 1, e))
    mem = sequential_memory(x, make_summ(e))
    assert mem.valid.tolist() == [[True, False]]
    assert np.array_equal(mem.data.data[0, 0, 0], x.data[0, 0])
    assert np.all(mem.data.data[0, 0, 1] == 0.0)


def test_sequential_memory_matches_prefix_decomposition_oracle():
    # recompute every prefix from scratch with the recursive tree oracle
    e, L = 3, 13
    summ = make_summ(e, seed=9)
    rng = make_rng(5)
    x = rng.standard_normal((1, L, e)).astype(np.float32)
    mem = sequential_memory(Tensor(x), summ)
    merge = linear_merge_fn(summ.weight.data, summ.bias.data)
    S = levels_for(L)
    for t in range(L):
        assert np.array_equal(mem.data.data[0, t, 0], x[0, t])
        occupied = {level: start for level, start in prefix_blocks(t)}
        for level in range(S):
            if level in occupied:
                expect = tree_summary(x[0], level, occupied[level], merge)
                assert np.allclose(mem.data.data[0, t, level + 1], expect, atol=1e-4)
            else:
                assert np.all(mem.data.data[0, t, level + 1] == 0.0)


def test_valid_level_counts_are_popcount_plus_one():
    mask = valid_mask(4096, 12)
    counts = mask.sum(axis=1)
    expect = np.array([bin(t).count("1") + 1 for t in range(4096)])
    assert np.array_equal(counts, expect)
    bound = np.floor(np.log2(np.maximum(np.arange(4096), 1))) + 2
    assert np.all(counts <= bound)


def test_pyramid_level_sizes():
    e = 2
    summ = make_summ(e)
    p4 = build_pyramid(Tensor(np.zeros((1, 4, e), dtype=np.float32)), summ)
    assert [lvl.shape[1] for lvl in p4.levels] == [4, 2, 1]
    p5 = build_pyramid(Tensor(np.zeros((1, 5, e), dtype=np.float32)), summ)
    assert [lvl.shape[1] for lvl in p5.levels] == [8, 4, 2, 1]


def test_pyramid_pairing_definition():
    e = 2
    summ = make_summ(e, seed=11)
    rng = make_rng(6)
    x = rng.standard_normal((1, 4, e)).astype(np.float32)
    p = build_pyramid(Tensor(x), summ)
    expect = summ.merge_pair(Tensor(x[:, 2]), Tensor(x[:, 3])).data
    assert np.allclose(p.levels[1].data[0, 1], expect[0], atol=1e-6)


def test_gather_closed_form_indices():
    # t=5 pulls levels[2][0] and levels[0][4]; t=6 pulls levels[1][2]
    e = 2
    summ = make_summ(e, seed=12)
    rng = make_rng(7)
    x = rng.standard_normal((1, 8, e)).astype(np.float32)
    p = build_pyramid(Tensor(x), summ)
    mem = gather_memory(p, 8)
    assert np.array_equal(mem.data.data[0, 5, 3], p.levels[2].data[0, 0, 0])
    assert np.array_equal(mem.data.data[0, 5, 1], p.levels[0].data[0, 4, 0])
    assert np.array_equal(mem.data.data[0, 6, 2], p.levels[1].data[0, 2, 0])


def test_parallel_equals_sequential_random():
    e, L, b = 16, 64, 2
    summ = make_summ(e, seed=13)
    rng = make_rng(8)
    x = Tensor(rng.standard_normal((b, L, e)).astype(np.float32))
    with no_grad():
        par = parallel_memory(x, summ)
        seq = sequential_memory(x, summ)
    assert np.array_equal(par.valid, seq.valid)
    assert np.abs(par.data.data - seq.data.data).max() <= 1e-5


def test_parallel_equals_sequential_non_power_of_two():
    e, L = 8, 23
    summ = make_summ(e, seed=14)
    x = Tensor(make_rng(9).standard_normal((1, L, e)).astype(np.float32))
    with no_grad():
        par = parallel_memory(x, summ)
        seq = sequential_memory(x, summ)
    assert np.abs(par.data.data - seq.data.data).max() <= 1e-5


def test_parallel_single_token_and_zero_input():
    e = 4
    summ = make_summ(e, bias=False)
    x = Tensor(np.zeros((1, 1, e), dtype=np.float32))
    with no_grad():
        par = parallel_memory(x, summ)
        seq = sequential_memory(x, summ)
    assert np.array_equal(par.data.data, seq.data.data)
    zero = Tensor(np.zeros((2, 8, e), dtype=np.float32))
    with no_grad():
        mem = parallel_memory(zero, summ)
    assert np.all(mem.data.data == 0.0)


def test_memory_causality_bit_exact():
    e, L = 8, 32
    summ = make_summ(e, seed=15)
    rng = make_rng(10)
    x = rng.standard_normal((1, L, e)).astype(np.float32)
    t = 13
    y = x.copy()
    y[0, t + 1:] = rng.standard_normal((L - t - 1, e))
    with no_grad():
        for build in (parallel_memory, sequential_memory):
            a = build(Tensor(x), summ).data.data[:, : t + 1]
            b = build(Tensor(y), summ).data.data[:, : t + 1]
            assert np.array_equal(a, b)


def test_summarizer_application_counts():
    e = 4
    summ = make_summ(e, seed=16)
    for L in (8, 13, 32):
        x = Tensor(make_rng(L).standard_normal((1, L, e)).astype(np.float32))
        COUNTER.reset()
        with no_grad():
            sequential_memory(x, summ)
        assert COUNTER.summarizer_ops == L - bin(L).count("1")
        COUNTER.reset()
        with no_grad():
            parallel_memory(x, summ)
        L_pad = 1 << levels_for(L)
        assert COUNTER.summarizer_ops == L_pad - 1
    # for powers of two the sequential count is the spec's L - 1
    assert 8 - bin(8).count("1") == 7


def test_sequence_longer_than_capacity_errors():
    e = 2
    summ = make_summ(e)
    x = Tensor(np.zeros((1, 9, e), dtype=np.float32))
    with pytest.raises(CapacityError):
        sequential_memory(x, summ, n_levels=3)
    with pytest.raises(CapacityError):
        parallel_memory(x, summ, n_levels=3)


def test_identity_summarizers_expose_merge_order():
    # "older" identity weights must propagate the oldest token up the tree
    e = 3
    older = identity_summarizer(e, "older")
    rng = make_rng(17)
    x = rng.standard_normal((1, 8, e)).astype(np.float32)
    with no_grad():
        mem = sequential_memory(Tensor(x), older)
    # at t=4, slot 2 summarizes x0..x3; picking "older" at every merge -> x0
    assert np.allclose(mem.data.data[0, 4, 3], x[0, 0], atol=1e-6)
    newer = identity_summarizer(e, "newer")
    with no_grad():
        mem2 = sequential_memory(Tensor(x), newer)
    assert np.allclose(mem2.data.data[0, 4, 3], x[0, 3], atol=1e-6)


SUMMARIZERS = {
    "linear": lambda rng, e: LinearSummarizer.init(rng, e),
    "dsconv": lambda rng, e: DsConvSummarizer.init(rng, e),
    "expander-k1": lambda rng, e: ExpanderSummarizer.init(rng, e, k=1),
    "expander-k2": lambda rng, e: ExpanderSummarizer.init(rng, e, k=2),
}


@pytest.mark.parametrize("name", sorted(SUMMARIZERS))
def test_one_block_tree_for_every_summarizer(name):
    # the same carry chain, snapshot, mask, pyramid and gather for every k
    b, L, e = 2, 13, 4
    rng = make_rng(18)
    summ = SUMMARIZERS[name](rng, e)
    x = Tensor(rng.standard_normal((b, L, e)).astype(np.float32))
    S = levels_for(L)
    with no_grad():
        par = parallel_memory(x, summ)
        seq = sequential_memory(x, summ)
        p = build_pyramid(x, summ)
    assert np.array_equal(par.valid, seq.valid)
    assert np.array_equal(par.valid, valid_mask(L, S, summ.k))
    assert np.abs(par.data.data - seq.data.data).max() <= 1e-5
    assert [lvl.shape for lvl in p.levels] == [(b, 16 >> level, 1 + level * summ.k, e)
                                               for level in range(S + 1)]
    state = SlotState.fresh(S, summ.k)
    with no_grad():
        for t in range(L):
            xt = Tensor(x.data[0, t:t + 1])
            row, valid = snapshot(state, xt)
            assert row.shape == (par.valid.shape[1], e)
            assert np.array_equal(valid, par.valid[t])
            push_token(state, xt, summ)
