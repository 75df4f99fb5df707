"""Memory construction: carry chain, snapshots, pyramid, gather, and the
sequential/parallel equivalence that everything else leans on."""

import itertools

import numpy as np
import pytest

from lmn.counters import COUNTER
from lmn.memory import (
    CapacityError,
    Pyramid,
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
from lmn.model import VARIANTS, ModelConfig, build_model
from lmn.summarizers import LinearSummarizer
from lmn.tensor import (
    Tensor,
    concat,
    grad_check,
    index_select,
    make_rng,
    mul,
    no_grad,
    reshape,
    sum_axis,
    zeros,
)

from conftest import block_layers, linear_merge_fn, prefix_blocks, slot_blocks, tree_summary


def make_summ(e, seed=0, **cfg):
    """The summarizer of a one-bank block (linear unless cfg says otherwise)."""
    return block_layers(e, seed, banks=1, **cfg)[1][0]


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
    assert np.array_equal(slot_blocks(state)[0], x0.data)

    x1 = Tensor((np.arange(e) + 10).astype(np.float32).reshape(1, e))
    push_token(state, x1, summ)
    assert state.consumed == 2
    assert slot_blocks(state)[0] is None
    expect = summ.merge_pair(x0, x1).data
    assert np.allclose(slot_blocks(state)[1], expect)


def test_push_token_carry_chain_t3():
    e = 2
    summ = make_summ(e)
    rng = make_rng(2)
    xs = [Tensor(rng.standard_normal((1, e)).astype(np.float32)) for _ in range(4)]
    state = SlotState.fresh(3)
    for x in xs:
        push_token(state, x, summ)
    assert state.consumed == 4
    assert slot_blocks(state)[:2] == [None, None]
    s01 = summ.merge_pair(xs[0], xs[1])
    s23 = summ.merge_pair(xs[2], xs[3])
    expect = summ.merge_pair(s01, s23).data
    assert np.allclose(slot_blocks(state)[2], expect, atol=1e-6)


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
    # t=5 pulls levels[2][0] and levels[0][4]; t=6 pulls levels[1][2]: every
    # (t, level, row) against levels[l][2 * (t >> (l+1))], invalid rows exactly 0,
    # at B=2, a power-of-two and an odd (padded) L, one-row and widening blocks
    e, b = 3, 2
    for k, L in itertools.product((0, 2), (8, 13)):
        summ = make_summ(e, seed=12) if k == 0 else make_summ(e, 12, variant="expsum", expansion=k)
        x = make_rng(7).standard_normal((b, L, e)).astype(np.float32)
        p = build_pyramid(Tensor(x), summ)
        mem = gather_memory(p, L)
        assert mem.data.shape == (b, L, mem.valid.shape[1], e)
        assert np.array_equal(mem.data.data[:, :, 0], x)
        for t in range(L):
            col = 1
            for level in range(len(p.levels) - 1):
                w = 1 + level * k
                got = mem.data.data[:, t, col:col + w]
                if (t >> level) & 1:
                    assert mem.valid[t, col:col + w].all()
                    assert np.array_equal(got, p.levels[level].data[:, 2 * (t >> (level + 1))])
                else:
                    assert not mem.valid[t, col:col + w].any()
                    assert np.array_equal(got, np.zeros_like(got))
                col += w
            assert col == mem.valid.shape[1]


def index_select_gather(p, L):
    """The gather as one index_select over the row table with a zero row
    appended: an [L, D] table of row indices, empty slots pointing at the
    zero row. The reference for gather_memory's closed-form read."""
    n_levels = len(p.levels) - 1
    b, _, _, e = p.levels[0].shape
    t = np.arange(L, dtype=np.int64)
    mask = valid_mask(L, n_levels, p.k)
    flat, cols, off = [], [t[:, None]], 0
    for level in range(n_levels):
        _, n, w, _ = p.levels[level].shape
        flat.append(reshape(p.levels[level], (b, n * w, e)))
        cols.append((off + 2 * (t >> (level + 1)) * w)[:, None] + np.arange(w))
        off += n * w
    flat.append(zeros((b, 1, e), dtype=p.levels[0].dtype))
    table = np.concatenate(cols, axis=1)
    table[~mask] = off
    data = index_select(concat(flat, axis=1), 1, table.reshape(-1))
    return reshape(data, (b, L, mask.shape[1], e))


def leaf_pyramid(b, L, e, k, seed):
    """Random float64 leaf tensors in the shapes build_pyramid gives, root included."""
    S = levels_for(L)
    rng = make_rng(seed)
    return Pyramid([Tensor(rng.standard_normal((b, (1 << S) >> level, 1 + level * k, e)),
                           requires_grad=True) for level in range(S + 1)], k)


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("L", [8, 13])
def test_gather_float64_gradients(L, k):
    p = leaf_pyramid(2, L, 3, k, seed=20 + L + k)
    d = valid_mask(L, levels_for(L), k).shape[1]
    target = Tensor(make_rng(21).standard_normal((2, L, d, 3)))
    err = grad_check(lambda _: sum_axis(mul(gather_memory(p, L).data, target)), p.levels, eps=1e-5)
    assert err <= 1e-4


@pytest.mark.parametrize("k", [0, 1, 2])
def test_gather_matches_index_select_oracle(k):
    # forward bit-equal; backward equal up to float64 summation order
    for L in (1, 2, 3, 5, 8, 13, 16, 37, 64):
        p = leaf_pyramid(2, L, 3, k, seed=30 + L)
        got = gather_memory(p, L).data
        ref = index_select_gather(p, L)
        assert np.array_equal(got.data, ref.data)
        target = Tensor(make_rng(31 + L).standard_normal(got.shape))
        sum_axis(mul(got, target)).backward()
        grads = [lv.grad for lv in p.levels]
        for lv in p.levels:
            lv.grad = None
        sum_axis(mul(ref, target)).backward()
        for g, lv in zip(grads, p.levels):
            if lv.grad is None:  # the root: read by neither
                assert g is None
            else:
                assert np.abs(g - lv.grad).max() <= 1e-12


@pytest.mark.parametrize("variant", VARIANTS)
def test_parallel_logits_match_stepping_at_odd_length(variant):
    # L = 37 pads the pyramid to 64 and leaves a partial last group at every level
    cfg = ModelConfig(variant=variant, vocab_size=23, embed=8, max_seq_len=64, n_blocks=1,
                      banks=1 if variant == "expsum" else 2, expansion=2, seed=3)
    model = build_model(cfg)
    tokens = make_rng(4).integers(0, cfg.vocab_size, size=(2, 37))
    with no_grad():
        par = model.forward(tokens, mode="parallel").data
        seq = model.forward(tokens, mode="sequential").data
    assert np.abs(par - seq).max() <= 1e-4


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
    summ = make_summ(e, summarizer_bias=False)
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
    "linear": dict(summarizer="linear"),
    "dsconv": dict(summarizer="dsconv"),
    "expander-k1": dict(variant="expsum", expansion=1),
    "expander-k2": dict(variant="expsum", expansion=2),
}


@pytest.mark.parametrize("name", sorted(SUMMARIZERS))
def test_one_block_tree_for_every_summarizer(name):
    # the same carry chain, snapshot, mask, pyramid and gather for every k
    b, L, e = 2, 13, 4
    rng = make_rng(18)
    summ = make_summ(e, 18, **SUMMARIZERS[name])
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


@pytest.mark.parametrize("name", ["linear", "expander-k1"])
def test_snapshot_and_state_share_no_memory(name):
    # a snapshot is a copy: the carry chain that zeroes and rewrites the
    # rows it was taken from leaves it alone, and so does a later write
    # to the pushed token
    e = 3
    rng = make_rng(19)
    summ = make_summ(e, 19, **SUMMARIZERS[name])
    state = SlotState.fresh(3, summ.k)
    with no_grad():
        for _ in range(3):
            push_token(state, Tensor(rng.standard_normal((1, e)).astype(np.float32)), summ)
        x = Tensor(rng.standard_normal((1, e)).astype(np.float32))
        row, valid = snapshot(state, x)
        kept_row, kept_valid = row.data.copy(), valid.copy()
        push_token(state, x, summ)  # t = 3 -> 4: merges levels 0 and 1 into level 2
        assert np.array_equal(row.data, kept_row) and np.array_equal(valid, kept_valid)
        after, _ = snapshot(state, x)
        x.data[:] = 7.0
        again, _ = snapshot(state, Tensor(after.data[:1].copy()))
    assert np.array_equal(again.data, after.data)
