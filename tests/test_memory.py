"""Memory construction: carry chain, snapshots, pyramid, gather, and the
sequential/parallel equivalence that everything else leans on."""

import itertools

import numpy as np
import pytest

from lmn.counters import COUNTER
from lmn.memory import (
    CapacityError,
    RowTable,
    SlotState,
    build_pyramid,
    gather_memory,
    levels_for,
    parallel_memory,
    push_token,
    sequential_memory,
    slot_widths,
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
    transpose,
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


@pytest.mark.parametrize("L,S", [(1, 1), (2, 1), (3, 2), (1024, 10), (1025, 11), (2**49 + 1, 50),
                                 (2**63, 63), (10**20, 67)])
def test_levels_for_is_exact_at_any_length(L, S):
    # a float log2 rounds 2**49 + 1 down to a power of two, and numpy takes no int past 2**64
    assert levels_for(L) == S


def test_push_token_first_three_examples():
    e = 3
    summ = make_summ(e)
    state = SlotState.fresh(3, 0, 1, e, np.float32)
    x0 = Tensor(np.arange(e, dtype=np.float32).reshape(1, e))
    push_token(state, x0, [summ])
    assert state.consumed == 1
    assert np.array_equal(slot_blocks(state)[0], x0.data)

    x1 = Tensor((np.arange(e) + 10).astype(np.float32).reshape(1, e))
    push_token(state, x1, [summ])
    assert state.consumed == 2
    assert slot_blocks(state)[0] is None
    expect = summ.merge_pair(x0, x1).data
    assert np.allclose(slot_blocks(state)[1], expect)


def test_push_token_carry_chain_t3():
    e = 2
    summ = make_summ(e)
    rng = make_rng(2)
    xs = [Tensor(rng.standard_normal((1, e)).astype(np.float32)) for _ in range(4)]
    state = SlotState.fresh(3, 0, 1, e, np.float32)
    for x in xs:
        push_token(state, x, [summ])
    assert state.consumed == 4
    assert slot_blocks(state)[:2] == [None, None]
    s01 = summ.merge_pair(xs[0], xs[1])
    s23 = summ.merge_pair(xs[2], xs[3])
    expect = summ.merge_pair(s01, s23).data
    assert np.allclose(slot_blocks(state)[2], expect, atol=1e-6)


def test_push_overflow_raises_capacity():
    # the last push of a full sequence carries the root past level S-1: its
    # merges are made and counted, the root is dropped, and every level empties
    S, banks, e = 3, 2, 2
    summs = [make_summ(e, seed) for seed in range(banks)]
    state = SlotState.fresh(S, 0, banks, e, np.float32)
    x = Tensor(np.ones((1, e), dtype=np.float32))
    COUNTER.reset()
    for _ in range(1 << S):
        push_token(state, x, summs)
    assert state.rows.shape == (banks, 1 + S, e)
    assert np.all(state.rows[:, 1:] == 0.0)
    assert COUNTER.summarizer_ops == banks * ((1 << S) - 1)
    with pytest.raises(CapacityError):
        push_token(state, x, summs)


def test_push_token_refuses_a_summarizer_count_that_is_not_the_banks():
    # zip would run the chain for the shorter of the two, silently
    summ = make_summ(2)
    state = SlotState.fresh(3, 0, 2, 2, np.float32)
    with pytest.raises(ValueError, match="1 summarizers for 2 banks"):
        push_token(state, Tensor(np.ones((1, 2), dtype=np.float32)), [summ])
    assert state.consumed == 0


@pytest.mark.parametrize("t,expect_valid", [
    (5, [True, True, False, True]),
    (0, [True, False, False, False]),
    (6, [True, False, True, True]),
])
def test_snapshot_validity_patterns(t, expect_valid):
    e = 2
    summ = make_summ(e)
    state = SlotState.fresh(3, 0, 1, e, np.float32)
    rng = make_rng(3)
    for _ in range(t):
        push_token(state, Tensor(rng.standard_normal((1, e)).astype(np.float32)), [summ])
    cur = Tensor(rng.standard_normal((1, e)).astype(np.float32))
    mem = snapshot(state, cur)
    row = mem.data.data[0, 0, 0]
    assert mem.valid.tolist() == [expect_valid]
    assert np.array_equal(row[0], cur.data[0])
    for i, v in enumerate(expect_valid[1:], start=1):
        if not v:
            assert np.all(row[i] == 0.0)


def test_snapshot_t5_contents():
    # t=5 = 101b: slot 0 holds x4, slot 2 holds the summary of x0..x3
    e = 2
    summ = make_summ(e)
    rng = make_rng(4)
    xs = [Tensor(rng.standard_normal((1, e)).astype(np.float32)) for _ in range(6)]
    state = SlotState.fresh(3, 0, 1, e, np.float32)
    for x in xs[:5]:
        push_token(state, x, [summ])
    row = snapshot(state, xs[5]).data.data[0, 0, 0]
    merge = linear_merge_fn(summ.weight.data, summ.bias.data)
    xs_np = np.stack([x.data[0] for x in xs[:5]])
    assert np.allclose(row[1], xs_np[4], atol=1e-6)
    assert np.allclose(row[3], tree_summary(xs_np, 2, 0, merge), atol=1e-5)


def test_sequential_memory_single_token():
    e = 4
    x = Tensor(np.arange(e, dtype=np.float32).reshape(1, 1, e))
    mem = sequential_memory(x, [make_summ(e)])
    assert mem.valid.tolist() == [[True, False]]
    assert mem.data.shape == (1, 1, 1, 2, e)
    assert np.array_equal(mem.data.data[0, 0, 0, 0], x.data[0, 0])
    assert np.all(mem.data.data[0, 0, 0, 1] == 0.0)


def test_sequential_memory_matches_prefix_decomposition_oracle():
    # recompute every prefix from scratch with the recursive tree oracle
    e, L = 3, 13
    summ = make_summ(e, seed=9)
    rng = make_rng(5)
    x = rng.standard_normal((1, L, e)).astype(np.float32)
    rows = sequential_memory(Tensor(x), [summ]).data.data[0, :, 0]  # the one bank
    merge = linear_merge_fn(summ.weight.data, summ.bias.data)
    S = levels_for(L)
    for t in range(L):
        assert np.array_equal(rows[t, 0], x[0, t])
        occupied = {level: start for level, start in prefix_blocks(t)}
        for level in range(S):
            if level in occupied:
                expect = tree_summary(x[0], level, occupied[level], merge)
                assert np.allclose(rows[t, level + 1], expect, atol=1e-4)
            else:
                assert np.all(rows[t, level + 1] == 0.0)


def test_valid_level_counts_are_popcount_plus_one():
    mask = valid_mask(4096, 12)
    counts = mask.sum(axis=1)
    expect = np.array([bin(t).count("1") + 1 for t in range(4096)])
    assert np.array_equal(counts, expect)
    bound = np.floor(np.log2(np.maximum(np.arange(4096), 1))) + 2
    assert np.all(counts <= bound)


def tree_summ(e, k, seed=0):
    """A one-bank summarizer of expansion factor k: linear for 0, the expander otherwise."""
    return make_summ(e, seed) if k == 0 else make_summ(e, seed, variant="expsum", expansion=k)


def level_blocks(table, level):
    """Level l of a one-bank row table as [B, (1 << S) >> l, w_l, E]."""
    S, widths = table.n_levels, slot_widths(table.n_levels, table.k)
    off = sum(((1 << S) >> lv) * w for lv, w in enumerate(widths[:level]))
    n, w = (1 << S) >> level, widths[level]
    b, banks, _, e = table.rows.shape
    assert banks == 1
    return table.rows.data[:, 0, off:off + n * w].reshape(b, n, w, e)


# (L, k) -> rows of the table: levels 0..S-1 of the pyramid padded to 2^S,
# level l holding 2^S >> l blocks of 1 + l*k rows; the root is left out
TABLE_ROWS = {(1, 0): 2, (2, 0): 2, (5, 0): 8 + 4 + 2, (13, 0): 16 + 8 + 4 + 2,
              (1, 2): 2, (2, 2): 2, (5, 2): 8 + 4 * 3 + 2 * 5, (13, 2): 16 + 8 * 3 + 4 * 5 + 2 * 7}


def test_pyramid_level_sizes():
    # L = 1 and 2 are one level (S = 1): a table of level 0 alone
    e = 2
    for (L, k), n_rows in TABLE_ROWS.items():
        summ = tree_summ(e, k)
        x = make_rng(L).standard_normal((1, L, e)).astype(np.float32)
        COUNTER.reset()
        table = build_pyramid(Tensor(x), [summ])
        S = levels_for(L)
        assert isinstance(table, RowTable) and (table.n_levels, table.k) == (S, k)
        assert table.rows.shape == (1, 1, n_rows, e), (L, k)
        assert COUNTER.summarizer_ops == (1 << S) - 1  # merged up to the root
        level0 = level_blocks(table, 0)[:, :, 0]
        assert np.array_equal(level0[:, :L], x) and not level0[:, L:].any()


def test_pyramid_pairing_definition():
    # block j of level 1 merges tokens 2j and 2j+1, older first (padding is zeros)
    e = 2
    for L, k in TABLE_ROWS:
        summ = tree_summ(e, k, seed=11)
        x = make_rng(6).standard_normal((1, L, e)).astype(np.float32)
        table = build_pyramid(Tensor(x), [summ])
        L_pad = 1 << levels_for(L)
        if table.n_levels == 1:
            assert table.rows.shape[2] == L_pad  # level 0 alone: no level-1 rows
            continue
        padded = np.concatenate([x, np.zeros((1, L_pad - L, e), dtype=np.float32)], axis=1)
        blocks = level_blocks(table, 1)
        assert blocks.shape == (1, L_pad // 2, 1 + k, e)
        for j in range(L_pad // 2):
            expect = summ.merge_pair(Tensor(padded[:, 2 * j:2 * j + 1]),
                                     Tensor(padded[:, 2 * j + 1:2 * j + 2])).data
            assert np.allclose(blocks[:, j], expect, atol=1e-6), (L, k, j)


def test_gather_closed_form_indices():
    # t=5 pulls levels[2][0] and levels[0][4]; t=6 pulls levels[1][2]: every
    # (t, level, row) against levels[l][2 * (t >> (l+1))], invalid rows exactly 0,
    # at B=2, a power-of-two and an odd (padded) L, one-row and widening blocks
    e, b = 3, 2
    for k, L in itertools.product((0, 2), (8, 13)):
        summ = tree_summ(e, k, seed=12)
        x = make_rng(7).standard_normal((b, L, e)).astype(np.float32)
        table = build_pyramid(Tensor(x), [summ])
        mem = gather_memory(table, 0, L)
        assert mem.data.shape == (b, L, 1, mem.valid.shape[1], e)
        assert np.array_equal(mem.data.data[:, :, 0, 0], x)
        for t in range(L):
            col = 1
            for level in range(table.n_levels):
                w = 1 + level * k
                got = mem.data.data[:, t, 0, col:col + w]
                if (t >> level) & 1:
                    assert mem.valid[t, col:col + w].all()
                    assert np.array_equal(got, level_blocks(table, level)[:, 2 * (t >> (level + 1))])
                else:
                    assert not mem.valid[t, col:col + w].any()
                    assert np.array_equal(got, np.zeros_like(got))
                col += w
            assert col == mem.valid.shape[1]


def index_select_gather(table, L):
    """The gather as one index_select over the row table with a zero row
    appended: an [L, D] table of row indices, empty slots pointing at the
    zero row, taken from every bank at once. The reference for
    gather_memory's closed-form read."""
    S, k, rows = table.n_levels, table.k, table.rows
    b, banks, _, e = rows.shape
    t = np.arange(L, dtype=np.int64)
    mask = valid_mask(L, S, k)
    cols, off = [t[:, None]], 0
    for level, w in enumerate(slot_widths(S, k)):
        cols.append((off + 2 * (t >> (level + 1)) * w)[:, None] + np.arange(w))
        off += ((1 << S) >> level) * w
    assert off == rows.shape[2]
    index = np.concatenate(cols, axis=1)
    index[~mask] = off
    data = index_select(concat([rows, zeros((b, banks, 1, e), dtype=rows.dtype)], axis=2), 2,
                        index.reshape(-1))
    return transpose(reshape(data, (b, banks, L, mask.shape[1], e)), (0, 2, 1, 3, 4))


def kept_columns(S, k, start, stop):
    """The [D] columns a read of positions start..stop-1 keeps: row 0 and
    every level l except those with start >> l == (stop-1) >> l and bit l
    of start clear, the levels no position of the range occupies."""
    kept = [True]
    for level, w in enumerate(slot_widths(S, k)):
        kept += [start >> level != (stop - 1) >> level or (start >> level) & 1 == 1] * w
    return np.array(kept)


def assert_pruned(got, valid, full, full_valid, kept):
    """A range read (data ``got``, mask ``valid``) is the oracle's rows and
    mask (``full``, ``full_valid``: every D column) on the kept columns,
    and every dropped column is invalid at every position and zero."""
    assert np.array_equal(got, full[:, :, :, kept])
    assert np.array_equal(valid, full_valid[:, kept])
    assert not full_valid[:, ~kept].any()
    assert np.all(full[:, :, :, ~kept] == 0.0)


def leaf_table(b, L, e, k, seed, banks=1):
    """A random float64 leaf row table in the shape build_pyramid gives."""
    S = levels_for(L)
    n_rows = sum(((1 << S) >> level) * w for level, w in enumerate(slot_widths(S, k)))
    rows = Tensor(make_rng(seed).standard_normal((b, banks, n_rows, e)), requires_grad=True)
    return RowTable(rows=rows, n_levels=S, k=k)


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("L", [8, 13])
def test_gather_float64_gradients(L, k):
    table = leaf_table(2, L, 3, k, seed=20 + L + k)
    d = valid_mask(L, levels_for(L), k).shape[1]
    target = Tensor(make_rng(21).standard_normal((2, L, 1, d, 3)))
    err = grad_check(lambda _: sum_axis(mul(gather_memory(table, 0, L).data, target)),
                     [table.rows], eps=1e-5)
    assert err <= 1e-4


@pytest.mark.parametrize("k", [0, 1, 2])
def test_gather_matches_index_select_oracle(k):
    # forward bit-equal; backward equal up to float64 summation order
    # on the kept columns: at L = 1 the one position occupies no level
    for L, banks in itertools.product((1, 2, 3, 5, 8, 13, 16, 37, 64), (1, 3)):
        table = leaf_table(2, L, 3, k, seed=30 + L, banks=banks)
        mem = gather_memory(table, 0, L)
        got, ref = mem.data, index_select_gather(table, L)
        kept = kept_columns(levels_for(L), k, 0, L)
        assert kept.all() == (L > 1)
        assert_pruned(got.data, mem.valid, ref.data, valid_mask(L, levels_for(L), k), kept)
        target = make_rng(31 + L).standard_normal(got.shape)
        sum_axis(mul(got, Tensor(target))).backward()
        grad, table.rows.grad = table.rows.grad, None
        full_target = np.zeros(ref.shape)
        full_target[:, :, :, kept] = target
        sum_axis(mul(ref, Tensor(full_target))).backward()
        assert np.abs(grad - table.rows.grad).max() <= 1e-12


# a tile at every aligned start of an odd L, and every range of a short L
RANGES = ((37, [(start, min(start + size, 37)) for size in (1, 2, 4, 8, 16, 32)
                for start in range(0, 37, size)]),
          (13, list(itertools.combinations(range(14), 2))))


@pytest.mark.parametrize("k", [0, 2])
def test_range_read_is_the_same_rows_as_the_oracle(k):
    # the rows of the whole-sequence oracle and of the whole mask on the
    # range's kept columns, bit for bit
    for L, ranges in RANGES:
        table = leaf_table(2, L, 3, k, seed=40 + L + k)
        ref = index_select_gather(table, L).data
        valid = valid_mask(L, levels_for(L), k)
        for start, stop in ranges:
            mem = gather_memory(table, start, stop)
            assert_pruned(mem.data.data, mem.valid, ref[:, start:stop], valid[start:stop],
                          kept_columns(levels_for(L), k, start, stop))


@pytest.mark.parametrize("k", [0, 2])
def test_a_range_keeps_exactly_the_levels_its_positions_occupy(k):
    # the kept levels are those with a valid row at some position of the
    # range in the whole-sequence mask
    for L, ranges in RANGES:
        S = levels_for(L)
        table = leaf_table(1, L, 2, k, seed=45 + L + k)
        valid = valid_mask(L, S, k)
        for start, stop in ranges:
            occupied = valid[start:stop].any(axis=0)
            assert np.array_equal(kept_columns(S, k, start, stop), occupied), (L, start, stop)
            assert np.array_equal(gather_memory(table, start, stop).valid, valid[start:stop][:, occupied])
    # tiles of 16 of L = 37 drop levels 4 and 5, then 5, then 3 and 4
    first_cols = list(itertools.accumulate(slot_widths(6, k), initial=1))[:-1]
    drops = [[level for level, col in enumerate(first_cols) if not kept_columns(6, k, start, stop)[col]]
             for start, stop in ((0, 16), (16, 32), (32, 37))]
    assert drops == [[4, 5], [5], [3, 4]]


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("start,stop", [(16, 32), (32, 37)])
def test_range_read_float64_gradients(k, start, stop):
    # a full tile and the short last one of L = 37 in tiles of 16
    # (the first drops level 5, the second levels 3 and 4)
    L = 37
    table = leaf_table(1, L, 2, k, seed=50 + start + k)
    kept = kept_columns(levels_for(L), k, start, stop)
    mem = gather_memory(table, start, stop)
    assert_pruned(mem.data.data, mem.valid, index_select_gather(table, L).data[:, start:stop],
                  valid_mask(stop, levels_for(L), k, start), kept)
    target = Tensor(make_rng(51).standard_normal((1, stop - start, 1, int(kept.sum()), 2)))

    def f(_):
        return sum_axis(mul(gather_memory(table, start, stop).data, target))

    assert grad_check(f, [table.rows], eps=1e-5) <= 1e-4


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
        par = parallel_memory(x, [summ])
        seq = sequential_memory(x, [summ])
    assert np.array_equal(par.valid, seq.valid)
    assert np.abs(par.data.data - seq.data.data).max() <= 1e-5


def test_parallel_equals_sequential_non_power_of_two():
    e, L = 8, 23
    summ = make_summ(e, seed=14)
    x = Tensor(make_rng(9).standard_normal((1, L, e)).astype(np.float32))
    with no_grad():
        par = parallel_memory(x, [summ])
        seq = sequential_memory(x, [summ])
    assert np.abs(par.data.data - seq.data.data).max() <= 1e-5


def test_parallel_single_token_and_zero_input():
    e = 4
    summ = make_summ(e, summarizer_bias=False)
    x = Tensor(np.zeros((1, 1, e), dtype=np.float32))
    with no_grad():
        par = parallel_memory(x, [summ])
        seq = sequential_memory(x, [summ])
    # position 0 occupies no level: the read keeps row 0 alone
    assert_pruned(par.data.data, par.valid, seq.data.data, seq.valid, kept_columns(1, 0, 0, 1))
    assert par.valid.shape == (1, 1)
    zero = Tensor(np.zeros((2, 8, e), dtype=np.float32))
    with no_grad():
        mem = parallel_memory(zero, [summ])
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
            a = build(Tensor(x), [summ]).data.data[:, : t + 1]
            b = build(Tensor(y), [summ]).data.data[:, : t + 1]
            assert np.array_equal(a, b)


def test_summarizer_application_counts():
    e = 4
    summ = make_summ(e, seed=16)
    for L in (8, 13, 32):
        x = Tensor(make_rng(L).standard_normal((1, L, e)).astype(np.float32))
        COUNTER.reset()
        with no_grad():
            sequential_memory(x, [summ])
        assert COUNTER.summarizer_ops == L - bin(L).count("1")
        COUNTER.reset()
        with no_grad():
            parallel_memory(x, [summ])
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
        mem = sequential_memory(Tensor(x), [older])
    # at t=4, slot 2 summarizes x0..x3; picking "older" at every merge -> x0
    assert np.allclose(mem.data.data[0, 4, 0, 3], x[0, 0], atol=1e-6)
    newer = identity_summarizer(e, "newer")
    with no_grad():
        mem2 = sequential_memory(Tensor(x), [newer])
    assert np.allclose(mem2.data.data[0, 4, 0, 3], x[0, 3], atol=1e-6)


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
        par = parallel_memory(x, [summ])
        seq = sequential_memory(x, [summ])
        table = build_pyramid(x, [summ])
    assert np.array_equal(par.valid, seq.valid)
    assert np.array_equal(par.valid, valid_mask(L, S, summ.k))
    assert np.abs(par.data.data - seq.data.data).max() <= 1e-5
    assert (table.n_levels, table.k) == (S, summ.k)
    assert table.rows.shape == (b, 1, sum((16 >> level) * (1 + level * summ.k) for level in range(S)), e)
    state = SlotState.fresh(S, summ.k, 1, e, np.float32)
    with no_grad():
        for t in range(L):
            xt = Tensor(x.data[0, t:t + 1])
            mem = snapshot(state, xt)  # every level; a one-position tile keeps the occupied ones
            tile = gather_memory(table, t, t + 1)
            kept = kept_columns(S, summ.k, t, t + 1)
            assert mem.data.shape == (1, 1, 1, par.valid.shape[1], e)
            assert np.array_equal(mem.valid[:, kept], tile.valid)
            assert not mem.valid[:, ~kept].any() and np.all(mem.data.data[:, :, :, ~kept] == 0.0)
            assert np.abs(mem.data.data[:, :, :, kept] - tile.data.data[:1]).max() <= 1e-5
            push_token(state, xt, [summ])


@pytest.mark.parametrize("name", ["linear", "expander-k1"])
def test_snapshot_is_a_view_of_the_state_rows(name):
    # a snapshot copies nothing: it is the state's own [banks, D, E] rows,
    # each bank's row 0 set to the current token; a step reads it before
    # its push rewrites them (criterion 10 and verify's mode-equivalence
    # check that order end to end)
    e, S = 3, 3
    rng = make_rng(19)
    summ = make_summ(e, 19, **SUMMARIZERS[name])
    state = SlotState.fresh(S, summ.k, 1, e, np.float32)
    assert state.rows.shape == (1, 1 + sum(slot_widths(S, summ.k)), e)
    with no_grad():
        for _ in range(3):
            push_token(state, Tensor(rng.standard_normal((1, e)).astype(np.float32)), [summ])
        x = Tensor(rng.standard_normal((1, e)).astype(np.float32))
        mem = snapshot(state, x)
    assert np.shares_memory(mem.data.data, state.rows)
    assert mem.data.shape == (1, 1) + state.rows.shape
    assert np.array_equal(state.rows[:, 0], x.data)
    assert np.array_equal(mem.valid, valid_mask(4, S, summ.k, 3))


def bank_summs(name, banks, e, seed):
    """One summarizer of the named kind per bank, each with its own weights."""
    return [make_summ(e, seed + j, **SUMMARIZERS[name]) for j in range(banks)]


@pytest.mark.parametrize("banks", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SUMMARIZERS))
def test_bank_tree_read_is_the_one_bank_reads_joined(name, banks):
    # one table for every bank: each range's read is the banks' own reads
    # stacked on the bank axis, bit for bit, under the one mask they share;
    # tiles of 16 across groups, and ranges that start inside a group of every level
    b, L, e = 2, 37, 3
    summs = bank_summs(name, banks, e, 60)
    x = Tensor(make_rng(61).standard_normal((b, L, e)).astype(np.float32))
    with no_grad():
        table = build_pyramid(x, summs)
        singles = [build_pyramid(x, [s]) for s in summs]
    assert table.rows.shape == (b, banks, singles[0].rows.shape[2], e)
    for start, stop in [(0, 37), (0, 16), (16, 32), (32, 37), (5, 12), (3, 30), (21, 22)]:
        mem = gather_memory(table, start, stop)
        parts = [gather_memory(t, start, stop) for t in singles]
        assert mem.data.shape == (b, stop - start, banks, mem.valid.shape[1], e)
        assert np.array_equal(mem.data.data, np.concatenate([p.data.data for p in parts], axis=2))
        assert all(np.array_equal(mem.valid, p.valid) for p in parts), (start, stop)


@pytest.mark.parametrize("banks", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SUMMARIZERS))
def test_bank_slot_state_snapshot_is_the_one_bank_snapshots_joined(name, banks):
    # one carry chain for every bank: after T pushes the snapshot is the
    # banks' own snapshots stacked on the bank axis, and each level merged
    # counts once per bank
    e, S = 3, 5
    summs = bank_summs(name, banks, e, 70)
    rng = make_rng(71)
    xs = [Tensor(rng.standard_normal((1, e)).astype(np.float32)) for _ in range(17)]
    for T in (0, 1, 5, 15, 16):
        state = SlotState.fresh(S, summs[0].k, banks, e, np.float32)
        singles = [SlotState.fresh(S, s.k, 1, e, np.float32) for s in summs]
        with no_grad():
            COUNTER.reset()
            for x in xs[:T]:
                push_token(state, x, summs)
            assert COUNTER.summarizer_ops == banks * (T - bin(T).count("1"))
            for st, s in zip(singles, summs):
                for x in xs[:T]:
                    push_token(st, x, [s])
            mem = snapshot(state, xs[T])
            parts = [snapshot(st, xs[T]) for st in singles]
        assert mem.data.shape == (1, 1, banks, parts[0].data.shape[3], e)
        assert np.array_equal(mem.data.data, np.concatenate([p.data.data for p in parts], axis=2)), T
        assert all(np.array_equal(mem.valid, p.valid) for p in parts)


@pytest.mark.parametrize("banks", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("start,stop", [(0, 13), (5, 11)])
def test_bank_read_float64_gradients(k, start, stop, banks):
    # odd L: the table is padded, and 5 starts inside a group of every
    # level; each bank's gradient lands in its own rows through the
    # backward's transposed views of the one table gradient
    L = 13
    table = leaf_table(2, L, 3, k, seed=80 + k, banks=banks)
    d = valid_mask(L, levels_for(L), k).shape[1]
    target = Tensor(make_rng(81).standard_normal((2, stop - start, banks, d, 3)))

    def f(_):
        return sum_axis(mul(gather_memory(table, start, stop).data, target))

    assert grad_check(f, [table.rows], eps=1e-5) <= 1e-4


@pytest.mark.parametrize("summarizer", ["linear", "dsconv"])
def test_three_bank_parallel_logits_match_stepping(summarizer):
    cfg = ModelConfig(variant="logmem", vocab_size=23, embed=8, max_seq_len=64, n_blocks=2,
                      banks=3, summarizer=summarizer, seed=5)
    model = build_model(cfg)
    tokens = make_rng(6).integers(0, cfg.vocab_size, size=(2, 37))
    with no_grad():
        par = model.forward(tokens, mode="parallel").data
        seq = model.forward(tokens, mode="sequential").data
    assert np.abs(par - seq).max() <= 1e-4
