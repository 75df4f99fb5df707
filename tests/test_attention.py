"""Single-vector attention: projections, scores, masking, weighting, and
multi-bank combination against naive per-position oracles."""

import numpy as np
import pytest

from lmn.attention import (
    attend,
    mask_softmax,
    multi_bank_combine,
    qkv_project,
    single_vector_scores,
    weighted_sum,
)
from lmn.counters import COUNTER
from lmn.memory import MemoryTensor, parallel_memory, valid_mask
from lmn.tensor import ShapeError, Tensor, grad_check, make_rng, mul, no_grad, sum_axis
from lmn.verify import unfused_attend

from conftest import block_layers, naive_single_vector_attention


def random_memory(b=2, L=8, e=4, seed=0):
    rng = make_rng(seed)
    mask = valid_mask(L, 3)
    data = rng.standard_normal((b, L, mask.shape[1], e)).astype(np.float32)
    data[:, ~mask] = 0.0
    return MemoryTensor(Tensor(data), mask)


def own_rows(mem, requires_grad=False):
    """Each position's own token, the level-0 rows of the memory, as attend takes it."""
    return Tensor(mem.data.data[:, :, 0].copy(), requires_grad=requires_grad)


def identity_projection(e):
    w = np.concatenate([np.eye(e)] * 3, axis=1).astype(np.float32)
    return Tensor(w), Tensor(np.zeros(3 * e, dtype=np.float32))


def zero_bias_projection(e, seed):
    """A block's qkv weight with its bias replaced by zeros."""
    return block_layers(e, seed)[0][0], Tensor(np.zeros(3 * e, dtype=np.float32))


def test_qkv_zero_memory_zero_bias_gives_zeros():
    mem = random_memory()
    mem.data.data[:] = 0.0
    q, k, v = qkv_project(mem, *zero_bias_projection(4, 1))
    assert np.all(q.data == 0) and np.all(k.data == 0) and np.all(v.data == 0)


def test_qkv_identity_weights_reproduce_memory():
    mem = random_memory(seed=2)
    q, k, v = qkv_project(mem, *identity_projection(4))
    for part in (q, k, v):
        assert np.allclose(part.data, mem.data.data, atol=1e-6)


def test_qkv_rezeroes_invalid_levels_after_bias():
    mem = random_memory(seed=3)
    q, k, v = qkv_project(mem, *block_layers(4, 4)[0])
    for part in (q, k, v):
        assert np.all(part.data[:, ~mem.valid] == 0.0)


def test_qkv_matches_per_entry_matvec():
    mem = random_memory(seed=5)
    weight, bias = block_layers(4, 6)[0]
    q, k, v = qkv_project(mem, weight, bias)
    b, L, d, e = mem.data.shape
    for bi in range(b):
        for t in range(L):
            for i in range(d):
                full = mem.data.data[bi, t, i].astype(np.float64) @ weight.data.astype(np.float64)
                full += bias.data
                if not mem.valid[t, i]:
                    full[:] = 0.0
                assert np.allclose(q.data[bi, t, i], full[:e], atol=1e-5)
                assert np.allclose(v.data[bi, t, i], full[2 * e:], atol=1e-5)


def test_single_vector_scores_hand_example():
    e = 4
    q = np.zeros((1, 1, 2, e), dtype=np.float32)
    k = np.zeros((1, 1, 2, e), dtype=np.float32)
    q[0, 0, 1] = [1, 0, 0, 0]
    k[0, 0, 0] = [2, 0, 0, 0]
    valid = np.ones((1, 2), dtype=bool)
    scores = single_vector_scores(Tensor(q), Tensor(k), valid).data
    assert np.isclose(scores[0, 0, 1], 1.0)  # 2 / sqrt(4)
    # orthogonal level vector scores zero
    q[0, 0, 1] = [0, 1, 0, 0]
    scores = single_vector_scores(Tensor(q), Tensor(k), valid).data
    assert scores[0, 0, 1] == 0.0


def test_scores_match_naive_dot_oracle():
    rng = make_rng(7)
    b, L, d, e = 2, 8, 4, 5
    q = rng.standard_normal((b, L, d, e)).astype(np.float32)
    k = rng.standard_normal((b, L, d, e)).astype(np.float32)
    valid = valid_mask(L, d - 1)
    got = single_vector_scores(Tensor(q), Tensor(k), valid).data
    for bi in range(b):
        for t in range(L):
            for i in range(d):
                expect = float(q[bi, t, i].astype(np.float64) @ k[bi, t, 0].astype(np.float64))
                assert np.isclose(got[bi, t, i], expect / np.sqrt(e), atol=1e-5)


def test_mask_softmax_two_equal_valid_levels():
    scores = Tensor(np.zeros((1, 1, 3), dtype=np.float32))
    valid = np.array([[True, True, False]])
    w = mask_softmax(scores, valid).data
    assert np.allclose(w[0, 0], [0.5, 0.5, 0.0])


def test_mask_softmax_single_valid_level():
    scores = Tensor(np.array([[[2.0, 5.0]]], dtype=np.float32))
    valid = np.array([[True, False]])
    w = mask_softmax(scores, valid).data
    assert np.allclose(w[0, 0], [1.0, 0.0])


def test_mask_softmax_requires_level0_valid():
    scores = Tensor(np.zeros((1, 1, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        mask_softmax(scores, np.array([[False, True]]))


def test_attention_at_t0_returns_current_token_value():
    mem = random_memory(b=1, L=1, seed=9)
    qkv = block_layers(4, 10)[0]
    values, weights = attend(mem, own_rows(mem), *qkv)
    q, k, v = qkv_project(mem, *qkv)
    assert np.allclose(values.data[0, 0], v.data[0, 0, 0], atol=1e-6)
    assert np.allclose(weights.data[0, 0], [1, 0, 0, 0])


def test_weighted_sum_one_hot_and_uniform():
    rng = make_rng(11)
    v = rng.standard_normal((1, 2, 3, 4)).astype(np.float32)
    w = np.zeros((1, 2, 3), dtype=np.float32)
    w[0, :, 0] = 1.0
    got = weighted_sum(Tensor(w), Tensor(v)).data
    assert np.allclose(got[0, 0], v[0, 0, 0], atol=1e-6)
    w2 = np.array([[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]], dtype=np.float32)
    got2 = weighted_sum(Tensor(w2), Tensor(v)).data
    assert np.allclose(got2[0, 1], v[0, 1, :2].mean(axis=0), atol=1e-6)


def test_weighted_sum_matches_triple_loop():
    rng = make_rng(12)
    w = rng.random((2, 3, 4)).astype(np.float32)
    v = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
    got = weighted_sum(Tensor(w), Tensor(v)).data
    for b in range(2):
        for t in range(3):
            expect = np.zeros(5)
            for i in range(4):
                expect += float(w[b, t, i]) * v[b, t, i].astype(np.float64)
            assert np.allclose(got[b, t], expect, atol=1e-5)


def bank_memory(*mems):
    """The one-bank memories stacked on the bank axis, [B, L, banks, D, E], under their mask."""
    return MemoryTensor(Tensor(np.stack([m.data.data for m in mems], axis=2)), mems[0].valid)


def test_multi_bank_combine_identity_and_concat():
    # one bank and three: the same zero-copy reshape, with the mask widened per bank
    m1 = random_memory(seed=13)
    stacked = bank_memory(m1)
    one = multi_bank_combine(stacked)
    assert np.shares_memory(one.data.data, stacked.data.data)
    assert np.array_equal(one.data.data, m1.data.data) and np.array_equal(one.valid, m1.valid)
    m2 = random_memory(seed=14)
    stacked = bank_memory(m1, m2, m1)
    three = multi_bank_combine(stacked)
    assert np.shares_memory(three.data.data, stacked.data.data)
    assert np.array_equal(three.valid, np.concatenate([m1.valid] * 3, axis=1))
    combined = multi_bank_combine(bank_memory(m1, m2))
    d = m1.data.shape[2]
    assert combined.data.shape == (2, 8, 2 * d, 4)
    assert np.array_equal(combined.data.data, np.concatenate([m1.data.data, m2.data.data], axis=2))
    assert np.array_equal(combined.valid[:, :d], m1.valid)
    counts = combined.valid.sum(axis=1)
    expect = np.array([2 * bin(t).count("1") + 2 for t in range(m1.data.shape[1])])
    assert np.array_equal(counts, expect)


def test_multi_bank_combine_shape_error():
    # a mask of the wrong D: two levels' columns for a three-level memory
    mem = bank_memory(random_memory(e=4), random_memory(e=4, seed=1))
    with pytest.raises(ShapeError):
        multi_bank_combine(MemoryTensor(mem.data, valid_mask(8, 2)))


def test_two_bank_combine_makes_no_copy():
    # the bank axis flattens by a reshape: the combined rows are the read's own
    _, banks = block_layers(4, 17, banks=2)
    x = Tensor(make_rng(18).standard_normal((2, 13, 4)).astype(np.float32))
    with no_grad():
        mem = parallel_memory(x, banks)
    combined = multi_bank_combine(mem)
    b, L, _, d, e = mem.data.shape
    assert combined.data.shape == (b, L, 2 * d, e)
    assert np.shares_memory(combined.data.data, mem.data.data)
    assert np.array_equal(combined.data.data, mem.data.data.reshape(b, L, 2 * d, e))
    assert np.array_equal(combined.valid, np.concatenate([mem.valid, mem.valid], axis=1))


def test_two_bank_attention_matches_naive_oracle():
    e, L = 4, 8
    rng = make_rng(15)
    (weight, bias), banks = block_layers(e, 16, banks=2)
    x = Tensor(rng.standard_normal((2, L, e)).astype(np.float32))
    with no_grad():
        mem = multi_bank_combine(parallel_memory(x, banks))
    values, weights = attend(mem, x, weight, bias)
    expect_vals, expect_w = naive_single_vector_attention(
        mem.data.data, mem.valid, weight.data, bias.data)
    assert np.allclose(values.data, expect_vals, atol=1e-4)
    assert np.allclose(weights.data, expect_w, atol=1e-5)


def test_weights_sum_to_one_with_exact_zeros_many_cases():
    total_cases = 0
    for seed in range(4):
        mem = random_memory(b=4, L=16, seed=30 + seed)
        w = attend(mem, own_rows(mem), *block_layers(4, 40 + seed)[0])[1].data
        assert np.all(np.abs(w.sum(-1) - 1.0) <= 1e-6)
        assert np.all(w[:, ~mem.valid] == 0.0)
        total_cases += w.shape[0] * w.shape[1]
    assert total_cases >= 100


def test_argmax_level_invariant_under_positive_q_scaling():
    mem = random_memory(b=1, L=16, seed=50)
    q, k, v = qkv_project(mem, *zero_bias_projection(4, 51))
    base = single_vector_scores(q, k, mem.valid).data
    scaled = single_vector_scores(Tensor(q.data * 3.7), k, mem.valid).data
    base_masked = np.where(mem.valid[None], base, -np.inf)
    scaled_masked = np.where(mem.valid[None], scaled, -np.inf)
    assert np.array_equal(base_masked.argmax(-1), scaled_masked.argmax(-1))


def test_score_mac_counter_counts_valid_levels_only():
    e = 4
    mem = random_memory(b=3, L=16, e=e, seed=60)
    q, k, v = qkv_project(mem, *block_layers(e, 61)[0])
    COUNTER.reset()
    single_vector_scores(q, k, mem.valid)
    assert COUNTER.score_macs == e * int(mem.valid.sum())


def two_bank_memory(L=13, e=4, seed=70, dtype=np.float32, requires_grad=False):
    rng = make_rng(seed)
    _, banks = block_layers(e, seed, banks=2)
    x = Tensor(rng.standard_normal((2, L, e)).astype(np.float32))
    with no_grad():
        mem = multi_bank_combine(parallel_memory(x, banks))
    return MemoryTensor(Tensor(mem.data.data.astype(dtype), requires_grad=requires_grad), mem.valid)


def test_attend_equals_unfused_chain():
    mem = two_bank_memory()
    qkv = block_layers(4, 71)[0]
    values, weights = attend(mem, own_rows(mem), *qkv)
    ref_v, ref_w = unfused_attend(mem, *qkv)
    assert np.abs(weights.data - ref_w.data).max() <= 1e-5
    assert np.abs(values.data - ref_v.data).max() <= 1e-4


def attend_loss(mem, current, weight, bias, seed=73):
    target = make_rng(seed).standard_normal((mem.data.shape[0], mem.data.shape[1], weight.shape[0]))
    return sum_axis(mul(attend(mem, current, weight, bias)[0], Tensor(target)))


def test_attend_float64_gradients():
    mem = two_bank_memory(L=13, e=3, seed=74, dtype=np.float64, requires_grad=True)
    current = own_rows(mem, requires_grad=True)
    weight, bias = block_layers(3, 75, np.float64)[0]
    params = [weight, bias, mem.data, current]
    err = grad_check(lambda _: attend_loss(mem, current, weight, bias), params, eps=1e-5)
    assert err <= 1e-4


def test_dropped_bias_gets_exactly_zero_gradient():
    # b_q only shifts every score of a position alike
    mem = two_bank_memory(seed=76)
    weight, bias = block_layers(4, 77)[0]
    attend_loss(mem, own_rows(mem), weight, bias).backward()
    e = weight.shape[0]
    assert np.all(bias.grad[:e] == 0.0)
    assert np.all(bias.grad[2 * e:] != 0.0)
