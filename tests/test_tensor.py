"""Tensor engine: forward values against naive oracles, gradients against
central finite differences, and the documented contracts."""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from lmn import tensor as T
from lmn.tensor import (
    ContractError,
    ShapeError,
    Tensor,
    add,
    affine_masked,
    concat,
    einsum_pair,
    conv1d_k2s2,
    conv_transpose1d,
    cross_entropy,
    embedding,
    gelu,
    grad_check,
    index_select,
    layer_norm,
    make_rng,
    masked_fill,
    matmul,
    mul,
    narrow,
    no_grad,
    reshape,
    scale,
    softmax_last,
    sum_axis,
    transpose,
)

from lmn.model import ModelConfig, build_model
from lmn.model import loss as model_loss

from conftest import fd_grad, naive_matmul

RNG = make_rng(0)


def t(data, rg=False):
    return Tensor(np.asarray(data, dtype=np.float32), requires_grad=rg)


def test_matmul_hand_example():
    out = matmul(t([[1, 2], [3, 4]]), t([[1], [1]]))
    assert np.array_equal(out.data, np.array([[3], [7]], dtype=np.float32))


def test_matmul_matches_naive():
    a = RNG.standard_normal((5, 7)).astype(np.float32)
    b = RNG.standard_normal((7, 3)).astype(np.float32)
    got = matmul(t(a), t(b)).data
    assert np.allclose(got, naive_matmul(a, b), atol=1e-5)


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(t(np.zeros((2, 3))), t(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


@pytest.mark.parametrize("a_shape,b_shape", [((2, 3), (3,)), ((3,), (3, 2)), ((3,), (3,))])
def test_matmul_rejects_a_1d_operand(a_shape, b_shape):
    with pytest.raises(ShapeError, match="at least 2-D"):
        matmul(t(np.zeros(a_shape)), t(np.zeros(b_shape)))


def test_softmax_symmetry_and_masking():
    assert np.allclose(softmax_last(t([0.0, 0.0])).data, [0.5, 0.5])
    out = softmax_last(t([0.0, -np.inf])).data
    assert out[0] == 1.0 and out[1] == 0.0


def test_softmax_sums_to_one_and_masks_exactly():
    x = RNG.standard_normal((4, 9)).astype(np.float32)
    mask = RNG.random((4, 9)) < 0.4
    mask[:, 0] = False  # keep one live entry per row
    y = softmax_last(masked_fill(t(x), mask, -np.inf)).data
    assert np.all(np.abs(y.sum(-1) - 1.0) <= 1e-6)
    assert np.all(y[mask] == 0.0)


def test_concat_then_split_is_identity():
    a = RNG.standard_normal((2, 3, 4)).astype(np.float32)
    b = RNG.standard_normal((2, 5, 4)).astype(np.float32)
    cat = concat([t(a), t(b)], axis=1)
    back_a = narrow(cat, 1, 0, 3).data
    back_b = narrow(cat, 1, 3, 5).data
    assert np.array_equal(back_a, a) and np.array_equal(back_b, b)


def test_concat_leaves_the_same_traced_memory_every_time():
    """tracemalloc peaks (lmn bench, perfbench) repeat only if the ops leave
    no history-dependent allocations behind; np.cumsum of a list did."""
    a, b = t(np.ones((1, 2))), t(np.ones((1, 3)))

    def left_after_loop():
        gc.collect()
        tracemalloc.start()
        try:
            with no_grad():
                for _ in range(2000):
                    concat([a, b], axis=1)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    concat([a, b], axis=1)
    left = [left_after_loop() for _ in range(3)]
    assert left[0] == left[1] == left[2], left


def test_backward_linear_function():
    w = t([1.0, 2.0], rg=True)
    x = t([3.0, 4.0])
    loss = sum_axis(mul(w, x))
    loss.backward()
    assert np.allclose(w.grad, [3.0, 4.0])


def test_backward_requires_scalar():
    w = t([1.0, 2.0], rg=True)
    with pytest.raises(ContractError):
        mul(w, w).backward()


def test_backward_accumulates_for_shared_parameter():
    w = t([2.0], rg=True)
    loss = sum_axis(add(mul(w, w), w))  # w^2 + w -> grad 2w + 1 = 5
    loss.backward()
    assert np.allclose(w.grad, [5.0])


def _two_block_model(variant="logmem", dtype=np.float64, embed=8, batch=2, length=13):
    cfg = ModelConfig(variant=variant, vocab_size=11, embed=embed, max_seq_len=32, banks=2,
                      n_blocks=2, seed=4)
    rng = make_rng(9)
    x, y = rng.integers(0, 11, size=(2, batch, length))
    return build_model(cfg, dtype=dtype), x, y


def test_backward_frees_the_tape_and_keeps_parameter_grads():
    model, x, y = _two_block_model()
    loss = model_loss(model.forward(x), y)
    reached = [n for n in T._topo_order(loss._node) if n.backward is not None]
    assert len(reached) > 100
    loss.backward()
    for n in reached:
        assert n.grad is None and n.parents == ()
        with pytest.raises(ContractError):
            n.backward(np.zeros_like(loss.data))
    for name, p in model.params.items():
        assert p.grad is not None and p.grad.shape == p.shape and np.isfinite(p.grad).all(), name


def test_a_graph_runs_backward_once_and_grads_accumulate_across_graphs():
    model, x, y = _two_block_model()
    logits = model.forward(x)
    loss = model_loss(logits, y)
    loss.backward()
    with pytest.raises(ContractError):
        loss.backward()
    with pytest.raises(ContractError):  # a second loss through the spent logits
        model_loss(logits, y[:, ::-1]).backward()

    w = t([2.0], rg=True)
    for _ in range(2):
        sum_axis(mul(w, w)).backward()
    assert np.allclose(w.grad, [8.0])


def _op(f, first, second, flip):
    return f(second, first) if flip else f(first, second)


def _aliasing_loss(params, creation, flips):
    """u feeds a, b and d; c = a + b hands one array to both a and b, and a
    hands that same array (its incoming gradient, or with flips[5] a view of
    it) to u alone. A second sum into u in place would then overwrite the
    gradient b or d still holds. flips[:5] swap the operands of a, b, d, c, s."""
    x, bias, w, v = params
    u = mul(x, x)
    build = {"a": lambda: reshape(u, u.shape) if flips[5] else _op(add, u, bias, flips[0]),
             "b": lambda: _op(mul, u, w, flips[1]), "d": lambda: _op(mul, u, v, flips[2])}
    made = {name: build[name]() for name in creation}
    c = _op(add, made["a"], made["b"], flips[3])
    s = _op(add, c, made["d"], flips[4])
    return sum_axis(mul(s, s))


def _pair_add(a, b):
    """a + b whose backward hands one array it allocated to both parents."""
    def bwd(g):
        h = g.copy()
        return h, h

    return T._make(a.data + b.data, (a, b), bwd)


def _pair_loss(params, creation, flips):
    """c = u + b, with b = u * w, hands one fresh array to both u and b, and
    d = b * v adds into b's gradient; were u and b both to own that array,
    d's contribution would land in u's gradient too."""
    x, _, w, v = params
    u = mul(x, x)
    b = _op(mul, u, w, flips[0])
    build = {"c": lambda: _op(_pair_add, u, b, flips[1]), "d": lambda: _op(mul, b, v, flips[2])}
    made = {name: build[name]() for name in creation}
    s = _op(add, made["c"], made["d"], flips[3])
    return sum_axis(mul(s, s))


def test_in_place_sums_never_write_a_shared_gradient():
    rng = make_rng(31)
    params = [Tensor(rng.standard_normal(shape), requires_grad=True)
              for shape in ((3, 4), (4,), (3, 4), (3, 4))]
    graphs = [(_aliasing_loss, creation, flips) for creation in itertools.permutations("abd")
              for flips in itertools.product((False, True), repeat=6)]
    graphs += [(_pair_loss, creation, flips) for creation in itertools.permutations("cd")
               for flips in itertools.product((False, True), repeat=4)]
    wrong = []
    for build, creation, flips in graphs:
        err = grad_check(lambda p: build(p, creation, flips), params, eps=1e-5)
        if not err <= 1e-4:
            wrong.append((build.__name__, creation, flips, err))
    assert not wrong, wrong


def _replayed_grads(loss, params):
    """Leaf grads by a replay that keeps every node and never sums in place."""
    grads = {id(loss._node): np.ones_like(loss.data)}
    for node in reversed(T._topo_order(loss._node)):
        g = grads.get(id(node))
        if node.backward is None or g is None:
            continue
        for parent, pg in zip(node.parents, node.backward(g)):
            if pg is not None and parent is not None:
                grads[id(parent)] = grads[id(parent)] + pg if id(parent) in grads else pg
    return [grads.get(id(p._node)) for p in params]


@pytest.mark.parametrize("variant", ["logmem", "tiny-logmem", "expsum", "baseline-attn"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_is_bit_identical_to_a_plain_replay(variant, dtype):
    model, x, y = _two_block_model(variant, dtype)
    params = list(model.params.values())
    loss = model_loss(model.forward(x), y)
    expect = _replayed_grads(loss, params)
    loss.backward()
    for p, e in zip(params, expect):
        assert p.grad.dtype == e.dtype and np.array_equal(p.grad, e)


def test_backward_leaves_only_parameter_grads_alive():
    model, x, y = _two_block_model(dtype=np.float32, embed=16, batch=4, length=32)
    model_loss(model.forward(x), y).backward()  # fills every lazy cache first
    model.zero_grad()
    gc.collect()
    tracemalloc.start()
    try:
        loss = model_loss(model.forward(x), y)
        loss.backward()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    grads = sum(p.grad.nbytes for p in model.params.values())
    # the constant covers the interpreter's and numpy's free-list caches; the
    # tape itself (forward arrays and intermediate grads) is over 2 MB here
    assert loss.item() > 0
    assert left <= grads + 64 * 1024, (left, grads)


# what the tape keeps: an op's backward closure captures the arrays it reads
# and plain shapes otherwise, so an operand that it does not read lives only
# as long as the caller holds it; a read one lives until backward has run
def _free_op(name, x):
    c = Tensor(make_rng(3).standard_normal(x.shape))
    return {"add": lambda: add(x, c), "scale": lambda: scale(x, 0.5),
            "reshape": lambda: reshape(x, (-1,)), "transpose": lambda: transpose(x, (1, 0)),
            "narrow": lambda: narrow(x, 1, 1, 2), "concat": lambda: concat([x, c], axis=0),
            "masked_fill": lambda: masked_fill(x, np.eye(3, 4, dtype=bool), 0.0),
            "sum_axis": lambda: sum_axis(x, axis=0), "softmax_last": lambda: softmax_last(x)}[name]()


def _read_op(name, x):
    rng = make_rng(4)
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    return {"mul": lambda: mul(x, Tensor(rng.standard_normal(x.shape))),
            "matmul": lambda: matmul(x, w),
            "einsum_pair": lambda: einsum_pair("ld,de->le", x, w),
            "gelu": lambda: gelu(x),
            "affine_masked": lambda: affine_masked(x, w, b, np.array([True, False, True]))}[name]()


def _dropped_input(build, op_name):
    """A loss through one op, and a weakref to the array of the op's input, a
    non-leaf that the caller has dropped."""
    leaf = Tensor(make_rng(2).standard_normal((3, 4)), requires_grad=True)
    x = scale(leaf, 2.0)
    ref = weakref.ref(x.data)
    loss = sum_axis(build(op_name, x))
    del x
    return leaf, loss, ref


@pytest.mark.parametrize("op_name", ["add", "scale", "reshape", "transpose", "narrow", "concat",
                                     "masked_fill", "sum_axis", "softmax_last"])
def test_the_tape_frees_an_input_its_backward_does_not_read(op_name):
    leaf, loss, ref = _dropped_input(_free_op, op_name)
    assert ref() is None
    loss.backward()
    assert leaf.grad is not None and leaf.grad.shape == leaf.shape


@pytest.mark.parametrize("op_name", ["mul", "matmul", "einsum_pair", "gelu", "affine_masked"])
def test_the_tape_keeps_an_input_its_backward_reads_until_backward_runs(op_name):
    leaf, loss, ref = _dropped_input(_read_op, op_name)
    assert ref() is not None
    loss.backward()
    assert ref() is None  # the spent closure let it go
    assert leaf.grad is not None and leaf.grad.shape == leaf.shape


def test_softmax_keeps_its_own_output_until_backward_runs():
    x = Tensor(make_rng(5).standard_normal((3, 4)), requires_grad=True)
    out = softmax_last(x)
    ref = weakref.ref(out.data)
    loss = sum_axis(out)
    del out
    assert ref() is not None
    loss.backward()
    assert ref() is None


def test_baseline_attention_tape_keeps_only_the_softmax_output(monkeypatch):
    # the [B, h, L, T] score, scaled and masked arrays are gone before
    # backward; the softmax output that its backward reads is still held
    cfg = ModelConfig(variant="baseline-attn", vocab_size=11, embed=8, max_seq_len=16, n_heads=2, seed=4)
    blk = build_model(cfg, dtype=np.float64).blocks[0]
    rng = make_rng(6)
    qkv = [Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True) for _ in range(3)]
    target = Tensor(rng.standard_normal((2, 5, 8)))
    made = {}

    def recording(name, op):
        def wrapped(*args):
            out = op(*args)
            if out.shape[-2:] == (5, 5):  # a [B, h, L, T] array of the attention
                made.setdefault(name, []).append(weakref.ref(out.data))
            return out
        return wrapped

    for name in ("matmul", "scale", "masked_fill", "softmax_last"):
        monkeypatch.setattr(f"lmn.model.{name}", recording(name, getattr(T, name)))
    loss = sum_axis(mul(blk.attention(*qkv)[0], target))
    assert {name: len(refs) for name, refs in made.items()} == {
        "matmul": 1, "scale": 1, "masked_fill": 1, "softmax_last": 1}
    assert [made[name][0]() is None for name in ("matmul", "scale", "masked_fill")] == [True] * 3
    assert made["softmax_last"][0]() is not None
    loss.backward()
    assert all(p.grad is not None for p in qkv)
    monkeypatch.undo()

    def f(params):
        return sum_axis(mul(blk.attention(*params)[0], target))

    assert grad_check(f, qkv, eps=1e-5) <= 1e-4


def test_cross_entropy_closed_form_grad():
    logits = t([[0.0, 0.0]], rg=True)
    loss = cross_entropy(logits, np.array([0]))
    loss.backward()
    assert np.allclose(logits.grad, [[-0.5, 0.5]], atol=1e-7)
    assert np.isclose(loss.item(), np.log(2.0), atol=1e-6)


@pytest.mark.parametrize("op_name", [
    "add", "scale", "mul", "matmul2d", "matmul_batched_weight", "matmul_batched_pair",
    "concat", "narrow", "index_select", "reshape", "transpose", "softmax",
    "layernorm", "gelu", "embedding", "cross_entropy", "conv_full",
    "conv_transpose", "masked_fill", "sum_axis",
    "einsum_pair", "affine_masked",
])
def test_op_gradients_match_finite_differences(op_name):
    # float64 inputs: the engine in 64-bit mode must agree with central
    # differences to 1e-4; float32 per-op checks below use the same builders
    rng = make_rng(hash(op_name) % 2**32)

    def mk(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    builders = {
        "add": lambda: ((mk(3, 4), mk(3, 4)), lambda a, b: add(a, b)),
        "scale": lambda: ((mk(3, 4),), lambda a: scale(a, -0.7)),
        "mul": lambda: ((mk(3, 4), mk(4)), lambda a, b: mul(a, b)),
        "matmul2d": lambda: ((mk(3, 4), mk(4, 2)), lambda a, b: matmul(a, b)),
        "matmul_batched_weight": lambda: ((mk(2, 3, 4), mk(4, 5)), lambda a, b: matmul(a, b)),
        "matmul_batched_pair": lambda: ((mk(2, 3, 4), mk(2, 4, 3)), lambda a, b: matmul(a, b)),
        "concat": lambda: ((mk(2, 3), mk(2, 2)), lambda a, b: concat([a, b], axis=1)),
        "narrow": lambda: ((mk(4, 6),), lambda a: narrow(a, 1, 2, 3)),
        "index_select": lambda: ((mk(5, 3),),
                                 lambda a: index_select(a, 0, np.array([0, 2, 2, 4]))),
        "reshape": lambda: ((mk(4, 6),), lambda a: reshape(a, (2, 12))),
        "transpose": lambda: ((mk(2, 3, 4),), lambda a: transpose(a, (2, 0, 1))),
        "softmax": lambda: ((mk(3, 5),), lambda a: softmax_last(a)),
        "layernorm": lambda: ((mk(3, 4), mk(4), mk(4)), lambda a, g, b: layer_norm(a, g, b)),
        "gelu": lambda: ((mk(3, 4),), lambda a: gelu(a)),
        "embedding": lambda: ((mk(6, 3),),
                              lambda w: embedding(w, np.array([[0, 5], [2, 2]]))),
        "cross_entropy": lambda: ((mk(4, 5),),
                                  lambda a: cross_entropy(a, np.array([0, 1, 4, 2]))),
        "conv_full": lambda: ((mk(2, 6, 3), mk(2, 3, 4)), lambda x, w: conv1d_k2s2(x, w)),
        "conv_transpose": lambda: ((mk(2, 4, 3), mk(2, 3, 5)),
                                   lambda x, w: conv_transpose1d(x, w)),
        "masked_fill": lambda: ((mk(3, 4),),
                                lambda a: masked_fill(a, np.eye(3, 4, dtype=bool), -np.inf)),
        "sum_axis": lambda: ((mk(3, 4),), lambda a: sum_axis(a, axis=0)),
        "einsum_pair": lambda: ((mk(2, 3, 4, 5), mk(2, 3, 5)),
                                lambda a, b: einsum_pair("blde,ble->bld", a, b)),
        "affine_masked": lambda: ((mk(2, 3, 4), mk(4, 6), mk(6)),
                                  lambda x, w, b: affine_masked(
                                      x, w, b, np.array([[True, False, True]] * 2))),
    }
    inputs, fn = builders[op_name]()

    def loss_of(*args):
        out = fn(*args)
        if np.isinf(out.data).any():  # masked_fill case: softmax it first
            out = softmax_last(out)
        return sum_axis(mul(out, out))

    loss = loss_of(*inputs)
    loss.backward()
    for x in inputs:
        def f():
            with no_grad():
                return loss_of(*inputs).item()
        numeric = fd_grad(f, x.data, eps=1e-5)
        denom = np.maximum(1e-8, np.abs(x.grad) + np.abs(numeric))
        rel = np.abs(x.grad - numeric) / denom
        assert rel.max() <= 1e-4, f"{op_name}: rel err {rel.max():.2e}"


def test_op_gradients_float32_tolerance():
    # 32-bit per-op spot check at the looser documented tolerance
    rng = make_rng(77)
    a = Tensor(rng.standard_normal((4, 6)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((6, 3)).astype(np.float32), requires_grad=True)

    def loss_of():
        y = gelu(matmul(a, w))
        return sum_axis(mul(y, y))

    loss = loss_of()
    loss.backward()
    for x in (a, w):
        def f():
            with no_grad():
                return loss_of().item()
        numeric = fd_grad(f, x.data, eps=1e-3)
        rel = np.abs(x.grad - numeric) / np.maximum(1e-8, np.abs(x.grad) + np.abs(numeric))
        assert rel.max() <= 1e-2


def test_grad_check_quadratic():
    x = Tensor(np.array([3.0]), requires_grad=True)

    def f(params):
        return sum_axis(mul(params[0], params[0]))

    assert grad_check(f, [x], eps=1e-3) <= 1e-5


def test_grad_check_constant_function():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    c = Tensor(np.array([5.0]))

    def f(params):
        return sum_axis(mul(c, c))

    # constant in params: analytic grad absent -> zeros, numeric zero
    assert grad_check(f, [x], eps=1e-3) == 0.0


def test_grad_check_rejects_bad_eps():
    x = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda p: sum_axis(p[0]), [x], eps=0.0)


def test_no_grad_suppresses_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = mul(x, x)
    assert y._backward is None and not y.requires_grad


def test_scale_and_neg():
    x = t([1.0, -2.0])
    assert np.allclose(scale(x, 2.5).data, [2.5, -5.0])
    assert np.allclose(scale(x, -1.0).data, [-1.0, 2.0])


def test_broadcast_bias_add():
    x = t(np.ones((2, 3, 4)))
    b = t(np.arange(4))
    out = add(x, b)
    assert out.shape == (2, 3, 4)
    assert np.allclose(out.data[0, 0], 1 + np.arange(4))


def test_broadcast_rejects_misaligned():
    with pytest.raises(ShapeError):
        add(t(np.zeros((2, 3))), t(np.zeros((4,))))


def test_conv1d_k2s2_matches_pair_linear():
    # the kernel-2 stride-2 conv is a [2C -> Co] linear map on each pair
    rng = make_rng(5)
    x = rng.standard_normal((2, 8, 3)).astype(np.float32)
    w = rng.standard_normal((2, 3, 4)).astype(np.float32)
    got = conv1d_k2s2(t(x), t(w)).data
    lin = np.concatenate([w[0], w[1]], axis=0)  # [2C, Co]
    pairs = x.reshape(2, 4, 6)
    assert np.allclose(got, pairs @ lin, atol=1e-5)


def test_conv_transpose_shape_and_values():
    x = np.ones((1, 2, 1), dtype=np.float32)
    w = np.ones((3, 1, 1), dtype=np.float32)
    out = conv_transpose1d(t(x), t(w)).data[0, :, 0]
    # stride-1 kernel-3 over length 2: overlap counts are 1,2,2,1
    assert out.size == 2 + 3 - 1
    assert np.allclose(out, [1.0, 2.0, 2.0, 1.0])


def one_hot(indices, n):
    m = np.zeros((len(indices), n))
    m[np.arange(len(indices)), np.asarray(indices, dtype=np.int64) % n] = 1.0
    return m


SCATTER_CASES = {
    "unsorted": [3, 0, 4, 1],
    "repeated": [2, 4, 2, 0, 4, 4, 2],
    "empty": [],
}
INDEX_SELECT_CASES = {**SCATTER_CASES, "negative": [-1, 4, 0, -5, 1]}  # np.take wraps these


@pytest.mark.parametrize("case", INDEX_SELECT_CASES)
def test_index_select_backward_matches_one_hot_oracle(case):
    indices = INDEX_SELECT_CASES[case]
    rng = make_rng(21)
    a = Tensor(rng.standard_normal((3, 5, 2)), requires_grad=True)
    out = index_select(a, 1, np.array(indices, dtype=np.int64))
    g = rng.standard_normal(out.shape)
    sum_axis(mul(out, Tensor(g))).backward()
    expect = np.einsum("bie,in->bne", g, one_hot(indices, 5))
    assert np.allclose(a.grad, expect, atol=1e-12)


@pytest.mark.parametrize("case", SCATTER_CASES)
def test_embedding_backward_matches_one_hot_oracle(case):
    ids = np.array(SCATTER_CASES[case], dtype=np.int64)
    rng = make_rng(22)
    w = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    out = embedding(w, ids.reshape(1, -1))
    g = rng.standard_normal(out.shape)
    sum_axis(mul(out, Tensor(g))).backward()
    expect = one_hot(ids, 5).T @ g.reshape(-1, 3)
    assert np.allclose(w.grad, expect, atol=1e-12)


def test_embedding_out_of_range_errors():
    w = t(np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        embedding(w, np.array([[5]]))
    # negative ids of every width, and unsigned ones past int64, are out of range too
    for bad in (np.array([[0, -1]]), np.array([[np.iinfo(np.int64).min]]),
                np.array([[2 ** 63 + 1]], dtype=np.uint64), np.array([[-3, 4]], dtype=np.int32)):
        with pytest.raises(ShapeError, match="id out of range"):
            embedding(w, bad)
    assert embedding(w, np.array([[3, 0]], dtype=np.int32)).shape == (1, 2, 2)
    assert embedding(w, np.zeros((1, 0), dtype=np.int64)).shape == (1, 0, 2)


def test_layer_norm_normalizes_last_axis():
    x = t(RNG.standard_normal((5, 8)).astype(np.float32) * 3 + 1)
    y = layer_norm(x, t(np.ones(8)), t(np.zeros(8))).data
    assert np.allclose(y.mean(-1), 0.0, atol=1e-5)
    assert np.allclose(y.std(-1), 1.0, atol=1e-2)


def test_uniform_logits_cross_entropy_is_log_vocab():
    logits = t(np.zeros((3, 65)))
    loss = cross_entropy(logits, np.array([1, 2, 3]))
    assert np.isclose(loss.item(), np.log(65.0), atol=1e-6)
