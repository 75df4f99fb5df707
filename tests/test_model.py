"""Full models: dual-mode equivalence, losses, generation, parameter
accounting against the published comparison table, and checkpoints."""

import dataclasses
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

import lmn.model
from lmn.memory import CapacityError, levels_for, slot_widths
from lmn.model import (
    MODES,
    VARIANTS,
    ModelConfig,
    build_model,
    config_from_text,
    config_to_text,
    generate,
    load_checkpoint,
    loss as loss_fn,
    param_count,
    param_schema,
    save_checkpoint,
)
from lmn.tensor import ContractError, ShapeError, grad_check, make_rng, no_grad

from conftest import naive_softmax

VARIANT_CONFIGS = [
    ("logmem-1bank", dict(variant="logmem", banks=1)),
    ("logmem-2bank", dict(variant="logmem", banks=2)),
    ("tiny", dict(variant="tiny-logmem", banks=2)),
    ("expsum", dict(variant="expsum", expansion=1)),
]


def small_cfg(variant_kw, **extra):
    base = dict(vocab_size=29, embed=16, max_seq_len=64, n_blocks=1, seed=7)
    base.update(variant_kw)
    base.update(extra)
    return ModelConfig(**base)


@pytest.mark.parametrize("name,kw", VARIANT_CONFIGS + [
    ("baseline", dict(variant="baseline-attn", n_heads=4)),
])
def test_mode_equivalence(name, kw):
    # sequential mode steps a fresh state per stream up to full capacity
    cfg = small_cfg(kw)
    model = build_model(cfg)
    tokens = make_rng(1).integers(0, cfg.vocab_size, size=(2, 64))
    with no_grad():
        par = model.forward(tokens, mode="parallel").data
        seq = model.forward(tokens, mode="sequential").data
    assert np.abs(par - seq).max() <= 1e-4


def test_mode_equivalence_multi_block():
    cfg = small_cfg(dict(variant="logmem", banks=2), n_blocks=2, max_seq_len=32)
    model = build_model(cfg)
    tokens = make_rng(2).integers(0, cfg.vocab_size, size=(2, 32))
    with no_grad():
        par = model.forward(tokens, mode="parallel").data
        seq = model.forward(tokens, mode="sequential").data
    assert np.abs(par - seq).max() <= 1e-4


def test_loss_uniform_logits():
    cfg = small_cfg(dict(variant="logmem"), vocab_size=65)
    model = build_model(cfg)
    from lmn.tensor import Tensor
    logits = Tensor(np.zeros((2, 5, 65), dtype=np.float32))
    targets = np.zeros((2, 5), dtype=np.int64)
    assert np.isclose(loss_fn(logits, targets).item(), np.log(65.0), atol=1e-4)


def test_loss_one_hot_margin_goes_to_zero():
    from lmn.tensor import Tensor
    logits = np.full((1, 4, 8), -30.0, dtype=np.float32)
    targets = np.array([[1, 3, 5, 7]])
    for t, tgt in enumerate(targets[0]):
        logits[0, t, tgt] = 30.0
    assert loss_fn(Tensor(logits), targets).item() < 1e-6


def test_loss_matches_naive_log_softmax():
    from lmn.tensor import Tensor
    rng = make_rng(3)
    logits = rng.standard_normal((2, 3, 7)).astype(np.float32)
    targets = rng.integers(0, 7, size=(2, 3))
    got = loss_fn(Tensor(logits), targets).item()
    total = 0.0
    for b in range(2):
        for t in range(3):
            p = naive_softmax(logits[b, t].astype(np.float64))
            total -= np.log(p[targets[b, t]])
    assert np.isclose(got, total / 6, atol=1e-5)


def test_loss_shape_mismatch():
    from lmn.tensor import Tensor, ShapeError
    with pytest.raises(ShapeError):
        loss_fn(Tensor(np.zeros((1, 4, 7), dtype=np.float32)), np.zeros((1, 3), dtype=np.int64))


def test_single_token_forward_is_finite():
    for _, kw in VARIANT_CONFIGS:
        model = build_model(small_cfg(kw))
        with no_grad():
            out = model.forward(np.array([[3]]))
        assert np.isfinite(out.data).all()
        probs = np.exp(out.data - out.data.max())
        assert np.isfinite(probs / probs.sum()).all()


def test_forward_rejects_bad_tokens():
    # embedding holds the one range check, so both families see it in both
    # modes and in a lone step
    for variant in ("logmem", "baseline-attn"):
        cfg = small_cfg(dict(variant=variant))
        model = build_model(cfg)
        with no_grad():
            for bad in (cfg.vocab_size, -1):
                with pytest.raises(ShapeError, match="id out of range"):
                    model.step(model.start_state(), bad)
        for mode in MODES:
            with no_grad():
                for bad in (cfg.vocab_size, -1):
                    with pytest.raises(ShapeError, match="id out of range"):
                        model.forward(np.array([[0, bad]]), mode=mode)
                with pytest.raises(CapacityError):
                    model.forward(np.zeros((1, cfg.max_seq_len + 1), dtype=np.int64), mode=mode)


@pytest.mark.parametrize("name,kw", VARIANT_CONFIGS + [
    ("dsconv", dict(variant="logmem", banks=2, summarizer="dsconv")),
    ("unbiased", dict(variant="logmem", banks=2, summarizer_bias=False)),  # Table 1's summarizers
    ("float64", dict(variant="logmem", banks=2, dtype=np.float64)),
    ("baseline-float64", dict(variant="baseline-attn", n_heads=2, dtype=np.float64)),
    ("logmem-2block", dict(variant="logmem", banks=2, n_blocks=2)),
    ("baseline", dict(variant="baseline-attn", n_heads=4)),
    ("baseline-2block", dict(variant="baseline-attn", n_heads=4, n_blocks=2)),
    ("expsum-float64", dict(variant="expsum", expansion=1, dtype=np.float64)),
])
def test_generation_matches_teacher_forcing(name, kw):
    kw = dict(kw)
    dtype = kw.pop("dtype", np.float32)
    cfg = small_cfg(kw, max_seq_len=32)
    model = build_model(cfg, dtype)
    # to full capacity: the 32nd push carries through every level into the root
    tokens = make_rng(4).integers(0, cfg.vocab_size, size=(1, 32))
    with no_grad():
        tf = model.forward(tokens, mode="parallel").data[0]
        state = model.start_state()
        stepped = np.stack([model.step(state, int(t)).data for t in tokens[0]])
        with pytest.raises(CapacityError):
            model.step(state, int(tokens[0, 0]))
    assert stepped.dtype == dtype
    assert np.abs(tf - stepped).max() <= (1e-10 if dtype == np.float64 else 1e-4)
    # below a power of two the slot state could hold more, but stepping stops at max_seq_len
    short = build_model(small_cfg(kw, max_seq_len=20), dtype)
    with no_grad():
        state = short.start_state()
        for t in tokens[0, :20]:
            short.step(state, int(t))
        with pytest.raises(CapacityError, match="sequence length 21 exceeds max_seq_len 20"):
            short.step(state, int(tokens[0, 20]))


@pytest.mark.parametrize("kw", [dict(variant="logmem", banks=2), dict(variant="expsum", expansion=1)])
def test_slot_state_is_the_step_memory_at_the_model_dtype(kw):
    # one fixed [banks, D, E] buffer per block, allocated at the model's
    # dtype before any token is seen: a float64 model steps in float64
    cfg = small_cfg(kw, n_blocks=2)
    k = cfg.expansion if cfg.variant == "expsum" else 0
    for dtype in (np.float32, np.float64):
        for st in build_model(cfg, dtype).start_state():
            assert st.rows.dtype == dtype and st.consumed == 0
            assert st.rows.shape == (cfg.banks, 1 + sum(slot_widths(cfg.n_levels, k)), cfg.embed)
            assert not st.rows.any()


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_rejects_an_unknown_mode(variant):
    model = build_model(small_cfg(dict(variant=variant)))
    tokens = make_rng(6).integers(0, 29, size=(1, 8))
    with no_grad(), pytest.raises(ValueError, match="unknown mode 'bogus'"):
        model.forward(tokens, mode="bogus")
    with no_grad():
        par = model.forward(tokens, mode="parallel").data
        seq = model.forward(tokens, mode="sequential").data
    assert np.abs(par - seq).max() <= 1e-4


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_rejects_an_empty_sequence_in_both_modes(variant, mode):
    # one error in both modes, not an empty result in one and a tree or
    # reduction error in the other
    model = build_model(small_cfg(dict(variant=variant)))
    with no_grad(), pytest.raises(ValueError, match="at least one position, got length 0"):
        model.forward(np.zeros((2, 0), dtype=np.int64), mode=mode)


def test_sequential_mode_with_grad_on_raises():
    # the slot state and the KV cache keep no tape, so a recorded sequential
    # pass would lose its gradient
    tokens = make_rng(5).integers(0, 29, size=(1, 8))
    for variant in VARIANTS:
        model = build_model(small_cfg(dict(variant=variant)))
        with pytest.raises(ContractError):
            model.forward(tokens, mode="sequential")
        with pytest.raises(ContractError):
            model.step(model.start_state(), int(tokens[0, 0]))


def test_generation_deterministic_and_argmax():
    cfg = small_cfg(dict(variant="logmem"), max_seq_len=32)
    model = build_model(cfg)
    prompt = [1, 2, 3]
    a = generate(model, prompt, 10, temperature=0.8, rng=make_rng(5))
    b = generate(model, prompt, 10, temperature=0.8, rng=make_rng(5))
    assert np.array_equal(a, b)
    g1 = generate(model, prompt, 10, argmax=True)
    g2 = generate(model, prompt, 10, argmax=True)
    assert np.array_equal(g1, g2)
    with pytest.raises(ValueError):
        generate(model, prompt, 5, temperature=0.0, rng=make_rng(0))


def test_generation_capacity_error():
    cfg = small_cfg(dict(variant="logmem"), max_seq_len=8)
    model = build_model(cfg)
    with pytest.raises(CapacityError):
        generate(model, [0, 1], 20, argmax=True)


def test_baseline_causality_and_weight_rows():
    cfg = small_cfg(dict(variant="baseline-attn", n_heads=4))
    model = build_model(cfg)
    rng = make_rng(7)
    tokens = rng.integers(0, cfg.vocab_size, size=(1, 24))
    t = 9
    perturbed = tokens.copy()
    perturbed[0, t + 1:] = rng.integers(0, cfg.vocab_size, size=24 - t - 1)
    with no_grad():
        a = model.forward(tokens).data[:, : t + 1]
        b = model.forward(perturbed).data[:, : t + 1]
    assert np.array_equal(a, b)
    from lmn.tensor import Tensor
    # queries at positions t..t+11 over T = 24 key rows: each row sums to one
    # and gives no weight to the keys past its query's position
    q, k, v = (Tensor(rng.standard_normal((1, n, cfg.embed)).astype(np.float32)) for n in (12, 24, 24))
    with no_grad():
        _, att = model.blocks[0].attention(q, k, v, t)
    assert np.allclose(att.data.sum(-1), 1.0, atol=1e-6)
    future = np.arange(24) > np.arange(t, t + 12)[:, None]
    assert np.all(att.data[:, :, future] == 0) and np.all(att.data[:, :, ~future] > 0)


def test_baseline_tiny_gradient_check():
    cfg = ModelConfig(variant="baseline-attn", vocab_size=7, embed=4, max_seq_len=8,
                      n_blocks=1, n_heads=2, seed=5)
    model = build_model(cfg, np.float64)
    rng = make_rng(8)
    tokens = rng.integers(0, 7, size=(1, 8))
    targets = rng.integers(0, 7, size=(1, 8))
    params = list(model.params.values())

    def f(_):
        return loss_fn(model.forward(tokens), targets)

    assert grad_check(f, params, eps=1e-4) <= 1e-4


@pytest.mark.parametrize("kw", [dict(variant="expsum", expansion=1),
                                dict(variant="logmem", banks=2, summarizer="dsconv"),
                                dict(variant="logmem", banks=2)],
                         ids=["expsum-k1", "logmem-dsconv", "logmem-linear"])
def test_tree_variant_gradient_check(kw):
    cfg = ModelConfig(vocab_size=7, embed=4, max_seq_len=8, n_blocks=1, seed=5, **kw)
    model = build_model(cfg, np.float64)
    rng = make_rng(9)
    tokens = rng.integers(0, 7, size=(1, 7))  # L=7: the pyramid is padded
    targets = rng.integers(0, 7, size=(1, 7))
    params = list(model.params.values())

    def f(_):
        return loss_fn(model.forward(tokens, mode="parallel"), targets)

    assert grad_check(f, params, eps=1e-4) <= 1e-4


TILED_CONFIGS = [
    ("logmem", dict(variant="logmem", banks=2)),
    ("tiny", dict(variant="tiny-logmem", banks=2)),
    ("expsum", dict(variant="expsum", expansion=2)),
    ("dsconv", dict(variant="logmem", banks=2, summarizer="dsconv")),
    ("baseline-1head", dict(variant="baseline-attn", n_heads=1)),
    ("baseline-4heads", dict(variant="baseline-attn", n_heads=4)),
]


def _set_tiles(monkeypatch, cfg, L, tile):
    """Tiles of ``tile`` positions at length L: ``TILE_ROWS`` is the memory
    rows of ``tile`` positions of cfg's tree, and the baseline runs ``tile``
    queries. Returns the (start, length) of every tile any block runs."""
    k = cfg.expansion if cfg.variant == "expsum" else 0
    rows = cfg.banks * (1 + sum(slot_widths(levels_for(L), k)))  # per position
    monkeypatch.setattr(lmn.model, "TILE_ROWS", tile * rows)
    monkeypatch.setattr(lmn.model, "QUERY_TILE", tile)
    spans = []
    for cls in (lmn.model.LmnBlock, lmn.model.BaselineBlock):
        def recorded(self, x, n, whole, start, run=cls.__dict__["_tile"]):
            spans.append((start, x.shape[1]))
            return run(self, x, n, whole, start)
        monkeypatch.setattr(cls, "_tile", recorded)
    return spans


def _logits_and_grads(cfg, tokens, targets, dtype):
    model = build_model(cfg, dtype)
    logits = model.forward(tokens)
    loss_fn(logits, targets).backward()
    return logits.data, {name: p.grad for name, p in model.params.items()}


@pytest.mark.parametrize("name,kw", TILED_CONFIGS, ids=[n for n, _ in TILED_CONFIGS])
@pytest.mark.parametrize("L", [16 + 37, 2 * 16])
def test_tiled_forward_matches_one_tile(monkeypatch, name, kw, L):
    # tiles of 16: a short last tile (L = T + 37) and whole tiles only (L = 2T),
    # through two blocks, against the same model run as one tile; at L = 53
    # the expander's tiles drop levels 4 and 5, then 5, then 4, then 3
    cfg = ModelConfig(vocab_size=11, embed=8, max_seq_len=64, n_blocks=2, seed=6, **kw)
    rng = make_rng(10)
    tokens = rng.integers(0, cfg.vocab_size, size=(2, L))
    targets = rng.integers(0, cfg.vocab_size, size=(2, L))
    runs = {}
    for tile in (16, 64):
        spans = _set_tiles(monkeypatch, cfg, L, tile)
        logits, _ = _logits_and_grads(cfg, tokens, targets, np.float32)
        runs[tile] = logits, _logits_and_grads(cfg, tokens, targets, np.float64)[1]
        assert spans == [(start, min(tile, L - start)) for start in range(0, L, tile)] * 4
    (tiled, tiled_grads), (whole, whole_grads) = runs[16], runs[64]
    assert np.abs(tiled - whole).max() <= 1e-6
    for key, g in whole_grads.items():
        assert np.abs(tiled_grads[key] - g).max() <= 1e-4, key


@pytest.mark.parametrize("name,kw", [*TILED_CONFIGS[:3:2], *TILED_CONFIGS[-2:]],
                         ids=["logmem", "expsum", "baseline-1head", "baseline-4heads"])
def test_tiled_forward_is_causal_across_a_tile_boundary(monkeypatch, name, kw):
    # tiles of 16 through two blocks: the logits up to position 16 + 3, in
    # the second tile, are bit-exact whatever the tokens after it are
    cfg = ModelConfig(vocab_size=11, embed=8, max_seq_len=64, n_blocks=2, seed=6, **kw)
    model = build_model(cfg)
    spans = _set_tiles(monkeypatch, cfg, 53, 16)
    queries = []
    attention = lmn.model.BaselineBlock.attention

    def counted(self, q, *rest):
        queries.append(q.shape[1])
        return attention(self, q, *rest)

    monkeypatch.setattr(lmn.model.BaselineBlock, "attention", counted)
    tokens = make_rng(11).integers(0, cfg.vocab_size, size=(2, 53))
    perturbed = tokens.copy()
    perturbed[:, 16 + 4:] = (tokens[:, 16 + 4:] + 1) % cfg.vocab_size
    with no_grad():
        a = model.forward(tokens).data
        b = model.forward(perturbed).data
    assert np.array_equal(a[:, :16 + 4], b[:, :16 + 4])
    assert not np.array_equal(a[:, 16 + 4:], b[:, 16 + 4:])
    assert [n for _, n in spans] == [16, 16, 16, 5] * 4  # per block and pass
    if cfg.variant == "baseline-attn":  # the queries ran in the same tiles
        assert queries == [16, 16, 16, 5] * 4


# Table 1 comparison configs (documented in the README): 4 pre-norm blocks,
# context 512, unbiased bank summarizers, biased qkv on the tree variants.
TABLE1 = dict(embed=32, vocab_size=65, max_seq_len=512, n_blocks=4, summarizer_bias=False)


def test_param_counts_match_comparison_table():
    reported = {
        "logmem": (ModelConfig(variant="logmem", banks=2, **TABLE1), 71489),
        "tiny-logmem": (ModelConfig(variant="tiny-logmem", banks=2, **TABLE1), 42305),
        "expsum": (ModelConfig(variant="expsum", expansion=1, **TABLE1), 71489),
        "baseline-attn": (ModelConfig(variant="baseline-attn", n_heads=4, **TABLE1), 71105),
    }
    for name, (cfg, published) in reported.items():
        got = param_count(cfg)
        assert abs(got - published) / published <= 0.15, f"{name}: {got} vs {published}"
        assert got == published, f"{name}: documented config should match exactly"
    assert param_count(reported["tiny-logmem"][0]) < param_count(reported["logmem"][0])


def test_param_count_is_pure_and_matches_built_model():
    cfg = small_cfg(dict(variant="expsum", expansion=2))
    model = build_model(cfg)
    total = sum(p.data.size for p in model.params.values())
    assert param_count(cfg) == total == param_count(cfg)


@pytest.mark.parametrize("kw", [dict(variant="logmem", banks=3), dict(variant="tiny-logmem", banks=2),
                                dict(variant="logmem", banks=3, summarizer="dsconv", summarizer_bias=False),
                                dict(variant="expsum", expansion=2), dict(variant="baseline-attn")],
                         ids=["logmem", "tiny", "dsconv-unbiased", "expsum", "baseline"])
def test_param_count_closed_form_matches_every_block_and_bank(kw):
    # counted from one- and two-block schemas, so a config of any size is counted at once
    cfg = small_cfg(kw, embed=8, n_blocks=3)
    assert param_count(cfg) == sum(p.data.size for p in build_model(cfg).params.values())
    assert param_count(dataclasses.replace(cfg, n_blocks=2**63)) > 2**63


def test_lmn_model_steps_at_a_max_seq_len_past_2_64():
    # the slot state's level count is exact integer arithmetic at any length
    model = build_model(small_cfg(dict(variant="logmem", banks=1), embed=4, max_seq_len=10**20))
    with no_grad():
        logits = model.step(model.start_state(), 3)
    assert logits.shape == (29,) and np.all(np.isfinite(logits.data))


def test_no_positional_table_in_lmn_variants():
    for _, kw in VARIANT_CONFIGS:
        cfg = small_cfg(kw)
        names = [name for name, _, _, _ in param_schema(cfg)]
        assert not any("pos" in n for n in names)
    baseline = small_cfg(dict(variant="baseline-attn"))
    assert any("pos" in n for n, _, _, _ in param_schema(baseline))


def test_position_swap_changes_later_logits():
    # swapping tokens 2 and 5 keeps the multiset of the prefix [0,5] intact,
    # so any change at positions >= 5 is positional information at work
    cfg = small_cfg(dict(variant="logmem", banks=2))
    model = build_model(cfg)
    rng = make_rng(9)
    tokens = rng.integers(0, cfg.vocab_size, size=(1, 16))
    while tokens[0, 2] == tokens[0, 5]:
        tokens[0, 5] = rng.integers(0, cfg.vocab_size)
    swapped = tokens.copy()
    swapped[0, 2], swapped[0, 5] = tokens[0, 5], tokens[0, 2]
    with no_grad():
        a = model.forward(tokens, mode="parallel").data
        b = model.forward(swapped, mode="parallel").data
    assert np.array_equal(a[:, :2], b[:, :2])  # causality below the swap
    assert np.abs(a[:, 5:] - b[:, 5:]).max() > 1e-4


def test_config_invariants():
    exp = ModelConfig(variant="expsum", banks=3)
    assert exp.banks == 1
    with pytest.raises(ValueError):
        ModelConfig(variant="nope")
    with pytest.raises(ValueError):
        ModelConfig(embed=0)
    with pytest.raises(ValueError):
        ModelConfig(variant="baseline-attn", embed=30, n_heads=4)


@pytest.mark.parametrize("kw,bank_tensors", [
    pytest.param(dict(variant="logmem", banks=2), ("weight", "bias"), id="linear"),
    pytest.param(dict(variant="logmem", banks=2, summarizer="dsconv"),
                 ("depthwise", "pointwise", "bias"), id="dsconv"),
    pytest.param(dict(variant="logmem", banks=2, summarizer="dsconv", summarizer_bias=False),
                 ("depthwise", "pointwise"), id="dsconv-nobias"),
    pytest.param(dict(variant="expsum", expansion=1), ("conv", "expand"), id="expsum"),
])
def test_checkpoint_round_trip_bit_exact(tmp_path, kw, bank_tensors):
    cfg = small_cfg(kw, seed=21)
    model = build_model(cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.config == cfg
    assert [n for n in loaded.params if ".bank" in n] == [
        f"block0.bank{j}.{t}" for j in range(cfg.banks) for t in bank_tensors]
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name].data, p.data), name
    tokens = make_rng(11).integers(0, cfg.vocab_size, size=(1, 8))
    with no_grad():
        assert np.array_equal(model.forward(tokens).data, loaded.forward(tokens).data)


def test_version_1_checkpoint_loads_bit_identical(tmp_path):
    # version 1 is version 2 without the CRC32 trailer
    cfg = small_cfg(dict(variant="logmem", banks=2), seed=22)
    model = build_model(cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    blob = path.read_bytes()
    assert struct.unpack_from("<I", blob, 7)[0] == 2
    assert struct.unpack("<I", blob[-4:])[0] == zlib.crc32(blob[:-4])
    path.write_bytes(blob[:7] + struct.pack("<I", 1) + blob[11:-4])
    loaded = load_checkpoint(path)
    assert loaded.config == cfg
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name].data, p.data), name
    tokens = make_rng(13).integers(0, cfg.vocab_size, size=(1, 8))
    with no_grad():
        assert np.array_equal(model.forward(tokens).data, loaded.forward(tokens).data)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        load_checkpoint(path)


@pytest.mark.parametrize("value", ["flase", "true", "1", ""])
def test_checkpoint_config_rejects_bad_bool(value):
    assert config_from_text("embed=8\nsummarizer_bias=False\n").summarizer_bias is False
    with pytest.raises(ValueError, match=f"{value!r}.*'summarizer_bias'"):
        config_from_text(f"embed=8\nsummarizer_bias={value}\n")


def with_retired_keys(cfg_text: str, ffn_mult: int, qkv_bias: bool = True,
                      tie_embeddings: bool = False, score_orientation: str = "literal") -> str:
    """A config text as checkpoints wrote it while ffn_mult, qkv_bias,
    tie_embeddings and score_orientation were ModelConfig fields, each in its
    field's place."""
    out = []
    for line in cfg_text.splitlines(keepends=True):
        out.append(line)
        key = line.partition("=")[0]
        if key == "expansion":
            out.append(f"ffn_mult={ffn_mult}\n")
        elif key == "summarizer_bias":
            out.append(f"qkv_bias={qkv_bias}\n")
    return "".join(out) + f"score_orientation={score_orientation}\ntie_embeddings={tie_embeddings}\n"


def write_checkpoint(path, cfg_text: str, tensors: dict) -> None:
    """The version-1 checkpoint byte format, which has no CRC32, written
    apart from save_checkpoint."""
    with open(path, "wb") as f:
        f.write(b"LMNCKPT" + struct.pack("<II", 1, len(cfg_text)) + cfg_text.encode())
        for name, a in tensors.items():
            f.write(struct.pack("<I", len(name)) + name.encode())
            f.write(struct.pack(f"<{1 + a.ndim}I", a.ndim, *a.shape) + a.astype("<f4").tobytes())


def resealed(blob: bytes) -> bytes:
    """A version-2 checkpoint's bytes with the last four replaced by the
    CRC32 of the rest, so damage done before them passes the CRC check and
    reaches the checks behind it."""
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


@pytest.mark.parametrize("variant", VARIANTS)
def test_checkpoint_with_retired_keys_at_written_values_loads_bit_identical(tmp_path, variant):
    cfg = small_cfg(dict(variant=variant, n_heads=4), n_blocks=2)
    model = build_model(cfg)
    text = with_retired_keys(config_to_text(cfg), ffn_mult=1 if variant == "tiny-logmem" else 4)
    assert text.count("=") == len(dataclasses.fields(ModelConfig)) + 4
    path = tmp_path / "old.ckpt"
    write_checkpoint(path, text, {name: p.data for name, p in model.params.items()})
    loaded = load_checkpoint(path)
    assert loaded.config == cfg
    tokens = make_rng(12).integers(0, cfg.vocab_size, size=(2, 19))
    with no_grad():
        assert np.array_equal(loaded.forward(tokens).data, model.forward(tokens).data)


def test_stepping_keeps_nothing_alive_per_token():
    # an allocation that outlives its step grows with the number of steps:
    # 4N steps may leave no more behind than N do. No gc.collect(): garbage
    # that waits for the cycle collector counts too (a bank mask widened
    # with np.tile left 56 bytes of it per step)
    cfg = ModelConfig(variant="logmem", vocab_size=29, embed=16, max_seq_len=512, banks=2,
                      n_blocks=1, seed=3)
    model = build_model(cfg)
    generate(model, [1, 2, 3], 16, argmax=True)
    n = 100
    tracemalloc.start()
    try:
        generate(model, [1], n, argmax=True)
        after_n = tracemalloc.get_traced_memory()[0]
        generate(model, [1], 4 * n, argmax=True)
        after_4n = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after_4n - after_n < 4096
