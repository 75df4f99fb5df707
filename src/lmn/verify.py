"""Self-contained invariant suite behind the `verify` subcommand.

Runs the library's correctness properties on seeded models: dual-mode
equivalence for every variant (the parallel forward against stepping
through ``step``), the pyramid against the carry chain, finite-difference
gradient checks, prefix causality, attention mask/softmax behaviour, the
folded attention against the unfused projection chain, slot-count oracles
against brute-force prefix decomposition, and the expander width arithmetic.
Every layer a check exercises is taken from a model that ``build_model``
made, so its weights come from the parameter schema, as every model's do.
"""

from __future__ import annotations

import numpy as np

from .attention import (
    attend,
    mask_softmax,
    multi_bank_combine,
    qkv_project,
    single_vector_scores,
    weighted_sum,
)
from .bench import baseline_score_mac_closed_form, lmn_score_mac_closed_form
from .counters import COUNTER
from .memory import parallel_memory, sequential_memory, slot_widths, valid_mask
from .model import ModelConfig, build_model, loss as loss_fn
from .tensor import Tensor, grad_check, make_rng, no_grad


def prefix_decomposition(t: int) -> list[tuple[int, int]]:
    """Greedy binary split of [0, t) into aligned power-of-two blocks,
    largest first: the independent oracle for slot occupancy."""
    blocks = []
    start = 0
    remaining = t
    level = max(0, t.bit_length() - 1)
    while remaining > 0:
        size = 1 << level
        if size <= remaining:
            blocks.append((level, start))
            start += size
            remaining -= size
        level -= 1
    return blocks


def _block(E: int, seed: int, **cfg):
    """Block 0 of a one-block model: its layers, weights from the parameter schema."""
    return build_model(ModelConfig(embed=E, n_blocks=1, seed=seed, **cfg)).blocks[0]


def _variant_configs(embed: int, max_len: int):
    shared = dict(vocab_size=29, embed=embed, max_seq_len=max_len, n_blocks=1, seed=7)
    return [
        ModelConfig(variant="logmem", banks=1, **shared),
        ModelConfig(variant="logmem", banks=2, **shared),
        ModelConfig(variant="tiny-logmem", banks=2, **shared),
        ModelConfig(variant="expsum", expansion=1, **shared),
        ModelConfig(variant="baseline-attn", n_heads=4, **shared),
    ]


def check_mode_equivalence(quick: bool):
    # full capacity, where the last push writes the root, and an odd length,
    # where the parallel pyramid is padded
    lengths, E = ((32, 21), 8) if quick else ((64, 45), 16)
    worst = 0.0
    rng = make_rng(11)
    for cfg in _variant_configs(E, lengths[0]):
        model = build_model(cfg)
        for L in lengths:
            tokens = rng.integers(0, cfg.vocab_size, size=(2, L))
            with no_grad():
                par = model.forward(tokens, mode="parallel").data
                seq = model.forward(tokens, mode="sequential").data
            worst = max(worst, float(np.abs(par - seq).max()))
    return worst <= 1e-4, f"max |parallel - model.step| logit gap = {worst:.2e} at L={lengths}"


def _tree_gap(summarizers, L: int, E: int, rng) -> float:
    """Largest |parallel - sequential| memory entry over the given summarizers."""
    gap = 0.0
    for summ in summarizers:
        x = Tensor(rng.standard_normal((2, L, E)).astype(np.float32))
        with no_grad():
            par = parallel_memory(x, [summ]).data.data
            seq = sequential_memory(x, [summ]).data.data
        gap = max(gap, float(np.abs(par - seq).max()))
    return gap


def check_memory_equivalence(quick: bool):
    L, E = (32, 8) if quick else (64, 16)
    rng = make_rng(3)
    summs = [_block(E, seed, banks=1, summarizer=form).summarizers[0]
             for seed, form in ((3, "linear"), (4, "dsconv"))]
    gap = _tree_gap(summs, L, E, rng)
    return gap <= 1e-5, f"max memory gap (linear, dsconv) = {gap:.2e}"


def check_gradients(quick: bool):
    cfg = ModelConfig(variant="logmem", vocab_size=7, embed=4, max_seq_len=8,
                      banks=2, n_blocks=1, seed=5)
    model = build_model(cfg, np.float64)
    rng = make_rng(13)
    tokens = rng.integers(0, cfg.vocab_size, size=(1, 8))
    targets = rng.integers(0, cfg.vocab_size, size=(1, 8))
    names = list(model.params)
    if quick:
        names = names[:6]
    params = [model.params[n] for n in names]

    def f(_):
        return loss_fn(model.forward(tokens, mode="parallel"), targets)

    err = grad_check(f, params, eps=1e-4)
    return err <= 1e-4, f"max relative gradient error = {err:.2e} (float64)"


def check_causality(quick: bool):
    L, E = 16, 8
    n_cases = 10 if quick else 30
    rng = make_rng(23)
    ok = True
    for cfg in _variant_configs(E, L):
        model = build_model(cfg)
        for _ in range(n_cases // 2):
            tokens = rng.integers(0, cfg.vocab_size, size=(1, L))
            t = int(rng.integers(0, L - 1))
            perturbed = tokens.copy()
            perturbed[0, t + 1:] = rng.integers(0, cfg.vocab_size, size=L - t - 1)
            with no_grad():
                a = model.forward(tokens, mode="parallel").data[:, : t + 1]
                b = model.forward(perturbed, mode="parallel").data[:, : t + 1]
            ok = ok and np.array_equal(a, b)
    return ok, "prefix logits bit-identical under future perturbation"


def check_attention_masking(quick: bool):
    L, E = 32, 8
    block = _block(E, 2, banks=2, vocab_size=17, max_seq_len=L)
    rng = make_rng(31)
    x = Tensor(rng.standard_normal((2, L, E)).astype(np.float32))
    with no_grad():
        mem = multi_bank_combine(parallel_memory(x, block.summarizers))
        w = attend(mem, x, block.qkv_w, block.qkv_b)[1].data
    sums = w.sum(axis=-1)
    zeros_exact = bool(np.all(w[~np.broadcast_to(mem.valid[None], w.shape)] == 0.0))
    ok = bool(np.all(np.abs(sums - 1.0) <= 1e-6) and zeros_exact)
    return ok, f"weight sums in [{sums.min():.8f}, {sums.max():.8f}], invalid levels exactly zero: {zeros_exact}"


def unfused_attend(mem, weight, bias):
    """The attention chain with every memory row projected, as (values, weights):
    the reference that the folded ``attend`` must match."""
    q, k, v = qkv_project(mem, weight, bias)
    weights = mask_softmax(single_vector_scores(q, k, mem.valid), mem.valid)
    return weighted_sum(weights, v), weights


def check_attention_fold(quick: bool):
    L, E = 13, 8  # odd L: the pyramid is padded
    rng = make_rng(37)
    block = _block(E, 37, banks=2)
    x = Tensor(rng.standard_normal((2, L, E)).astype(np.float32))
    with no_grad():
        mem = multi_bank_combine(parallel_memory(x, block.summarizers))
        values, weights = attend(mem, x, block.qkv_w, block.qkv_b)
        ref_v, ref_w = unfused_attend(mem, block.qkv_w, block.qkv_b)
    gap_w = float(np.abs(weights.data - ref_w.data).max())
    gap_v = float(np.abs(values.data - ref_v.data).max())
    ok = gap_w <= 1e-5 and gap_v <= 1e-4
    return ok, f"folded vs unfused attention: weight gap {gap_w:.2e}, value gap {gap_v:.2e}"


def check_slot_counts(quick: bool):
    n = 512 if quick else 4096
    S = 13
    mask = valid_mask(n, S)
    ok = True
    for t in range(n):
        blocks = prefix_decomposition(t)
        expected_levels = {level for level, _ in blocks}
        got_levels = {i for i in range(S) if mask[t, i + 1]}
        ok = ok and expected_levels == got_levels and mask[t].sum() == bin(t).count("1") + 1
    return ok, f"slot occupancy equals prefix decomposition for all t < {n}"


def check_expander_widths(quick: bool):
    ok = True
    for S, k in ((4, 1), (13, 1), (6, 2), (5, 0)):
        widths = slot_widths(S, k)
        ok = ok and widths == [1 + level * k for level in range(S)]
        ok = ok and sum(widths) == S + k * S * (S - 1) // 2
    n = 256 if quick else 1024
    mask = valid_mask(n, 13, 1)
    widths = slot_widths(13, 1)
    for t in range(n):
        expect = 1 + sum(widths[level] for level, _ in prefix_decomposition(t))
        ok = ok and mask[t].sum() == expect
    return ok, "width arithmetic and per-position entry counts match the formula"


def check_expanded_equivalence(quick: bool):
    L, E = (16, 8) if quick else (32, 8)
    rng = make_rng(41)
    summs = [_block(E, 41 + k, variant="expsum", expansion=k).summarizers[0] for k in (1, 2)]
    gap = _tree_gap(summs, L, E, rng)
    return gap <= 1e-5, f"expander memory gap (k=1, k=2) = {gap:.2e}"


def check_counters(quick: bool):
    L, E = 64, 8
    ok = True
    details = []
    for variant, closed in (("logmem", lambda: lmn_score_mac_closed_form(L, E, 2)),
                            ("baseline-attn", lambda: baseline_score_mac_closed_form(L, E))):
        cfg = ModelConfig(variant=variant, vocab_size=11, embed=E, max_seq_len=L,
                          banks=2, n_blocks=1, n_heads=2, seed=3)
        model = build_model(cfg)
        tokens = make_rng(4).integers(0, cfg.vocab_size, size=(1, L))
        COUNTER.reset()
        with no_grad():
            model.forward(tokens, mode="parallel")
        ok = ok and COUNTER.score_macs == closed()
        details.append(f"{variant}: counted {COUNTER.score_macs} vs closed form {closed()}")
    return ok, "; ".join(details)


CHECKS = [
    ("mode-equivalence", check_mode_equivalence),
    ("memory-equivalence", check_memory_equivalence),
    ("expander-equivalence", check_expanded_equivalence),
    ("gradients", check_gradients),
    ("causality", check_causality),
    ("attention-masking", check_attention_masking),
    ("attention-fold", check_attention_fold),
    ("slot-counts", check_slot_counts),
    ("expander-widths", check_expander_widths),
    ("score-mac-counters", check_counters),
]


def run_verify(quick: bool = False, log=print) -> bool:
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn(quick)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        log(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
