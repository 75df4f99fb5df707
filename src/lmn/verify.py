"""Self-contained invariant suite behind the `verify` subcommand.

Runs each of the library's correctness properties once, on seeded models,
over every configuration that has it: dual-mode equivalence for every
variant (the parallel forward against stepping through ``step``), the
pyramid against the carry chain for every summarizer, finite-difference
gradient checks, prefix causality, attention weights and the folded
attention against the unfused projection chain, slot counts and mask widths
against brute-force prefix decomposition, and the score-MAC counters against
their closed forms. Every layer a check exercises is taken from a model that
``build_model`` made, so its weights come from the parameter schema.
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
from .memory import parallel_memory, sequential_memory, valid_mask
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


def check_memory_equivalence(quick: bool):
    L, E = (32, 8) if quick else (64, 16)
    rng = make_rng(3)
    summs = [_block(E, seed, banks=1, summarizer=form).summarizers[0]
             for seed, form in ((3, "linear"), (4, "dsconv"))]
    summs += [_block(E, 41 + k, variant="expsum", expansion=k).summarizers[0] for k in (1, 2)]
    gap = 0.0
    for summ in summs:
        x = Tensor(rng.standard_normal((2, L, E)).astype(np.float32))
        with no_grad():
            par = parallel_memory(x, [summ]).data.data
            seq = sequential_memory(x, [summ]).data.data
        gap = max(gap, float(np.abs(par - seq).max()))
    return gap <= 1e-5, f"max memory gap (linear, dsconv, expander k=1, k=2) = {gap:.2e} at L={L}"


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


def unfused_attend(mem, weight, bias):
    """The attention chain with every memory row projected, as (values, weights):
    the reference that the folded ``attend`` must match."""
    q, k, v = qkv_project(mem, weight, bias)
    weights = mask_softmax(single_vector_scores(q, k, mem.valid), mem.valid)
    return weighted_sum(weights, v), weights


def check_attention(quick: bool):
    E = 8
    worst_sum, zeros_exact, gap_w, gap_v = 0.0, True, 0.0, 0.0
    for L, seed in ((13, 37), (32, 31)):  # at L=13 the pyramid is padded
        block = _block(E, seed, banks=2)
        x = Tensor(make_rng(seed).standard_normal((2, L, E)).astype(np.float32))
        with no_grad():
            mem = multi_bank_combine(parallel_memory(x, block.summarizers))
            values, weights = attend(mem, x, block.qkv_w, block.qkv_b)
            ref_v, ref_w = unfused_attend(mem, block.qkv_w, block.qkv_b)
        w = weights.data
        worst_sum = max(worst_sum, float(np.abs(w.sum(axis=-1) - 1.0).max()))
        zeros_exact = zeros_exact and bool(np.all(w[:, ~mem.valid] == 0.0))
        gap_w = max(gap_w, float(np.abs(w - ref_w.data).max()))
        gap_v = max(gap_v, float(np.abs(values.data - ref_v.data).max()))
    ok = worst_sum <= 1e-6 and zeros_exact and gap_w <= 1e-5 and gap_v <= 1e-4
    return ok, (f"weight sums within {worst_sum:.1e} of 1, invalid levels exactly zero: {zeros_exact}; "
                f"folded vs unfused: weight gap {gap_w:.2e}, value gap {gap_v:.2e}")


def check_slot_counts(quick: bool):
    n, S = (512 if quick else 4096), 13
    ok = True
    for k in (0, 1, 2):
        mask = valid_mask(n, S, k)
        ok = ok and mask.shape[1] == 1 + S + k * S * (S - 1) // 2
        # level l's rows start at column 1 + sum_{j<l} (1 + j*k)
        starts = [1 + level + k * level * (level - 1) // 2 for level in range(S)]
        has_row = np.logical_or.reduceat(mask, starts, axis=1)
        for t in range(n):
            levels = [level for level, _ in prefix_decomposition(t)]
            ok = (ok and set(np.flatnonzero(has_row[t]).tolist()) == set(levels)
                  and int(mask[t].sum()) == 1 + sum(1 + level * k for level in levels))
    return ok, f"occupied levels and row counts equal prefix decomposition for k = 0, 1, 2 and all t < {n}"


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
    ("gradients", check_gradients),
    ("causality", check_causality),
    ("attention", check_attention),
    ("slot-counts", check_slot_counts),
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
