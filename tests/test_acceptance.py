"""Acceptance criteria, one test per criterion at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines. The heavy runs (scaling sweep, desk-scale training) sit at the
end of the module. Expected total runtime on a laptop-class CPU: the quick
criteria finish in under two minutes, the scaling sweep in under ten, the
reduced training comparison well under two hours (about fifteen minutes).
"""

import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from lmn.attention import attend, qkv_project, single_vector_scores
from lmn.bench import (
    baseline_score_mac_closed_form,
    bench_model,
    lmn_score_mac_closed_form,
    loglog_slope,
    peak_bytes,
    sweep,
)
from lmn.corpus import generate_corpus
from lmn.counters import COUNTER
from lmn.data import Dataset
from lmn.memory import MemoryTensor, slot_widths, valid_mask
from lmn.model import ModelConfig, build_model, loss as loss_fn, param_count
from lmn.tensor import Tensor, grad_check, make_rng, no_grad
from lmn.training import TrainConfig, train
from lmn.verify import run_verify

from conftest import block_layers, naive_single_vector_attention, prefix_blocks


def report(criterion: str, detail: str):
    print(f"\n[acceptance PASS] {criterion}: {detail}")


ALL_VARIANTS = [
    dict(variant="logmem", banks=1),
    dict(variant="logmem", banks=2),
    dict(variant="tiny-logmem", banks=2),
    dict(variant="expsum", expansion=1),
]


def test_criterion_01_mode_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    rng = make_rng(101)
    for kw in ALL_VARIANTS:
        cfg = ModelConfig(vocab_size=31, embed=16, max_seq_len=64, n_blocks=1,
                          seed=11, **kw)
        model = build_model(cfg)
        tokens = rng.integers(0, cfg.vocab_size, size=(2, 64))
        with no_grad():
            par = model.forward(tokens, mode="parallel").data
            seq = model.forward(tokens, mode="sequential").data
        gap = float(np.abs(par - seq).max())
        assert gap <= 1e-4, f"{kw}: {gap}"
        worst = max(worst, gap)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report("1 mode equivalence", f"worst logit gap {worst:.2e} across 4 variants in {elapsed:.1f}s")


def test_criterion_02_gradient_correctness():
    t0 = time.monotonic()
    cfg = ModelConfig(variant="logmem", vocab_size=7, embed=4, max_seq_len=8,
                      banks=2, n_blocks=1, seed=5)
    rng = make_rng(102)
    tokens = rng.integers(0, 7, size=(1, 8))
    targets = rng.integers(0, 7, size=(1, 8))
    # 64-bit mode exists, so the tighter bound applies
    model = build_model(cfg, np.float64)
    params = list(model.params.values())

    def f(_):
        return loss_fn(model.forward(tokens, mode="parallel"), targets)

    err = grad_check(f, params, eps=1e-4)
    elapsed = time.monotonic() - t0
    assert err <= 1e-4
    assert elapsed < 60.0
    report("2 gradient correctness",
           f"max relative error {err:.2e} over {sum(p.size for p in params)} coords "
           f"(64-bit mode, tolerance 1e-4) in {elapsed:.1f}s")


def test_criterion_03_causality_bit_exact():
    rng = make_rng(103)
    L = 32
    models = []
    for kw in ALL_VARIANTS + [dict(variant="baseline-attn", n_heads=4)]:
        cfg = ModelConfig(vocab_size=17, embed=8, max_seq_len=L, n_blocks=1, seed=3, **kw)
        models.append((kw["variant"], build_model(cfg)))
    checked = 0
    for _ in range(100):
        tokens = rng.integers(0, 17, size=(1, L))
        t = int(rng.integers(0, L - 1))
        perturbed = tokens.copy()
        perturbed[0, t + 1:] = rng.integers(0, 17, size=L - t - 1)
        name, model = models[checked % len(models)]
        with no_grad():
            a = model.forward(tokens, mode="parallel").data[:, : t + 1]
            b = model.forward(perturbed, mode="parallel").data[:, : t + 1]
        assert np.array_equal(a, b), f"{name} at t={t}"
        checked += 1
    report("3 causality", f"{checked} perturbation pairs bit-identical across all variants")


def test_criterion_04_structural_counts():
    n = 4096
    S = 12
    mask = valid_mask(n, S)
    widths = slot_widths(S, k=1)
    emask = valid_mask(n, S, k=1)
    for t in range(n):
        blocks = prefix_blocks(t)
        levels = {level for level, _ in blocks}
        assert {i for i in range(S) if mask[t, i + 1]} == levels
        assert mask[t].sum() == bin(t).count("1") + 1
        expect = 1 + sum(1 + level * 1 for level in levels)
        assert emask[t].sum() == expect
    for S_check, k in ((13, 1), (9, 2), (12, 1)):
        total = sum(slot_widths(S_check, k))
        assert total == S_check + k * S_check * (S_check - 1) // 2
    report("4 structural counts",
           f"slot occupancy equals the prefix-decomposition oracle for all t < {n}; "
           f"expander totals match S + k*S*(S-1)/2 exactly")


def test_criterion_05_attention_invariants():
    rng = make_rng(105)
    e = 8
    cases = 0
    worst_sum = 0.0
    worst_score = 0.0
    while cases < 1000:
        b, L = 4, 16
        mask = valid_mask(L, 4)
        data = rng.standard_normal((b, L, mask.shape[1], e)).astype(np.float32)
        data[:, ~mask] = 0.0
        mem = MemoryTensor(Tensor(data), mask)
        qkv_w, qkv_b = block_layers(e, 1000 + cases)[0]
        w = attend(mem, Tensor(data[:, :, 0]), qkv_w, qkv_b)[1].data
        assert np.all(np.abs(w.sum(-1) - 1.0) <= 1e-6)
        assert np.all(w[:, ~mask] == 0.0)
        worst_sum = max(worst_sum, float(np.abs(w.sum(-1) - 1.0).max()))
        q, k, v = qkv_project(mem, qkv_w, qkv_b)
        scores = single_vector_scores(q, k, mask).data
        for bi in range(b):
            for t in range(L):
                k0 = k.data[bi, t, 0].astype(np.float64)
                for i in range(mask.shape[1]):
                    dot = float(q.data[bi, t, i].astype(np.float64) @ k0)
                    gap = abs(scores[bi, t, i] - dot / np.sqrt(e))
                    assert gap <= 1e-5
                    worst_score = max(worst_score, gap)
        expect_vals, expect_w = naive_single_vector_attention(
            data, mask, qkv_w.data, qkv_b.data)
        assert np.abs(w - expect_w).max() <= 1e-5
        cases += b * L
    report("5 attention invariants",
           f"{cases} cases: max |sum-1| {worst_sum:.2e}, max oracle gap {worst_score:.2e}")


def test_criterion_06_complexity_counters():
    e, L, nb = 32, 8192, 2
    lmn = bench_model("logmem", L, embed=e, banks=nb)
    tokens = make_rng(106).integers(0, 65, size=(1, L))
    COUNTER.reset()
    with no_grad():
        lmn.forward(tokens, mode="parallel")
    lmn_macs = COUNTER.score_macs
    assert lmn_macs == lmn_score_mac_closed_form(L, e, nb)

    base = bench_model("baseline-attn", L, embed=e)
    COUNTER.reset()
    with no_grad():
        base.forward(tokens, mode="parallel")
    base_macs = COUNTER.score_macs
    assert base_macs == baseline_score_mac_closed_form(L, e)

    ratio = base_macs / lmn_macs
    assert ratio > 100.0
    report("6 complexity counters",
           f"L=8192: LMN {lmn_macs} == closed form, baseline {base_macs} == closed form, "
           f"ratio {ratio:.0f}x (paper's absolute timings not reproduced)")


def test_criterion_09_param_counts():
    shared = dict(embed=32, vocab_size=65, max_seq_len=512, n_blocks=4,
                  summarizer_bias=False)
    counts = {
        "logmem": (param_count(ModelConfig(variant="logmem", banks=2, **shared)), 71489),
        "tiny-logmem": (param_count(ModelConfig(variant="tiny-logmem", banks=2, **shared)), 42305),
        "baseline-attn": (param_count(ModelConfig(variant="baseline-attn", n_heads=4, **shared)), 71105),
    }
    for name, (got, published) in counts.items():
        assert abs(got - published) / published <= 0.15, f"{name}: {got} vs {published}"
    assert counts["tiny-logmem"][0] < counts["logmem"][0]
    detail = ", ".join(f"{k}: {g} vs {p} ({100 * (g - p) / p:+.2f}%)"
                       for k, (g, p) in counts.items())
    report("9 parameter counts", detail)


def test_criterion_10_generation_consistency():
    rng = make_rng(110)
    cfg = ModelConfig(variant="logmem", vocab_size=31, embed=16, max_seq_len=64,
                      banks=2, n_blocks=1, seed=9)
    model = build_model(cfg)
    worst = 0.0
    for _ in range(10):
        L = int(rng.integers(8, 48))
        prompt = rng.integers(0, cfg.vocab_size, size=(1, L))
        with no_grad():
            tf = model.forward(prompt, mode="parallel").data[0]
            state = model.start_state()
            stepped = np.stack([model.step(state, int(t)).data for t in prompt[0]])
        gap = float(np.abs(tf - stepped).max())
        assert gap <= 1e-4
        worst = max(worst, gap)
    report("10 generation consistency", f"10 prompts, worst per-position logit gap {worst:.2e}")


def test_criterion_11_verify_quick_under_60s(capsys):
    t0 = time.monotonic()
    ok = run_verify(quick=True, log=lambda s: None)
    elapsed = time.monotonic() - t0
    assert ok
    assert elapsed < 60.0
    report("11 verify --quick", f"all checks pass in {elapsed:.1f}s")


def test_criterion_07_scaling_trends(tmp_path):
    t0 = time.monotonic()
    # timing-sensitive: needs the machine to itself (median of 5 reps)
    lengths = [1024, 2048, 4096, 8192, 16384]
    out_csv = tmp_path / "scaling.csv"
    records = sweep(lengths, ["logmem", "baseline-attn"], out_csv,
                    modes=("parallel",), reps=5, embed=32, banks=2, seed=0)
    times = {(r.variant, r.L): r.median_seconds for r in records if r.status == "ok"}
    base_slope = loglog_slope(lengths, [times[("baseline-attn", L)] for L in lengths])
    lmn_slope = loglog_slope(lengths, [times[("logmem", L)] for L in lengths])
    assert base_slope >= 1.7
    assert lmn_slope <= 1.3

    peaks = {}
    for variant in ("logmem", "baseline-attn"):
        for L in (1024, 16384):
            model = bench_model(variant, L, embed=32, banks=2)
            peaks[(variant, L)] = peak_bytes(model, L, "sequential")
            del model
    lmn_ratio = peaks[("logmem", 16384)] / peaks[("logmem", 1024)]
    base_ratio = peaks[("baseline-attn", 16384)] / peaks[("baseline-attn", 1024)]
    assert lmn_ratio < 2.0
    assert base_ratio >= 8.0
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    report("7 scaling trends",
           f"time slopes: baseline {base_slope:.2f} (>=1.7), LMN parallel {lmn_slope:.2f} (<=1.3); "
           f"sequential peak ratios 1024->16384: LMN {lmn_ratio:.2f}x (<2), "
           f"baseline {base_ratio:.1f}x (>=8); total {elapsed:.0f}s")


def test_criterion_07_training_peak_growth():
    # Bytes under grad, where quadratic attention costs the most. A training
    # step's tracemalloc peak is deterministic, so the check compares growth
    # ratios and cannot flake as a time slope can; it never compares two
    # first-pass peaks for equality. The growth class sets the bounds: for a
    # 4x longer sequence, a peak linear in L grows under 4x and one quadratic
    # in L grows past 8x. The tree reads its memory in tiles of at most 1024
    # positions here: what one tile allocates does not grow with L, and the
    # tape keeps per tile only arrays of its T positions (banks * D rows
    # each at most, D = 1 + log2 L), so the tree's peak grows with the number
    # of tiles, near linearly. The baseline's tape keeps the [L, L] attention
    # weights of its query tiles, quadratic in L.
    peaks = {}
    for variant in ("logmem", "baseline-attn"):
        for L in (1024, 4096):
            peaks[(variant, L)] = peak_bytes(bench_model(variant, L, embed=32, banks=2), L, "train")
    lmn_ratio = peaks[("logmem", 4096)] / peaks[("logmem", 1024)]
    base_ratio = peaks[("baseline-attn", 4096)] / peaks[("baseline-attn", 1024)]
    assert lmn_ratio < 4.0, peaks
    assert base_ratio >= 8.0, peaks
    report("7 training peak growth",
           f"train peak ratios 1024->4096: LMN {lmn_ratio:.2f}x (<4), baseline {base_ratio:.1f}x (>=8)")


def _criterion_08_final_val(ds, variant, kw, seed):
    cfg = ModelConfig(variant=variant, vocab_size=len(ds.vocab), embed=32,
                      max_seq_len=256, n_blocks=1, seed=seed, **kw)
    tc = TrainConfig(batch_size=16, block_size=256, max_iters=2000,
                     learning_rate=1e-3, eval_iters=40, eval_interval=500,
                     seed=seed)
    return train(build_model(cfg), ds, tc).final_val


def test_criterion_08_training_table_ordering(monkeypatch):
    t0 = time.monotonic()
    text = generate_corpus(1_100_000, seed=1337)
    ds = Dataset.from_text(text)
    assert len(ds.vocab) == 65
    seed = 7
    # The two runs share nothing, so each trains in its own process with one
    # BLAS thread; the pair takes the time of the slower run, not the sum.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        runs = {variant: pool.submit(_criterion_08_final_val, ds, variant, kw, seed)
                for variant, kw in (("logmem", dict(banks=2, summarizer_bias=False)),
                                    ("baseline-attn", dict(n_heads=4)))}
        finals = {variant: run.result() for variant, run in runs.items()}
    bound = math.log(len(ds.vocab)) - 1.0
    assert finals["logmem"] < finals["baseline-attn"], finals
    assert finals["logmem"] < bound and finals["baseline-attn"] < bound
    elapsed = time.monotonic() - t0
    assert elapsed < 7200.0
    report("8 training (reduced Table-1 echo)",
           f"val losses: logmem {finals['logmem']:.4f} < baseline {finals['baseline-attn']:.4f}, "
           f"both < ln(65)-1 = {bound:.3f}; {elapsed/60:.1f} min "
           f"(full-scale 512/5000 config provided; soft target 1.77 +/- 0.15 documented)")
