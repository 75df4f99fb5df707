"""Benchmark harness: counter closed forms, CSV output, and slope fitting."""

import csv
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import lmn.bench
from lmn.bench import (
    BenchRecord,
    baseline_score_mac_closed_form,
    bench_model,
    blas_threads,
    environment_lines,
    lmn_score_mac_closed_form,
    loglog_slope,
    peak_bytes,
    sweep,
    time_forward,
)
from lmn.counters import COUNTER, OpCounter
from lmn.model import QUERY_TILE, TILE_ROWS
from lmn.tensor import make_rng, no_grad


def test_counter_reset_and_snapshot_read_every_field_in_order():
    counter = OpCounter(score_macs=1, summarizer_ops=2, expander_ops=3)
    assert list(counter.snapshot().items()) == [
        ("score_macs", 1), ("summarizer_ops", 2), ("expander_ops", 3)]
    counter.reset()
    assert counter == OpCounter() and list(counter.snapshot().values()) == [0, 0, 0]


def test_lmn_closed_form_matches_brute_force():
    L, e, nb = 37, 8, 2
    brute = e * nb * sum(bin(t).count("1") + 1 for t in range(L))
    assert lmn_score_mac_closed_form(L, e, nb) == brute


def test_counters_match_closed_forms_on_real_forwards():
    for variant, closed in (
        ("logmem", lambda L, e: lmn_score_mac_closed_form(L, e, 2)),
        ("baseline-attn", lambda L, e: baseline_score_mac_closed_form(L, e)),
    ):
        for L in (16, 48, 64):
            model = bench_model(variant, L, embed=8, banks=2)
            tokens = make_rng(0).integers(0, 65, size=(1, L))
            COUNTER.reset()
            with no_grad():
                model.forward(tokens, mode="parallel")
            assert COUNTER.score_macs == closed(L, 8), (variant, L)


def test_expsum_counter_bounded_by_width_formula():
    L, e, k = 64, 8, 1
    model = bench_model("expsum", L, embed=e)
    S = model.config.n_levels
    tokens = make_rng(2).integers(0, 65, size=(1, L))
    COUNTER.reset()
    with no_grad():
        model.forward(tokens, mode="parallel")
    bound = e * L * (1 + S + k * S * (S - 1) // 2)
    assert 0 < COUNTER.score_macs <= bound


def test_sequential_stepping_counters_match_closed_form():
    L = 32
    for variant, closed in (
        ("logmem", lmn_score_mac_closed_form(L, 8, 2)),
        ("baseline-attn", baseline_score_mac_closed_form(L, 8)),
    ):
        model = bench_model(variant, L, embed=8, banks=2)
        tokens = make_rng(1).integers(0, 65, size=(1, L))
        COUNTER.reset()
        state = model.start_state()
        with no_grad():
            for t in tokens[0]:
                model.step(state, int(t))
        assert COUNTER.score_macs == closed, variant


def test_time_forward_produces_record():
    model = bench_model("logmem", 32, embed=8)
    rec = time_forward(model, 32, "parallel", reps=3)
    assert rec.status == "ok"
    assert rec.median_seconds > 0 and rec.iqr_seconds >= 0 and rec.reps >= 3
    assert rec.peak_bytes > 0
    assert rec.score_macs == lmn_score_mac_closed_form(32, 8, 2)
    with pytest.raises(ValueError):
        time_forward(model, 32, "parallel", reps=2)


def test_time_forward_warms_up_past_a_slow_start(monkeypatch):
    # a runner slow for its first four calls, as a forward is for a while
    # after an idle spell: the warm-up outlasts it, so no timed rep is slow
    calls = []

    def runner():
        calls.append(time.monotonic())
        time.sleep(0.2 if len(calls) <= 4 else 0.001)

    monkeypatch.setattr(lmn.bench, "_forward_pass", lambda model, L, mode, seed: runner)
    rec = time_forward(bench_model("logmem", 8, embed=8), 8, "parallel", reps=3)
    assert rec.median_seconds < 0.1
    assert calls[-rec.reps] - calls[1] >= lmn.bench.WARM_UP_SECONDS  # the untraced warm-up


def test_time_forward_warms_up_once_when_a_run_outlasts_the_warm_up(monkeypatch):
    calls = []

    def runner():
        calls.append(None)
        time.sleep(0.02)

    monkeypatch.setattr(lmn.bench, "WARM_UP_SECONDS", 0.01)
    monkeypatch.setattr(lmn.bench, "_forward_pass", lambda model, L, mode, seed: runner)
    rec = time_forward(bench_model("logmem", 8, embed=8), 8, "parallel", reps=3)
    assert len(calls) == 1 + 1 + rec.reps  # the traced run, one warm-up, the reps


def test_time_forward_times_fast_runs_until_the_minimum_span(monkeypatch):
    # 5 ms runs: 3 reps cover 15 ms, so timing goes on until the reps add
    # up to MIN_TIMED_SECONDS; a run longer than the span times reps runs
    def runner(seconds):
        time.sleep(seconds)

    monkeypatch.setattr(lmn.bench, "WARM_UP_SECONDS", 0.0)
    monkeypatch.setattr(lmn.bench, "MIN_TIMED_SECONDS", 0.05)
    model = bench_model("logmem", 8, embed=8)
    for seconds, fewest, most in ((0.005, 4, 11), (0.06, 3, 3)):
        monkeypatch.setattr(lmn.bench, "_forward_pass",
                            lambda model, L, mode, seed, s=seconds: lambda: runner(s))
        rec = time_forward(model, 8, "parallel", reps=3)
        assert fewest <= rec.reps <= most, (seconds, rec.reps)
        assert rec.reps * rec.median_seconds >= 0.9 * min(0.05, 3 * seconds)
        assert 0 <= rec.iqr_seconds < rec.median_seconds


def test_time_forward_oom_becomes_failure_row(monkeypatch):
    model = bench_model("logmem", 16, embed=8)

    def boom(*a, **k):
        raise MemoryError("simulated")

    monkeypatch.setattr(model, "forward", boom)
    rec = time_forward(model, 16, "parallel")
    assert rec.status == "failed" and rec.reps == 0
    assert np.isnan(rec.median_seconds) and np.isnan(rec.iqr_seconds)


@pytest.mark.parametrize("oom", [False, True])
@pytest.mark.parametrize("tracing_before", [False, True])
def test_time_forward_restores_tracing_state(monkeypatch, tracing_before, oom):
    model = bench_model("logmem", 16, embed=8)
    if oom:
        def boom(*a, **k):
            raise MemoryError("simulated")

        monkeypatch.setattr(model, "forward", boom)
    if tracing_before:
        tracemalloc.start()
    try:
        rec = time_forward(model, 16, "parallel")
        assert rec.status == ("failed" if oom else "ok")
        assert tracemalloc.is_tracing() == tracing_before
    finally:
        if tracing_before:
            tracemalloc.stop()


def test_loglog_slope_recovers_exponent():
    Ls = [256, 512, 1024, 2048]
    quad = [1e-9 * L * L for L in Ls]
    lin = [1e-7 * L for L in Ls]
    assert loglog_slope(Ls, quad) == pytest.approx(2.0, abs=1e-6)
    assert loglog_slope(Ls, lin) == pytest.approx(1.0, abs=1e-6)


def test_sweep_writes_csv_with_footer(tmp_path):
    out = tmp_path / "bench.csv"
    records = sweep([8, 16], ["logmem"], out, modes=("parallel",), reps=3, embed=8)
    assert len(records) == 2
    lines = out.read_text().splitlines()
    env = dict(line[2:].split("=", 1) for line in lines[:8])
    assert list(env) == ["numpy", "blas", "blas_threads", "OPENBLAS_NUM_THREADS",
                         "OMP_NUM_THREADS", "cpu_count", "tile_rows", "query_tile"]
    assert env["numpy"] == np.__version__ and env["cpu_count"] == str(os.cpu_count())
    # sweeps of different tile rules stay apart
    assert env["tile_rows"] == str(TILE_ROWS) and env["query_tile"] == str(QUERY_TILE)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        assert env[var] == os.environ.get(var, "unset")
    assert env["blas"] and env["blas_threads"] == str(blas_threads())
    header = lines[8].split(",")
    assert header == ["variant", "mode", "L", "reps", "median_seconds", "iqr_seconds",
                      "peak_bytes", "score_macs", "summarizer_ops", "status"]
    with open(out) as f:
        rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
    assert len(rows) == 3
    for row, rec in zip(rows[1:], records):
        assert row == [str(v) for v in rec.row()]
        assert int(row[2]) == rec.L and int(row[3]) >= 3 and float(row[4]) > 0 and row[-1] == "ok"
    assert any(line.startswith("# slope variant=logmem mode=parallel") for line in lines)


def test_a_train_row_is_ok_and_peaks_above_the_parallel_row(tmp_path, monkeypatch):
    # the training step holds the tape and the grads on top of the forward
    monkeypatch.setattr(lmn.bench, "WARM_UP_SECONDS", 0.0)
    records = sweep([64], ["logmem", "baseline-attn"], tmp_path / "bench.csv",
                    modes=("parallel", "train"), reps=3, embed=8)
    assert [(r.variant, r.mode, r.status) for r in records] == [
        ("logmem", "parallel", "ok"), ("logmem", "train", "ok"),
        ("baseline-attn", "parallel", "ok"), ("baseline-attn", "train", "ok")]
    for parallel, train in (records[:2], records[2:]):
        assert train.peak_bytes > parallel.peak_bytes, (parallel, train)
        assert train.score_macs == parallel.score_macs and train.median_seconds > 0


@pytest.mark.parametrize("threads", ["1", "2"])
def test_blas_threads_reads_the_count_in_effect(threads):
    # the thread count OpenBLAS took from the environment at load, read back
    # from the loaded library in a fresh process
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", "from lmn.bench import blas_threads; print(blas_threads())"],
                         env=env, capture_output=True, text=True, check=True).stdout.strip()
    if blas_threads() == "unknown":
        assert out == "unknown"
    else:
        assert out == threads


def test_environment_lines_write_unknown_without_a_thread_getter(monkeypatch):
    monkeypatch.setattr("lmn.bench.BLAS_THREAD_SYMBOLS", ())
    assert "# blas_threads=unknown" in environment_lines()


def test_sequential_peak_scales_with_kv_cache_for_baseline():
    small = bench_model("baseline-attn", 128, embed=32)
    big = bench_model("baseline-attn", 2048, embed=32)
    peak_small = peak_bytes(small, 128, "sequential")
    peak_big = peak_bytes(big, 2048, "sequential")
    assert peak_big / peak_small >= 4.0


def test_baseline_parallel_peak_grows_linearly_in_query_tiles():
    # a forward that held the whole [L, L] score matrix would peak 16x higher
    # at 4x the length; query tiles hold [QUERY_TILE, L] scores, 4x
    peaks = [peak_bytes(bench_model("baseline-attn", L), L, "parallel") for L in (2048, 8192)]
    assert peaks[1] < 6 * peaks[0]


def test_expander_parallel_peak_is_at_most_logmems():
    # tiles bounded by memory rows: the expander's 79 rows a position at
    # L = 4096 get tiles of 256 positions, so its tiles hold no more rows
    # than logmem's 1024-position tiles of 2 banks x 13 rows
    L = 4096
    expander = peak_bytes(bench_model("expsum", L), L, "parallel")
    assert expander <= peak_bytes(bench_model("logmem", L), L, "parallel")


def test_lmn_sequential_peak_nearly_length_independent():
    small = bench_model("logmem", 128, embed=32, banks=1)
    big = bench_model("logmem", 2048, embed=32, banks=1)
    peak_small = peak_bytes(small, 128, "sequential")
    peak_big = peak_bytes(big, 2048, "sequential")
    assert peak_big / peak_small < 2.0


def test_record_row_round_trip():
    rec = BenchRecord("logmem", "parallel", 8, 3, 0.12, 0.01, 1024, 10, 5)
    assert rec.row() == ["logmem", "parallel", 8, 3, 0.12, 0.01, 1024, 10, 5, "ok"]
