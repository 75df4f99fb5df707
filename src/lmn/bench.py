"""Scaling harness: wall time, peak allocation, and counted operations.

Forward timing uses a monotonic clock and the median of at least R >= 3
reps, timed until they add up to ``MIN_TIMED_SECONDS``, run with glibc
malloc at its defaults; each row records the reps it timed and their
interquartile range. The first run is the counted run and the memory
pass: it runs under ``tracemalloc``, which sees every numpy buffer, and
"peak bytes" is its traced peak above the traced bytes at its start
(recurrent state plus activations; pre-existing weights excluded). A
``train`` row, which no default sweep runs, times one training step instead:
the parallel forward, the loss and the backward from zeroed grads, so its
peak holds the tape and the parameter grads as well. Untraced
warm-up runs follow until ``WARM_UP_SECONDS`` have passed, at least one, so
a machine that runs slowly for a while after an idle spell does not time
its first reps slow. The timed reps run untraced. Sequential rows measure
recurrent stepping (slot state or KV cache as the only carried state);
parallel rows measure the one-shot forward. A ``MemoryError``, whether
from building a point's model, drawing its tokens or running it, becomes a
failure row, not a crash, and so does a model or a draw too large for
numpy to index; a forward that the operating system kills ends
the sweep, leaving the rows already written in the CSV. A CSV path that
cannot be written raises ``model.OutputError`` before the first timing.
"""

from __future__ import annotations

import csv
import ctypes
import io
import os
import re
import time
import tracemalloc
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .counters import COUNTER
from .model import MODES, QUERY_TILE, TILE_ROWS, ModelConfig, build_model, loss, write_file
from .tensor import check_indexable, make_rng, no_grad

WARM_UP_SECONDS = 1.0
MIN_TIMED_SECONDS = 0.25
# the default sweep runs MODES; a train step's tape would outgrow memory at its longest lengths
BENCH_MODES = MODES + ("train",)


@dataclass
class BenchRecord:
    variant: str
    mode: str
    L: int
    reps: int
    median_seconds: float
    iqr_seconds: float
    peak_bytes: int
    score_macs: int
    summarizer_ops: int
    status: str = "ok"

    def row(self):
        return [getattr(self, f.name) for f in fields(self)]


CSV_COLUMNS = [f.name for f in fields(BenchRecord)]

# the ModelConfig field each bench key sets, so that an error names the key
_KEY_OF_FIELD = {"variant": "variants", "max_seq_len": "lengths", "embed": "embed",
               "banks": "banks", "seed": "seed"}


@dataclass
class BenchConfig:
    """The ``bench.*`` config section: every input of the scaling sweep."""
    lengths: tuple[int, ...] = (256, 1024, 4096, 16384)
    variants: tuple[str, ...] = ("logmem", "baseline-attn")
    reps: int = 3
    embed: int = 32
    banks: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.reps < 3:
            raise ValueError(f"bench.reps must be >= 3, got {self.reps}")
        # the model of every sweep point checks the values
        for variant in self.variants:
            for L in self.lengths:
                try:
                    _model_config(variant, L, self.embed, self.banks, self.seed)
                except ValueError as exc:
                    raise ValueError(re.sub(rf"\b({'|'.join(_KEY_OF_FIELD)})\b",
                                            lambda m: "bench." + _KEY_OF_FIELD[m[1]],
                                            str(exc), count=1)) from None


def _model_config(variant: str, L: int, embed: int, banks: int, seed: int) -> ModelConfig:
    return ModelConfig(variant=variant, vocab_size=65, embed=embed, max_seq_len=L,
                       banks=banks, n_blocks=1, n_heads=1, seed=seed)


def bench_model(variant: str, L: int, embed: int = 32, banks: int = 2, seed: int = 0):
    """Fresh random-weight model sized for sequence length L (one block)."""
    return build_model(_model_config(variant, L, embed, banks, seed))


def _traced_peak(run) -> int:
    """Run once under tracemalloc; return the peak traced bytes above the
    traced bytes at the start. Stops tracing only if it started it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if started:
            tracemalloc.stop()


def _forward_pass(model, L: int, mode: str, seed: int):
    """One forward pass over L seeded random tokens, as a call with no
    arguments: the parallel forward, the tokens stepped through the
    recurrent state with no logits kept, or (``train``) the parallel
    forward, its loss against the tokens shifted by one and the backward."""
    check_indexable(L, 8, "the token draw")  # int64 ids
    tokens = make_rng(seed).integers(0, model.config.vocab_size, size=(1, L))
    if mode == "train":
        targets = np.roll(tokens, -1, axis=1)

        def step():
            model.zero_grad()
            loss(model.forward(tokens), targets).backward()

        return step

    def run():
        with no_grad():
            if mode == "sequential":
                state = model.start_state()
                for tok in tokens[0]:
                    model.step(state, int(tok))
            else:
                model.forward(tokens, mode=mode)

    return run


def peak_bytes(model, L: int, mode: str, seed: int = 0) -> int:
    """The peak that time_forward records, from one traced pass and no timed reps."""
    return _traced_peak(_forward_pass(model, L, mode, seed))


def time_forward(model, L: int, mode: str, reps: int = 3, seed: int = 0) -> BenchRecord:
    """Median wall time of one forward pass over at least ``reps`` reps
    after the warm-up, timed until they add up to ``MIN_TIMED_SECONDS``.

    mode="parallel" is the one-shot construction; mode="sequential" runs the
    recurrent stepping path token by token, the inference configuration;
    mode="train" is one training step without the optimizer.
    """
    if reps < 3:
        raise ValueError("reps must be >= 3")
    try:
        run = _forward_pass(model, L, mode, seed)
        COUNTER.reset()
        # counted run (counts repeat per run) and memory pass at once
        peak = _traced_peak(run)
        counts = COUNTER.snapshot()
        warm_until = time.monotonic() + WARM_UP_SECONDS
        run()
        while time.monotonic() < warm_until:
            run()
        times, total = [], 0.0
        while len(times) < reps or total < MIN_TIMED_SECONDS:
            t0 = time.monotonic()
            run()
            times.append(time.monotonic() - t0)
            total += times[-1]
        q1, q3 = np.percentile(times, [25, 75])
        return BenchRecord(model.config.variant, mode, L, len(times),
                           float(np.median(times)), float(q3 - q1), peak,
                           counts["score_macs"], counts["summarizer_ops"])
    except MemoryError:
        return _failed_record(model.config.variant, mode, L)


def _failed_record(variant: str, mode: str, L: int) -> BenchRecord:
    """A point that could not run: no rep timed."""
    return BenchRecord(variant, mode, L, 0, float("nan"), float("nan"), 0, 0, 0, status="failed")


# thread-count getters that the OpenBLAS builds numpy ships may export
BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads")


def blas_threads() -> int | str:
    """Thread count in effect in the OpenBLAS that numpy loaded, or
    "unknown" when no library bundled with numpy exports one."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs_dir.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return "unknown"


def environment_lines() -> list[str]:
    """CSV comment lines naming what the timings depend on: the numpy
    version, its BLAS build and the thread count it runs with, the BLAS
    thread settings, the CPU count and the parallel forwards' tile bounds."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {"numpy": np.__version__, "blas": blas.get("name", "unknown"),
           "blas_threads": blas_threads(),
           **{var: os.environ.get(var, "unset") for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
           "cpu_count": os.cpu_count(), "tile_rows": TILE_ROWS, "query_tile": QUERY_TILE}
    return [f"# {key}={value}" for key, value in env.items()]


def loglog_slope(lengths, seconds) -> float:
    """Least-squares slope of log(time) against log(L)."""
    xs = np.log(np.asarray(lengths, dtype=np.float64))
    ys = np.log(np.asarray(seconds, dtype=np.float64))
    return float(np.polyfit(xs, ys, 1)[0])


def sweep(lengths, variants, out_path, modes=("parallel", "sequential"),
          reps: int = 3, embed: int = 32, banks: int = 2, seed: int = 0,
          log=None) -> list[BenchRecord]:
    """Cross product of lengths x variants x modes, written to a CSV with
    the environment in a comment header and slope fits in a comment footer.
    The whole text is rewritten through ``model.write_file`` after the
    header, after each row and after the footer."""
    text = io.StringIO()

    def save():
        write_file(out_path, text.getvalue().encode("utf-8"))

    text.writelines(line + "\n" for line in environment_lines())
    w = csv.writer(text)
    w.writerow(CSV_COLUMNS)
    save()
    records = []
    for variant in variants:
        for L in lengths:
            try:
                model = bench_model(variant, L, embed=embed, banks=banks, seed=seed)
            except MemoryError:  # every mode of this point fails
                model = None
            for mode in modes:
                rec = (_failed_record(variant, mode, L) if model is None
                       else time_forward(model, L, mode, reps=reps, seed=seed))
                records.append(rec)
                w.writerow(rec.row())
                save()
                if log:
                    log(f"{variant} {mode} L={L}: {rec.median_seconds:.4f}s "
                        f"peak={rec.peak_bytes}B status={rec.status}")
            del model
    for variant in variants:
        for mode in modes:
            sub = [r for r in records
                   if r.variant == variant and r.mode == mode and r.status == "ok"]
            if len(sub) >= 2:
                s = loglog_slope([r.L for r in sub], [r.median_seconds for r in sub])
                text.write(f"# slope variant={variant} mode={mode} slope={s:.3f}\n")
    save()
    return records


def lmn_score_mac_closed_form(L: int, embed: int, banks: int, n_blocks: int = 1) -> int:
    """E * nb * sum over positions of (popcount(t) + 1), per batch item."""
    t = np.arange(L, dtype=np.uint64)
    popcounts = np.array([bin(int(x)).count("1") for x in t])
    return int(embed * banks * n_blocks * int((popcounts + 1).sum()))


def baseline_score_mac_closed_form(L: int, embed: int, n_blocks: int = 1) -> int:
    """E * L * (L+1) / 2 causal terms, per batch item."""
    return int(embed * n_blocks * L * (L + 1) // 2)
