"""The three workloads: their inputs, one operation per model, and output checks.

Each workload builds its corpus, models and inputs from the seed alone and
drives lmn only through public entry points: ``build_model``,
``model.forward``, ``model.step``, ``lmn.model.generate``, ``lmn.model.loss``
and the training step sequence of ``lmn.training``. Library functions are
reached through their modules at call time, so the tracer's wrappers see
every call the benchmark makes.

A workload drives either the program's lmn or the pinned copy in
``perfbench/pinned`` that the harness runs beside it as a speed reference;
``library`` gives the modules of either.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from . import reference

VARIANTS = ("logmem", "expsum", "baseline-attn")
TREE_VARIANTS = ("logmem", "expsum")
EMBED = 32
BANKS = 2
EXPANSION = 1
TOL = 1e-4  # parallel vs sequential, reference and gradient tolerance
PROGRAM = "lmn"
PINNED = "perfbench.pinned"


def library(package: str = PROGRAM) -> SimpleNamespace:
    """The modules a workload drives, from lmn or from its pinned copy."""
    return SimpleNamespace(**{name: importlib.import_module(f"{package}.{name}")
                              for name in ("corpus", "data", "model", "training", "tensor")})


@dataclass(frozen=True)
class Shapes:
    corpus_chars: int
    train_batch: int
    train_len: int
    check_window: int    # held-out window stepped after training
    prefill_len: int
    expsum_prefix: int   # expsum parallel-vs-stepped check length in prefill
    gen_positions: int   # positions stepped by one generation
    prompt_len: int
    pinned_gen_positions: int  # the pinned copy's generation, a shorter speed probe

    def pinned(self) -> "Shapes":
        """Shapes of the pinned copy's operations: the same, but a shorter generation."""
        return dataclasses.replace(self, gen_positions=self.pinned_gen_positions)


FULL = Shapes(corpus_chars=300_000, train_batch=16, train_len=256, check_window=256,
              prefill_len=3000, expsum_prefix=512, gen_positions=1024, prompt_len=64,
              pinned_gen_positions=512)
SMOKE = Shapes(corpus_chars=20_000, train_batch=2, train_len=32, check_window=32,
               prefill_len=100, expsum_prefix=48, gen_positions=96, prompt_len=8,
               pinned_gen_positions=48)


def max_gap(a, b) -> float:
    return float(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)).max())


class Workload:
    """Base: seeded inputs; subclasses add models, one operation, and checks."""

    name = ""

    def __init__(self, seed: int, shapes: Shapes = FULL, package: str = PROGRAM):
        self.shapes = shapes
        self.lib = library(package)
        self.vocab = self.lib.data.Vocab(sorted(self.lib.corpus.VOCAB_65))
        draw = np.random.default_rng(seed).integers(0, 2**31 - 1, size=4)
        self.corpus_seed, self.model_seed, self.data_seed, self.check_seed = (int(v) for v in draw)
        self.models = {}
        self.measured = {}  # check name -> measured gap or error, for the run's detail file

    def setup(self) -> None:
        """Corpus and models; timed as part of set-up."""
        text = self.lib.corpus.generate_corpus(self.shapes.corpus_chars, seed=self.corpus_seed)
        self.dataset = self.lib.data.Dataset(ids=self.vocab.encode(text), vocab=self.vocab)
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def model_config(self, variant: str, max_seq_len: int, n_heads: int):
        return self.lib.model.ModelConfig(variant=variant, vocab_size=len(self.vocab), embed=EMBED,
                                          max_seq_len=max_seq_len, banks=BANKS, expansion=EXPANSION,
                                          n_blocks=1, n_heads=n_heads, seed=self.model_seed)

    def window(self, split: str, length: int) -> np.ndarray:
        ids = self.dataset.split_ids(split)
        start = int(self.lib.tensor.make_rng(self.check_seed).integers(0, len(ids) - length))
        return ids[start:start + length]

    def parallel_logits(self, model, tokens) -> np.ndarray:
        with self.lib.tensor.no_grad():
            return model.forward(np.asarray(tokens)[None, :]).data[0].astype(np.float64)

    def stepped_logits(self, model, tokens) -> np.ndarray:
        state = model.start_state()
        with self.lib.tensor.no_grad():
            return np.stack([model.step(state, int(t)).data for t in tokens]).astype(np.float64)

    def warm_up(self) -> None:
        for variant in VARIANTS:
            self.run_op(variant)

    def run_op(self, variant: str) -> tuple[int, list | None]:
        """One timed operation on one model.

        Returns the tokens it handled and, where the operation yields tokens
        one at a time, the latency of each; otherwise None.
        """
        raise NotImplementedError

    def memory_op(self, variant: str) -> None:
        """The operation whose tracemalloc peak is reported."""
        self.run_op(variant)

    def units_per_op(self) -> int:
        """Per-layer values are divided by this: 1 per operation, or positions."""
        return 1

    def check(self, stats: dict) -> list[str]:
        """Names of failed checks (empty when every output is correct)."""
        raise NotImplementedError


class TrainWorkload(Workload):
    """AdamW training steps at B=16, L=256 on the synthetic corpus."""

    name = "train"

    def build(self):
        s = self.shapes
        lib = self.lib
        self.config = lib.training.TrainConfig(batch_size=s.train_batch, block_size=s.train_len)
        self.rngs, self.opts, self.losses, self.initial, self.first_batch = {}, {}, {}, {}, {}
        for v in VARIANTS:
            # four heads for the baseline, as in the Table-1 comparison
            m = lib.model.build_model(self.model_config(v, s.train_len, 4))
            self.models[v] = m
            self.rngs[v] = lib.tensor.make_rng(self.data_seed)  # every model sees the same batches
            self.opts[v] = lib.training.AdamW(m.params, self.config)
            self.losses[v] = []
            self.initial[v] = {k: p.data.copy() for k, p in m.params.items()}

    def run_op(self, variant):
        c, m, lib = self.config, self.models[variant], self.lib
        x, y = lib.data.sample_batch(self.dataset, "train", c.batch_size, c.block_size, self.rngs[variant])
        self.first_batch.setdefault(variant, (x, y))
        m.zero_grad()
        loss = lib.model.loss(m.forward(x), y)
        self.losses[variant].append(loss.item())
        loss.backward()
        lib.training.clip_grad_norm(m.params, c.grad_clip)
        self.opts[variant].step(c.learning_rate)
        return c.batch_size * c.block_size, None

    def directional_error(self, variant) -> float:
        """Float64 central difference of the first step's loss along a random
        unit direction, against the tape gradient's projection on it."""
        lib = self.lib
        m = lib.model.build_model(self.models[variant].config, dtype=np.float64)
        for k, p in m.params.items():
            p.data = self.initial[variant][k].astype(np.float64)
        x, y = self.first_batch[variant]
        rng = lib.tensor.make_rng(self.check_seed)
        direction = {k: rng.standard_normal(p.data.shape) for k, p in m.params.items()}
        norm = math.sqrt(sum(float((d ** 2).sum()) for d in direction.values()))
        base = {k: p.data for k, p in m.params.items()}
        m.zero_grad()
        lib.model.loss(m.forward(x), y).backward()
        analytic = sum(float((p.grad * direction[k]).sum()) for k, p in m.params.items()) / norm
        eps = 1e-5
        side = []
        for sign in (1.0, -1.0):
            for k, p in m.params.items():
                p.data = base[k] + sign * eps * direction[k] / norm
            with lib.tensor.no_grad():
                side.append(lib.model.loss(m.forward(x), y).item())
        numeric = (side[0] - side[1]) / (2 * eps)
        return abs(numeric - analytic) / max(abs(analytic), 1e-12)

    def check(self, stats):
        failures = []
        held_out = self.window("val", self.shapes.check_window)
        for v in VARIANTS:
            losses = self.losses[v]
            if not all(math.isfinite(x) for x in losses):
                failures.append(f"{v}: non-finite training loss")
            tail = losses[-5:]
            mean_tail = self.measured[f"{v}.last_loss"] = sum(tail) / len(tail)
            if not mean_tail < math.log(len(self.vocab)):
                failures.append(f"{v}: mean loss of the last steps {mean_tail:.4f} not below ln(65)")
            err = self.measured[f"{v}.directional_rel_err"] = self.directional_error(v)
            if not err <= TOL:
                failures.append(f"{v}: float64 directional derivative off by {err:.3g} (relative)")
            gap = max_gap(self.parallel_logits(self.models[v], held_out),
                          self.stepped_logits(self.models[v], held_out))
            self.measured[f"{v}.parallel_vs_stepped"] = gap
            if not gap <= TOL:
                failures.append(f"{v}: trained parallel vs stepped logits differ by {gap:.3g}")
        return failures


class PrefillWorkload(Workload):
    """One parallel forward under no_grad at B=1, L=3000 (not a power of two)."""

    name = "prefill"

    def build(self):
        L = self.shapes.prefill_len
        self.tokens = self.window("train", L)
        self.logits = {}
        for v in VARIANTS:
            # one head for the baseline, as the scaling harness builds it
            self.models[v] = self.lib.model.build_model(self.model_config(v, L, 1))

    def run_op(self, variant):
        with self.lib.tensor.no_grad():
            self.logits[variant] = self.models[variant].forward(self.tokens[None, :]).data[0]
        return len(self.tokens), None

    def check_positions(self) -> list[int]:
        L = len(self.tokens)
        edges = {p for k in range(L.bit_length()) for p in (1 << k, (1 << k) + 1) if p < L}
        rng = self.lib.tensor.make_rng(self.check_seed)
        return sorted(edges | {0, L - 1} | {int(p) for p in rng.integers(0, L, size=8)})

    def check(self, stats):
        failures = []
        for v in VARIANTS:
            if not np.isfinite(self.logits[v]).all():
                failures.append(f"{v}: non-finite logits")
        positions = self.check_positions()
        refs = {
            "logmem": reference.logmem_logits(self.models["logmem"].params, self.tokens, positions),
            "baseline-attn": reference.baseline_logits(self.models["baseline-attn"].params,
                                                       self.tokens, positions, n_heads=1),
        }
        for v, ref in refs.items():
            gap = self.measured[f"{v}.vs_reference"] = max_gap(self.logits[v][positions], ref)
            if not gap <= TOL:
                failures.append(f"{v}: logits differ from the float64 reference by {gap:.3g}")
        prefix = self.tokens[:self.shapes.expsum_prefix]
        m = self.models["expsum"]
        gap = self.measured["expsum.parallel_vs_stepped"] = max_gap(self.parallel_logits(m, prefix),
                                                                     self.stepped_logits(m, prefix))
        if not gap <= TOL:
            failures.append(f"expsum: parallel vs stepped logits differ by {gap:.3g}")
        return failures


class GenerateWorkload(Workload):
    """Greedy generation of one stream: a corpus prompt, then new tokens to 1024 positions."""

    name = "generate"

    def build(self):
        s = self.shapes
        self.prompt = self.window("val", s.prompt_len)
        # generate() steps the prompt and every new token but the last
        self.n_new = s.gen_positions - s.prompt_len + 1
        self.outputs = {v: [] for v in VARIANTS}
        for v in VARIANTS:
            self.models[v] = self.lib.model.build_model(self.model_config(v, s.gen_positions, 1))

    def warm_up(self):
        for v in VARIANTS:
            self.lib.model.generate(self.models[v], self.prompt, self.shapes.prompt_len, argmax=True)

    def run_op(self, variant):
        m = self.models[variant]
        step = m.step
        logits, latencies = [], []

        def timed_step(state, token):
            t0 = perf_counter()
            z = step(state, token)
            latencies.append(perf_counter() - t0)
            logits.append(z.data)  # the array only: no Tensor is kept alive across steps
            return z

        m.step = timed_step
        try:
            tokens = self.lib.model.generate(m, self.prompt, self.n_new, argmax=True)
        finally:
            del m.step
        self.outputs[variant].append((tokens, logits))
        return len(logits), latencies

    def memory_op(self, variant):
        self.lib.model.generate(self.models[variant], self.prompt, self.n_new, argmax=True)

    def units_per_op(self):
        return self.shapes.gen_positions

    def check(self, stats):
        failures = []
        T = self.shapes.gen_positions
        for v in VARIANTS:
            m = self.models[v]
            runs = self.outputs[v]
            first = runs[0][0]
            if any(not np.array_equal(tokens, first) for tokens, _ in runs):
                failures.append(f"{v}: greedy generation differs between rounds")
            parallel = self.parallel_logits(m, first[:T])
            gap = self.measured[f"{v}.teacher_forced_vs_stepped"] = max(
                max_gap(parallel, np.stack(logits)) for _, logits in runs)
            if not gap <= TOL:
                failures.append(f"{v}: teacher-forced parallel vs stepped logits differ by {gap:.3g}")
            for i in range(self.shapes.prompt_len - 1, T):
                z, chosen = parallel[i], int(first[i + 1])
                if chosen != int(np.argmax(z)) and z.max() - z[chosen] > TOL:
                    failures.append(f"{v}: greedy token at position {i + 1} is not the argmax")
                    break
            cfg = m.config
            expected = reference.stepped_counts(v, T, cfg.embed, cfg.banks, cfg.expansion)
            for counts in stats[v].counts:
                got = {k: counts.get(k) for k in expected}
                if got != expected:
                    failures.append(f"{v}: operation counts {got} != {expected}")
                    break
        return failures


WORKLOADS = {w.name: w for w in (TrainWorkload, PrefillWorkload, GenerateWorkload)}
