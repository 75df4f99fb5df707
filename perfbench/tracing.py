"""Spans around the calls into each lmn module, recorded from the benchmark's side.

``install`` wraps the layer functions and methods listed below. A function
imported by ``from ... import`` lives under its name in every importing
module, so each module of the lmn package that holds the same object gets
the wrapper; methods are replaced on their class. Each tensor op listed in
BACKWARD_OPS is wrapped so that the backward closure it attaches to its
result records a span of its own when the tape replays it.

A span is (name, start, end, parent, operation id), kept in memory and
written out by the harness at the end of the run. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

from .workloads import TREE_VARIANTS, VARIANTS

ALL_WORKLOADS = ("train", "prefill", "generate")
TRAIN_PREFILL = ("train", "prefill")

# layer name -> (module, attribute, or (class, method)) wrapped under that name
FUNCTIONS = {
    "memory.build_pyramid": [("lmn.memory", "build_pyramid")],
    "memory.gather_memory": [("lmn.memory", "gather_memory")],
    "memory.push_token": [("lmn.memory", "push_token")],
    "memory.snapshot": [("lmn.memory", "snapshot")],
    "summarizers.merge_level": [("lmn.summarizers", ("LinearSummarizer", "merge_level")),
                                ("lmn.summarizers", ("DsConvSummarizer", "merge_level"))],
    "summarizers.merge_pair": [("lmn.summarizers", ("LinearSummarizer", "merge_pair")),
                               ("lmn.summarizers", ("DsConvSummarizer", "merge_pair")),
                               ("lmn.summarizers", ("ExpanderSummarizer", "merge_blocks"))],
    "summarizers.parallel_expanded_memory": [("lmn.summarizers", "parallel_expanded_memory")],
    "summarizers.push_token_expanded": [("lmn.summarizers", "push_token_expanded")],
    "summarizers.snapshot_expanded": [("lmn.summarizers", "snapshot_expanded")],
    "attention.qkv_project": [("lmn.attention", "qkv_project")],
    "attention.single_vector_scores": [("lmn.attention", "single_vector_scores")],
    "attention.mask_softmax": [("lmn.attention", "mask_softmax")],
    "attention.weighted_sum": [("lmn.attention", "weighted_sum")],
    "attention.multi_bank_combine": [("lmn.attention", "multi_bank_combine")],
    "tensor.backward": [("lmn.tensor", ("Tensor", "backward"))],
    "model.embed": [("lmn.tensor", "embedding")],
    "model.ffn": [("lmn.model", ("_FeedForward", "__call__"))],
    "model.unembed": [("lmn.model", ("_ModelBase", "_unembed"))],
    "model.baseline_attention": [("lmn.model", ("BaselineBlock", "attention")),
                                 ("lmn.model", ("BaselineModel", "step"))],
    "model.loss": [("lmn.model", "loss")],
    "training.adamw_step": [("lmn.training", ("AdamW", "step"))],
    "training.clip_grad_norm": [("lmn.training", "clip_grad_norm")],
    "data.sample_batch": [("lmn.data", "sample_batch")],
}

# tensor op -> variants whose training step records its backward
BACKWARD_OPS = {
    "index_select": TREE_VARIANTS,
    "narrow": VARIANTS,
    "affine_masked": TREE_VARIANTS,
    "einsum_pair": TREE_VARIANTS,
    "concat": TREE_VARIANTS,
    "masked_fill": VARIANTS,
    "matmul": VARIANTS,
    "softmax_last": VARIANTS,
    "conv1d_k2s2": ("expsum",),
    "conv_transpose1d": ("expsum",),
}

COUNTERS = {"score_macs": VARIANTS, "summarizer_ops": TREE_VARIANTS, "expander_ops": ("expsum",)}


def _bytes_of(out) -> int:
    """Bytes of a MemoryTensor's data, or of the [.., 3E] projection behind (q, k, v)."""
    if isinstance(out, tuple):
        return sum(t.data.nbytes for t in out)
    return out.data.data.nbytes


# metric suffix -> (variants it is reported for, workloads on which it must record calls)
LAYERS = {
    "memory.build_pyramid.ms": (("logmem",), TRAIN_PREFILL),
    "memory.gather_memory.ms": (("logmem",), TRAIN_PREFILL),
    "memory.gather_memory.mb": (("logmem",), TRAIN_PREFILL),
    "memory.push_token.ms": (("logmem",), ("generate",)),
    "memory.snapshot.ms": (("logmem",), ("generate",)),
    "summarizers.merge_level.ms": (("logmem",), TRAIN_PREFILL),
    "summarizers.merge_pair.ms": (TREE_VARIANTS, ("generate",)),
    "summarizers.parallel_expanded_memory.ms": (("expsum",), TRAIN_PREFILL),
    "summarizers.parallel_expanded_memory.mb": (("expsum",), TRAIN_PREFILL),
    "summarizers.push_token_expanded.ms": (("expsum",), ("generate",)),
    "summarizers.snapshot_expanded.ms": (("expsum",), ("generate",)),
    "attention.qkv_project.ms": (TREE_VARIANTS, ALL_WORKLOADS),
    "attention.qkv_project.mb": (TREE_VARIANTS, ALL_WORKLOADS),
    "attention.single_vector_scores.ms": (TREE_VARIANTS, ALL_WORKLOADS),
    "attention.mask_softmax.ms": (TREE_VARIANTS, ALL_WORKLOADS),
    "attention.weighted_sum.ms": (TREE_VARIANTS, ALL_WORKLOADS),
    "attention.multi_bank_combine.ms": (TREE_VARIANTS, ALL_WORKLOADS),
    "tensor.backward.ms": (VARIANTS, ("train",)),
    **{f"tensor.bwd.{op}.ms": (variants, ("train",)) for op, variants in BACKWARD_OPS.items()},
    "tensor.tensors.count": (VARIANTS, ()),
    "model.embed.ms": (VARIANTS, ALL_WORKLOADS),
    "model.ffn.ms": (VARIANTS, ALL_WORKLOADS),
    "model.unembed.ms": (VARIANTS, ALL_WORKLOADS),
    "model.baseline_attention.ms": (("baseline-attn",), ALL_WORKLOADS),
    "model.loss.ms": (VARIANTS, ("train",)),
    "training.adamw_step.ms": (VARIANTS, ("train",)),
    "training.clip_grad_norm.ms": (VARIANTS, ("train",)),
    "data.sample_batch.ms": (VARIANTS, ("train",)),
    **{f"counters.{name}": (variants, ()) for name, variants in COUNTERS.items()},
    "trace.overhead_pct": (VARIANTS, ()),
    "trace.coverage_pct": (VARIANTS, ()),
}
MB_LAYERS = {"memory.gather_memory", "summarizers.parallel_expanded_memory", "attention.qkv_project"}


def unit_of(suffix: str) -> str:
    if suffix.endswith(".ms"):
        return "ms"
    if suffix.endswith(".mb"):
        return "MB"
    if suffix.endswith("_pct"):
        return "%"
    return "count"


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in report order."""
    return [(f"{v}.{suffix}", unit_of(suffix))
            for v in VARIANTS for suffix, (variants, _) in LAYERS.items() if v in variants]


class Tracer:
    """In-memory span recorder; `op` is the id of the operation being run."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, op id]
        self.stack = []
        self.op = -1
        self.out_bytes = defaultdict(int)  # (op id, layer) -> bytes
        self.tensors = 0
        self._undo = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        measure = name in MB_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter()
                stack.pop()
            if measure:
                self.out_bytes[(self.op, name)] += _bytes_of(out)
            return out

        return traced

    def wrap_backward_op(self, name, op):
        @functools.wraps(op)
        def traced_op(*args, **kwargs):
            out = op(*args, **kwargs)
            if out._backward is not None:
                out._backward = self.wrap(name, out._backward)
            return out

        return traced_op

    def _replace_everywhere(self, module_name, attr, wrapper_for) -> bool:
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            return False
        wrapper = wrapper_for(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "lmn" and not mod_name.startswith("lmn."):
                continue
            for bound, value in list(vars(mod).items()):
                if value is original:  # the defining name, and any `import ... as` alias
                    setattr(mod, bound, wrapper)
                    self._undo.append((mod, bound, original))
        return True

    def install(self) -> list[str]:
        """Wrap every target; returns the targets not found in lmn."""
        missing = []
        for name, targets in FUNCTIONS.items():
            for module_name, attr in targets:
                if isinstance(attr, tuple):
                    cls = getattr(importlib.import_module(module_name), attr[0], None)
                    method = cls.__dict__.get(attr[1]) if cls is not None else None
                    if method is None:
                        missing.append(f"{module_name}.{'.'.join(attr)}")
                        continue
                    setattr(cls, attr[1], self.wrap(name, method))
                    self._undo.append((cls, attr[1], method))
                elif not self._replace_everywhere(module_name, attr, functools.partial(self.wrap, name)):
                    missing.append(f"{module_name}.{attr}")
        for op in BACKWARD_OPS:
            if not self._replace_everywhere("lmn.tensor", op,
                                            functools.partial(self.wrap_backward_op, f"tensor.bwd.{op}")):
                missing.append(f"lmn.tensor.{op}")
        tensor_cls = importlib.import_module("lmn.tensor").Tensor
        init = tensor_cls.__init__

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            self.tensors += 1
            init(obj, *args, **kwargs)

        tensor_cls.__init__ = counting_init
        self._undo.append((tensor_cls, "__init__", init))
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self) -> dict:
        """(op id, layer) -> summed self time in seconds, for every layer called;
        and op id -> time covered by top-level spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        own, top = defaultdict(float), defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            own[(op, name)] += end - start - child_time[i]
            if parent < 0:
                top[op] += end - start
        return own, top

    def to_json(self, ops: list) -> dict:
        """Spans as a names table plus rows [name id, start s, end s, parent, op id]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "names": names,
            "ops": ops,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [[index[n], round(s - t0, 7), round(e - t0, 7), p, o] for n, s, e, p, o in self.spans],
        }
