"""Logarithmic-tree memory sequence models.

Hierarchical memory built either sequentially (binary-counter carry chain,
the recurrent inference path) or in parallel (pyramid plus gather, the
training path), read through single-vector attention. Includes multi-bank
and expander variants, a causal-attention baseline, char-level training,
and a scaling benchmark harness.
"""

from .tensor import Tensor, grad_check, make_rng, no_grad
from .memory import (
    CapacityError,
    MemoryTensor,
    Pyramid,
    SlotState,
    build_pyramid,
    gather_memory,
    parallel_memory,
    push_token,
    sequential_memory,
    slot_widths,
    snapshot,
)
from .summarizers import (
    DsConvSummarizer,
    ExpanderSummarizer,
    LinearSummarizer,
    build_memory,
)
from .attention import AttentionOutput, QkvProjection, attend, multi_bank_combine
from .model import ModelConfig, build_model, load_checkpoint, param_count, save_checkpoint
from .data import Dataset, Vocab, build_vocab, sample_batch
from .training import TrainConfig, evaluate, train
from .bench import BenchRecord, compression_factor, sweep, time_forward

__all__ = [
    "Tensor", "grad_check", "make_rng", "no_grad",
    "CapacityError", "MemoryTensor", "Pyramid", "SlotState",
    "build_pyramid", "gather_memory", "parallel_memory", "push_token",
    "sequential_memory", "slot_widths", "snapshot",
    "DsConvSummarizer", "ExpanderSummarizer", "LinearSummarizer",
    "build_memory",
    "AttentionOutput", "QkvProjection", "attend", "multi_bank_combine",
    "ModelConfig", "build_model", "load_checkpoint", "param_count", "save_checkpoint",
    "Dataset", "Vocab", "build_vocab", "sample_batch",
    "TrainConfig", "evaluate", "train",
    "BenchRecord", "compression_factor", "sweep", "time_forward",
]
