"""Logarithmic-tree memory sequence models.

Hierarchical memory built in parallel (``build_pyramid``: a pyramid over
the whole sequence held as one row table, read in tiles of positions: the
training path) or stepped through a binary-counter carry chain (the
recurrent inference path; ``sequential_memory`` is its reference), read
through single-vector attention. A block's banks share one tree: one row
table, one slot state and one read buffer, with the banks on one axis of
each. Includes multi-bank and expander variants, a causal-attention
baseline, char-level training, and a scaling benchmark harness.
"""

from .tensor import Tensor, grad_check, make_rng, no_grad
from .memory import (
    CapacityError,
    MemoryTensor,
    RowTable,
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
    read_memory,
)
from .attention import attend, multi_bank_combine
from .model import ModelConfig, build_model, load_checkpoint, param_count, save_checkpoint
from .data import Dataset, Vocab, build_vocab, sample_batch
from .training import TrainConfig, evaluate, train
from .bench import BenchRecord, sweep, time_forward

__all__ = [
    "Tensor", "grad_check", "make_rng", "no_grad",
    "CapacityError", "MemoryTensor", "RowTable", "SlotState",
    "build_pyramid", "gather_memory", "parallel_memory", "push_token",
    "sequential_memory", "slot_widths", "snapshot",
    "DsConvSummarizer", "ExpanderSummarizer", "LinearSummarizer", "read_memory",
    "attend", "multi_bank_combine",
    "ModelConfig", "build_model", "load_checkpoint", "param_count", "save_checkpoint",
    "Dataset", "Vocab", "build_vocab", "sample_batch",
    "TrainConfig", "evaluate", "train",
    "BenchRecord", "sweep", "time_forward",
]
