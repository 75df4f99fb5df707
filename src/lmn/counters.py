"""Operation counters used by the scaling benchmarks.

Counts are per batch item: attention score multiply-accumulates, summarizer
pair merges, and expander applications. A single module-level instance is
incremented from the forward paths; the bench harness resets and reads it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields


@dataclass
class OpCounter:
    score_macs: int = 0
    summarizer_ops: int = 0
    expander_ops: int = 0

    def reset(self):
        for f in fields(self):
            setattr(self, f.name, f.default)

    def snapshot(self) -> dict:
        """Every count by field name, in field order."""
        return asdict(self)


COUNTER = OpCounter()
