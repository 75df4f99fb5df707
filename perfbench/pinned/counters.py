"""Operation counters used by the scaling benchmarks.

Counts are per batch item: attention score multiply-accumulates, summarizer
pair merges, and expander applications. A single module-level instance is
incremented from the forward paths; the bench harness resets and reads it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounter:
    score_macs: int = 0
    summarizer_ops: int = 0
    expander_ops: int = 0

    def reset(self):
        self.score_macs = 0
        self.summarizer_ops = 0
        self.expander_ops = 0

    def snapshot(self) -> dict:
        return {
            "score_macs": self.score_macs,
            "summarizer_ops": self.summarizer_ops,
            "expander_ops": self.expander_ops,
        }


COUNTER = OpCounter()
