"""The benchmark's own tests: smoke runs of every workload, and checks that catch broken models.

Smoke runs use tiny shapes and a fraction of a second per run, so the whole
file takes seconds. Each negative test breaks lmn in one way through
monkeypatch and asserts that the run reports it as incorrect.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import lmn.model
import lmn.summarizers
import lmn.tensor
from perfbench import harness, tracing, workloads

SECONDS = 0.05
TRAIN_SECONDS = 1.0  # enough smoke-size steps, beside the pinned ones, for the loss to fall below ln(65)


def smoke(name, trace=False, seed=3):
    seconds = TRAIN_SECONDS if name == "train" else SECONDS
    return harness.run(name, seed, seconds, trace, workloads.SMOKE, write_files=False)


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(name):
    out = smoke(name)
    assert out["correct"], out["detail"]["failures"]
    assert out["failed"] == 0 and out["attempted"] >= 3
    expected = {(m["name"], m["unit"]) for m in benchmark_json()["end_to_end"]}
    got = {(k, m["unit"]) for k, m in out["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_run_covers_every_expected_layer(name):
    out = smoke(name, trace=True)
    assert out["correct"], out["detail"]["failures"]
    assert out["detail"]["trace_targets_not_found"] == []
    expected = {(m["name"], m["unit"]) for m in benchmark_json()["per_layer"]}
    assert {(k, m["unit"]) for k, m in out["metrics"].items()} == expected
    for metric, (variants, on) in tracing.LAYERS.items():
        if name in on and metric.endswith((".ms", ".mb")):
            for v in variants:
                assert out["metrics"][f"{v}.{metric}"]["value"] > 0, (v, metric)


def test_command_line_prints_result_last(tmp_path):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "prefill", "--seed", "1",
           "--seconds", str(SECONDS), "--trace", "0", "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_same_inputs():
    a, b = workloads.GenerateWorkload(7, workloads.SMOKE), workloads.GenerateWorkload(7, workloads.SMOKE)
    a.setup()
    b.setup()
    assert np.array_equal(a.prompt, b.prompt)
    assert all(np.array_equal(a.models[v].params[k].data, p.data)
               for v in workloads.VARIANTS for k, p in b.models[v].params.items())


def failures_of(out):
    assert not out["correct"]
    return " | ".join(out["detail"]["failures"])


def test_merge_taking_newer_node_first_is_caught(monkeypatch):
    # parallel and sequential both swapped stay equal; only the float64 reference sees it
    merge_level = lmn.summarizers.LinearSummarizer.merge_level
    merge_pair = lmn.summarizers.LinearSummarizer.merge_pair

    def newer_first_level(self, x):
        swap = np.arange(x.shape[1]) ^ 1
        return merge_level(self, lmn.tensor.index_select(x, 1, swap))

    monkeypatch.setattr(lmn.summarizers.LinearSummarizer, "merge_level", newer_first_level)
    monkeypatch.setattr(lmn.summarizers.LinearSummarizer, "merge_pair",
                        lambda self, a, b: merge_pair(self, b, a))
    assert "logmem: logits differ from the float64 reference" in failures_of(smoke("prefill"))


def test_backward_scaled_by_1_01_is_caught(monkeypatch):
    matmul = lmn.tensor.matmul

    def scaled(a, b):
        out = matmul(a, b)
        if out._backward is not None:
            bwd = out._backward
            out._backward = lambda g: tuple(x * 1.01 for x in bwd(g))
        return out

    for mod in (lmn.tensor, lmn.model, lmn.summarizers):
        monkeypatch.setattr(mod, "matmul", scaled)
    assert "directional derivative" in failures_of(smoke("train"))


def test_kv_cache_read_one_position_off_is_caught(monkeypatch):
    step = lmn.model.BaselineModel.step

    def off_by_one(self, state, token):
        out = step(self, state, token)
        t = state.t - 1
        if t > 0:  # the key just cached is read back as the previous position's
            state.k[0].data[t] = state.k[0].data[t - 1]
        return out

    monkeypatch.setattr(lmn.model.BaselineModel, "step", off_by_one)
    assert "baseline-attn: teacher-forced parallel vs stepped" in failures_of(smoke("generate"))


def test_miscounted_merges_are_caught(monkeypatch):
    merge_blocks = lmn.summarizers.ExpanderSummarizer.merge_blocks

    def counted_twice(self, left, right):
        lmn.summarizers.COUNTER.summarizer_ops += 1
        return merge_blocks(self, left, right)

    monkeypatch.setattr(lmn.summarizers.ExpanderSummarizer, "merge_blocks", counted_twice)
    assert "expsum: operation counts" in failures_of(smoke("generate"))


def test_a_wrapper_that_misses_an_imported_name_fails_the_traced_run(monkeypatch):
    combine = lmn.model.multi_bank_combine
    # a private copy of the name in lmn.model: the tracer cannot find it by identity
    monkeypatch.setattr(lmn.model, "multi_bank_combine", lambda mems: combine(mems))
    failures = failures_of(smoke("generate", trace=True))
    assert "recorded no call for logmem.attention.multi_bank_combine.ms" in failures
