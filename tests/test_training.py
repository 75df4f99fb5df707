"""Training loop: optimizer behaviour, evaluation contracts, and
reproducibility."""

import csv

import numpy as np
import pytest

from lmn.data import Dataset
from lmn.model import ModelConfig, build_model, loss as loss_fn
from lmn.tensor import Tensor, make_rng, no_grad
from lmn.training import AdamW, DivergenceError, TrainConfig, clip_grad_norm, evaluate, train


def tiny_setup(corpus_text, variant="logmem", seed=0, **cfg_kw):
    ds = Dataset.from_text(corpus_text[:20_000])
    cfg = ModelConfig(variant=variant, vocab_size=len(ds.vocab), embed=8,
                      max_seq_len=32, banks=2, n_blocks=1, seed=seed, **cfg_kw)
    return ds, build_model(cfg)


def test_single_step_reduces_loss_on_same_batch(corpus_text):
    ds, model = tiny_setup(corpus_text)
    tc = TrainConfig(batch_size=4, block_size=32, max_iters=1, eval_iters=1, seed=0)
    rng = make_rng(0)
    from lmn.data import sample_batch
    x, y = sample_batch(ds, "train", 4, 32, rng)
    before = loss_fn(model.forward(x), y)
    model.zero_grad()
    before.backward()
    clip_grad_norm(model.params, 1.0)
    AdamW(model.params, tc).step(1e-2)
    with no_grad():
        after = loss_fn(model.forward(x), y).item()
    assert after < before.item()


def test_optimizer_zero_grads_is_noop(corpus_text):
    _, model = tiny_setup(corpus_text)
    tc = TrainConfig()
    before = {k: p.data.copy() for k, p in model.params.items()}
    model.zero_grad()
    AdamW(model.params, tc).step(1e-3)
    for k, p in model.params.items():
        assert np.array_equal(p.data, before[k]), k


def test_clip_grad_norm_scales_to_bound():
    p = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    p.grad = np.full(4, 10.0, dtype=np.float32)
    norm = clip_grad_norm({"p": p}, 1.0)
    assert norm == pytest.approx(20.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-5)


def test_evaluate_is_deterministic_and_frozen(corpus_text):
    ds, model = tiny_setup(corpus_text)
    tc = TrainConfig(batch_size=2, block_size=32, eval_iters=3, seed=5)
    checksum = {k: p.data.copy() for k, p in model.params.items()}
    a = evaluate(model, ds, tc)
    b = evaluate(model, ds, tc)
    assert a == b
    for k, p in model.params.items():
        assert np.array_equal(p.data, checksum[k])


def test_uniform_model_loss_is_log_vocab(corpus_text):
    ds, model = tiny_setup(corpus_text)
    # zero unembedding -> exactly uniform predictive distribution
    model.params["unembed.weight"].data[:] = 0.0
    model.params["unembed.bias"].data[:] = 0.0
    tc = TrainConfig(batch_size=2, block_size=32, eval_iters=2, seed=1)
    tr, va = evaluate(model, ds, tc)
    expect = np.log(len(ds.vocab))
    assert abs(tr - expect) <= 0.05 and abs(va - expect) <= 0.05


def test_training_reproducible_and_writes_artifacts(tmp_path, corpus_text):
    curves = []
    for run in range(2):
        ds, model = tiny_setup(corpus_text, seed=3)
        tc = TrainConfig(batch_size=2, block_size=32, max_iters=6, eval_iters=2,
                         eval_interval=3, seed=3)
        report = train(model, ds, tc, out_dir=str(tmp_path / f"run{run}"))
        curves.append(report.curve)
    assert curves[0] == curves[1]
    out = tmp_path / "run0"
    assert (out / "model_final.ckpt").exists()
    assert (out / "model_best.ckpt").exists()
    with open(out / "train_report.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["step", "train_loss", "val_loss"]
    assert len(rows) == 1 + len(curves[0])


def test_training_writes_one_telemetry_row_per_step(tmp_path, corpus_text):
    ds, model = tiny_setup(corpus_text, seed=3)
    tc = TrainConfig(batch_size=2, block_size=32, max_iters=6, eval_iters=2, eval_interval=3,
                     learning_rate=2e-3, seed=3)
    report = train(model, ds, tc, out_dir=str(tmp_path))
    with open(tmp_path / "train_steps.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["step", "loss", "grad_norm", "lr", "step_s", "tok_s"]
    assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4, 5, 6]
    for row, kept in zip(rows[1:], report.steps):
        step, loss, norm, lr, seconds, tok_s = (float(v) for v in row)
        assert (loss, norm, lr, seconds, tok_s) == kept[1:]
        assert np.log(len(ds.vocab)) / 2 < loss < 2 * np.log(len(ds.vocab))
        assert norm > 0 and lr == 2e-3 and seconds > 0
        assert tok_s == pytest.approx(2 * 32 / seconds)


def test_training_aborts_on_divergence(corpus_text):
    ds, model = tiny_setup(corpus_text)
    # a destructive learning rate blows the weights up within a few steps
    tc = TrainConfig(batch_size=2, block_size=32, max_iters=50, eval_iters=1,
                     eval_interval=50, learning_rate=1e12, grad_clip=0.0, seed=0)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="non-finite"):
        train(model, ds, tc)


def test_block_size_must_fit_model(corpus_text):
    ds, model = tiny_setup(corpus_text)
    tc = TrainConfig(block_size=64)
    with pytest.raises(ValueError):
        train(model, ds, tc)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)


@pytest.mark.parametrize("field,value", [("grad_clip", -1.0), ("learning_rate", float("nan"))])
def test_train_config_rejects_out_of_range_optimizer_fields(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_non_finite_grad_norm_stops_before_the_update(corpus_text, monkeypatch):
    import lmn.training
    ds, model = tiny_setup(corpus_text)
    before = {k: p.data.copy() for k, p in model.params.items()}
    monkeypatch.setattr(lmn.training, "clip_grad_norm", lambda params, max_norm: float("inf"))
    tc = TrainConfig(batch_size=2, block_size=32, max_iters=3, eval_iters=1, eval_interval=3, seed=0)
    with pytest.raises(DivergenceError, match="non-finite grad_norm inf at step 1"):
        train(model, ds, tc)
    for k, p in model.params.items():
        assert np.array_equal(p.data, before[k]), k
