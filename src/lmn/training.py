"""Training loop, periodic evaluation, and checkpointing.

Adam with fixed moment decays and epsilon and no weight decay, a constant
learning rate as in the paper, and global-norm gradient clipping to protect
the 32-bit carry-chain recursion. Memory is always built in parallel mode
during training.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, sample_batch
from .model import loss as loss_fn
from .model import save_checkpoint, write_file
from .tensor import make_rng, no_grad


# Adam's moment decays and epsilon
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class TrainConfig:
    batch_size: int = 16
    block_size: int = 512
    max_iters: int = 5000
    learning_rate: float = 1e-3
    eval_iters: int = 200
    eval_interval: int = 500
    seed: int = 0
    grad_clip: float = 1.0

    def __post_init__(self):
        for name in ("batch_size", "block_size", "max_iters", "eval_iters", "eval_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not self.grad_clip >= 0:  # 0 turns clipping off
            raise ValueError("grad_clip must be non-negative")


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient norm."""


class AdamW:
    """Adam with the module's BETA1, BETA2 and EPS and no weight decay. The
    learning rate comes with each ``step``; no field of ``cfg`` is read."""

    def __init__(self, params: dict, cfg: TrainConfig):
        self.params = params
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, lr: float):
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[k]
            v = self.v[k]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p.data = p.data - lr * update


def clip_grad_norm(params: dict, max_norm: float) -> float:
    """Scale all grads so the global L2 norm is at most max_norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if max_norm and norm > max_norm:
        s = max_norm / (norm + 1e-12)
        for p in params.values():
            if p.grad is not None:
                p.grad *= s
    return norm


def evaluate(model, ds: Dataset, cfg: TrainConfig) -> tuple[float, float]:
    """Mean losses over eval_iters fresh batches per split; params untouched.

    Uses its own seed stream derived from cfg.seed, so repeated calls give
    identical numbers.
    """
    out = []
    for tag, split in ((0x7A11, "train"), (0x0A1D, "val")):
        rng = make_rng(((cfg.seed + 1) << 16) ^ tag)
        total = 0.0
        with no_grad():
            for _ in range(cfg.eval_iters):
                x, y = sample_batch(ds, split, cfg.batch_size, cfg.block_size, rng)
                total += loss_fn(model.forward(x, mode="parallel"), y).item()
        out.append(total / cfg.eval_iters)
    return out[0], out[1]


STEP_COLUMNS = ("step", "loss", "grad_norm", "lr", "step_s", "tok_s")


@dataclass
class TrainReport:
    curve: list = field(default_factory=list)  # rows of (step, train_loss, val_loss)
    steps: list = field(default_factory=list)  # one row of STEP_COLUMNS per training step
    final_train: float = float("nan")
    final_val: float = float("nan")
    best_val: float = float("inf")

    def write_csv(self, out_dir):
        """train_report.csv holds the eval curve, train_steps.csv the per-step telemetry."""
        for name, header, rows in (
                ("train_report.csv", ("step", "train_loss", "val_loss"), self.curve),
                ("train_steps.csv", STEP_COLUMNS, self.steps)):
            text = io.StringIO()
            w = csv.writer(text)
            w.writerow(header)
            w.writerows(rows)
            write_file(os.path.join(out_dir, name), text.getvalue().encode("utf-8"))


def train(model, ds: Dataset, cfg: TrainConfig, out_dir: str | None = None,
          log=None) -> TrainReport:
    """Run the training loop; returns the loss curve and final/best losses.

    Both splits are checked for a block_size window before the first step,
    so a short split fails before any training and not at the first eval.

    Per step: sample batch, parallel-mode forward, cross-entropy, backward,
    clip, Adam update; the step's loss, grad norm (before clipping), learning
    rate, seconds and tokens/s go to report.steps. Every eval_interval steps
    both splits are evaluated with frozen parameters. Checkpoints are written
    at the end and whenever the val loss improves (when out_dir is given).
    """
    if cfg.block_size > model.config.max_seq_len:
        raise ValueError(
            f"block_size {cfg.block_size} exceeds model max_seq_len {model.config.max_seq_len}")
    ds.check_block_size(cfg.block_size)
    rng = make_rng(cfg.seed)
    opt = AdamW(model.params, cfg)
    report = TrainReport()
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    lr = cfg.learning_rate
    last_norm = float("nan")  # grad norm of the last step that updated the weights
    for step in range(1, cfg.max_iters + 1):
        start = time.perf_counter()
        x, y = sample_batch(ds, "train", cfg.batch_size, cfg.block_size, rng)
        model.zero_grad()
        step_loss = loss_fn(model.forward(x, mode="parallel"), y)
        value = step_loss.item()
        if not math.isfinite(value):
            raise DivergenceError(
                f"non-finite loss {value} at step {step} (lr={lr:.3g}, "
                f"last grad_norm={last_norm:.3g})")
        step_loss.backward()
        norm = clip_grad_norm(model.params, cfg.grad_clip)
        if not math.isfinite(norm):  # stop before AdamW writes it into the weights
            raise DivergenceError(
                f"non-finite grad_norm {norm} at step {step} (lr={lr:.3g}, "
                f"loss={value:.4g})")
        last_norm = norm
        opt.step(lr)
        seconds = time.perf_counter() - start
        report.steps.append((step, value, norm, lr, seconds, x.size / seconds))

        if step % cfg.eval_interval == 0 or step == cfg.max_iters:
            tr, va = evaluate(model, ds, cfg)
            report.curve.append((step, tr, va))
            if log:
                log(f"step {step}: train {tr:.4f}, val {va:.4f}")
            if va < report.best_val:
                report.best_val = va
                if out_dir:
                    save_checkpoint(os.path.join(out_dir, "model_best.ckpt"), model)

    report.final_train, report.final_val = report.curve[-1][1], report.curve[-1][2]
    if out_dir:
        save_checkpoint(os.path.join(out_dir, "model_final.ckpt"), model)
        report.write_csv(out_dir)
    return report
