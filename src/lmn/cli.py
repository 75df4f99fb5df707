"""Single entry point: train, eval, generate, bench, and verify.

Configuration comes from a flat key-value file with section prefixes
(model.embed=32, train.max_iters=5000, bench.lengths=256,1024), overridden
by flags. Every command that takes --config validates every section of the
file but applies only the sections it runs; its flags set only those. The
effective config is echoed at startup so a run can be reproduced
byte-exactly. Exit codes: 0 ok, 1 verification failure, 2 input
error, 3 artifact mismatch, 4 capacity exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .bench import BenchConfig, sweep
from .data import Dataset, Vocab, load_corpus
from .memory import CapacityError
from .model import (MODES, ModelConfig, build_model, config_kwargs, config_to_text, generate,
                    load_checkpoint, param_count)
from .tensor import make_rng
from .training import DivergenceError, TrainConfig, evaluate, train
from .verify import run_verify

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_MISMATCH = 3
EXIT_CAPACITY = 4

SECTIONS = {"model": ModelConfig, "train": TrainConfig, "bench": BenchConfig}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def parse_config_file(path) -> dict:
    """Flat `section.key=value` lines of UTF-8 text; unknown keys are errors."""
    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"config file {path} is not UTF-8 (byte {exc.start})") from None
    out = {}
    for ln, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        section, _, name = key.partition(".")
        if section not in SECTIONS or name not in {f.name for f in fields(SECTIONS[section])}:
            raise CliError(f"{path}:{ln}: unknown config key {key!r}")
        out[key] = value.strip()
    return out


def build_configs(args) -> dict:
    """The configs of the sections the command runs (``args.sections``):
    defaults < config file < flags.

    Every section of the config file is validated, whichever sections the
    command runs, so one file serves every command. A flag sets the field
    of its name in each section the command runs.
    """
    file_cfg = parse_config_file(args.config) if args.config else {}
    configs = {}
    for section, cls in SECTIONS.items():
        pairs = [(key[len(section) + 1:], value) for key, value in file_cfg.items()
                 if key.startswith(section + ".")]
        if section in args.sections:
            pairs += [(f.name, getattr(args, f.name)) for f in fields(cls)
                      if getattr(args, f.name, None) is not None]
        try:
            configs[section] = cls(**config_kwargs(cls, pairs, prefix=section + "."))
        except ValueError as exc:
            raise CliError(f"bad configuration: {exc}") from None
    return {section: configs[section] for section in args.sections}


def echo_config(configs: dict, extra: dict | None = None, file=None):
    """`section.key=value` for each config the command runs, then its other
    inputs as `key=value`."""
    out = file or sys.stdout
    print("# effective config", file=out)
    for section, cfg in configs.items():
        out.write(config_to_text(cfg, prefix=section + "."))
    for k, v in (extra or {}).items():
        print(f"{k}={v}", file=out)


def _read_corpus(args, block_size: int) -> Dataset:
    """The --corpus file as a Dataset with a block_size window in each split.

    A missing or unreadable path, text that is not UTF-8, an empty file or
    a split too short for block_size is an input error.
    """
    path = args.corpus
    if not path:
        raise CliError(f"{args.command} requires --corpus")
    try:
        text = load_corpus(path)
    except OSError as exc:
        raise CliError(f"cannot read corpus {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"corpus {path} is not UTF-8 (byte {exc.start})") from None
    if not text:
        raise CliError(f"corpus {path} is empty")
    ds = Dataset.from_text(text)
    try:
        ds.check_block_size(block_size)
    except ValueError as exc:
        raise CliError(f"corpus {path} is too short: {exc}") from None
    return ds


def _make_out_dir(path) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:  # a file of that name, or a file on the path
        raise CliError(f"cannot create output directory {path}: {exc.strerror}") from None


def cmd_train(args) -> int:
    configs = build_configs(args)
    model_cfg, train_cfg = configs["model"], configs["train"]
    ds = _read_corpus(args, train_cfg.block_size)
    if model_cfg.vocab_size != len(ds.vocab):
        model_cfg = replace(model_cfg, vocab_size=len(ds.vocab))
    if model_cfg.max_seq_len < train_cfg.block_size:
        model_cfg = replace(model_cfg, max_seq_len=train_cfg.block_size)
    echo_config({"model": model_cfg, "train": train_cfg}, {"corpus": args.corpus, "out": args.out})
    print(f"vocab_size={len(ds.vocab)} corpus_chars={len(ds.ids)} "
          f"params={param_count(model_cfg)}")
    _make_out_dir(args.out)
    ds.vocab.save(os.path.join(args.out, "vocab.txt"))
    model = build_model(model_cfg)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported below, once
            report = train(model, ds, train_cfg, out_dir=args.out, log=print)
    except DivergenceError as exc:
        raise CliError(f"training diverged: {exc}") from None
    print(f"final: train {report.final_train:.4f}, val {report.final_val:.4f} "
          f"(best val {report.best_val:.4f})")
    return EXIT_OK


def cmd_eval(args) -> int:
    train_cfg = build_configs(args)["train"]
    model, vocab = _load_artifacts(args)
    if train_cfg.block_size > model.config.max_seq_len:
        train_cfg.block_size = model.config.max_seq_len  # fit the checkpoint
    ds = _read_corpus(args, train_cfg.block_size)
    if len(ds.vocab) != model.config.vocab_size:
        raise CliError(
            f"corpus vocab {len(ds.vocab)} does not match checkpoint vocab {model.config.vocab_size}",
            EXIT_MISMATCH)
    echo_config({"model": model.config, "train": train_cfg})
    tr, va = evaluate(model, ds, train_cfg)
    print(f"train_loss={tr:.4f} val_loss={va:.4f}")
    return EXIT_OK


def _load_artifacts(args):
    if not args.checkpoint or not os.path.exists(args.checkpoint):
        raise CliError(f"checkpoint not found: {args.checkpoint}")
    try:
        model = load_checkpoint(args.checkpoint)
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise CliError(f"bad checkpoint {args.checkpoint}: {exc}") from None
    vocab = None
    if args.vocab:
        if not os.path.exists(args.vocab):
            raise CliError(f"vocab sidecar not found: {args.vocab}")
        try:
            vocab = Vocab.load(args.vocab)
        except ValueError as exc:
            raise CliError(f"bad vocab sidecar {args.vocab}: {exc}") from None
        if len(vocab) != model.config.vocab_size:
            raise CliError(
                f"vocab size {len(vocab)} does not match checkpoint vocab "
                f"{model.config.vocab_size}", EXIT_MISMATCH)
    return model, vocab


def cmd_generate(args) -> int:
    if args.n_new < 0:
        raise CliError(f"--n-new must be >= 0, got {args.n_new}")
    if not args.argmax and not args.temperature > 0:
        raise CliError(f"--temperature must be > 0 without --argmax, got {args.temperature}")
    if args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")
    model, vocab = _load_artifacts(args)
    if vocab is None:
        raise CliError("generate requires --vocab")
    # config echo on stderr: stdout carries only the sampled characters
    echo_config({"model": model.config}, {"prompt": repr(args.prompt), "n_new": args.n_new},
                file=sys.stderr)
    try:
        prompt_ids = vocab.encode(args.prompt)
    except KeyError as exc:
        raise CliError(str(exc), EXIT_MISMATCH) from None
    if prompt_ids.size == 0:
        prompt_ids = vocab.encode("\n")
    rng = make_rng(args.seed)
    out = generate(model, prompt_ids, args.n_new, temperature=args.temperature,
                   rng=rng, argmax=args.argmax)  # CapacityError exits 4 in main
    sys.stdout.write(vocab.decode(out[len(prompt_ids):]))
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = build_configs(args)["bench"]
    modes = (args.mode,) if args.mode else MODES
    echo_config({"bench": cfg}, {"modes": ",".join(modes), "out": args.out})
    _make_out_dir(args.out)
    out_csv = os.path.join(args.out, "bench.csv")
    records = sweep(cfg.lengths, cfg.variants, out_csv, modes=modes, reps=cfg.reps,
                    embed=cfg.embed, banks=cfg.banks, seed=cfg.seed, log=print)
    failures = [r for r in records if r.status != "ok"]
    print(f"wrote {out_csv} ({len(records)} rows, {len(failures)} failed)")
    return EXIT_OK


def cmd_verify(args) -> int:
    build_configs(args)  # the suite runs fixed shapes; a bad config file still exits 2
    echo_config({}, {"quick": args.quick})
    ok = run_verify(quick=args.quick, log=print)
    print("verify: ALL PASS" if ok else "verify: FAILURES")
    return EXIT_OK if ok else EXIT_VERIFY


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lmn", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def config_flags(p, sections, *names):
        """--config, the config sections the command runs, and flags that each
        set the key of their name in those sections; a flag's text is typed
        by the same parser as a config file line."""
        p.set_defaults(sections=sections)
        p.add_argument("--config", help="key-value config file")
        for name in names:
            keys = [f"{s}.{name}" for s in sections
                    if name in {f.name for f in fields(SECTIONS[s])}]
            p.add_argument("--" + name.replace("_", "-"), dest=name, default=None,
                           help="sets " + " and ".join(keys))

    # no subcommand takes abbreviated flags: --variant must not pass for bench's --variants
    p_train = sub.add_parser("train", allow_abbrev=False, help="train a model on a corpus")
    config_flags(p_train, ("model", "train"), "variant", "embed", "banks", "expansion", "n_blocks",
                 "max_seq_len", "score_orientation", "seed", "max_iters", "block_size")
    p_train.add_argument("--corpus", default=None)
    p_train.add_argument("--out", default="out", help="output directory")
    p_train.set_defaults(fn=cmd_train)

    # eval and generate run the checkpoint's model, so no model flag applies
    p_eval = sub.add_parser("eval", allow_abbrev=False, help="evaluate a checkpoint on a corpus")
    config_flags(p_eval, ("train",), "seed", "block_size")
    p_eval.add_argument("--checkpoint", default=None)
    p_eval.add_argument("--vocab", default=None)
    p_eval.add_argument("--corpus", default=None)
    p_eval.set_defaults(fn=cmd_eval)

    p_gen = sub.add_parser("generate", allow_abbrev=False, help="sample text from a checkpoint")
    p_gen.add_argument("--checkpoint", default=None)
    p_gen.add_argument("--vocab", default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--prompt", default="\n")
    p_gen.add_argument("--n-new", dest="n_new", type=int, default=200)
    p_gen.add_argument("--temperature", type=float, default=1.0)
    p_gen.add_argument("--argmax", action="store_true", help="greedy decoding (T -> 0 limit)")
    p_gen.set_defaults(fn=cmd_generate)

    p_bench = sub.add_parser("bench", allow_abbrev=False, help="run the scaling sweep")
    config_flags(p_bench, ("bench",), "lengths", "variants", "embed", "banks", "seed")
    p_bench.add_argument("--mode", choices=MODES, default=None)
    p_bench.add_argument("--out", default="out", help="output directory")
    p_bench.set_defaults(fn=cmd_bench)

    # verify runs a fixed suite of shapes and seeds
    p_verify = sub.add_parser("verify", allow_abbrev=False, help="run the invariant suite")
    config_flags(p_verify, ())
    p_verify.add_argument("--quick", action="store_true", help="reduced shapes, < 60 s")
    p_verify.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
