"""Single entry point: train, eval, generate, bench, and verify.

Configuration comes from a flat key-value file with section prefixes
(model.embed=32, train.max_iters=5000, bench.lengths=256,1024), overridden
by flags. The effective config is echoed at startup so a run can be
reproduced byte-exactly. Exit codes: 0 ok, 1 verification failure, 2 input
error, 3 artifact mismatch, 4 capacity exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .bench import sweep
from .data import Dataset, Vocab, load_corpus
from .memory import CapacityError
from .model import ModelConfig, build_model, generate, load_checkpoint, param_count
from .tensor import make_rng
from .training import DivergenceError, TrainConfig, evaluate, train
from .verify import run_verify

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_MISMATCH = 3
EXIT_CAPACITY = 4

_MODEL_KEYS = {f.name for f in fields(ModelConfig)}
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}
_BENCH_KEYS = {"lengths", "variants", "reps", "embed", "banks"}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def parse_config_file(path) -> dict:
    """Flat `section.key=value` lines; unknown keys are errors."""
    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}")
    out = {}
    with open(path) as f:
        for ln, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            section, _, name = key.partition(".")
            known = {"model": _MODEL_KEYS, "train": _TRAIN_KEYS, "bench": _BENCH_KEYS}.get(section)
            if known is None or name not in known:
                raise CliError(f"{path}:{ln}: unknown config key {key!r}")
            out[key] = value.strip()
    return out


_BOOLS = {"True": True, "true": True, "1": True, "yes": True,
          "False": False, "false": False, "0": False, "no": False}


def _coerce(fields_map, name, value):
    kind = fields_map[name]
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        if kind == "bool":
            return _BOOLS[value]
    except (KeyError, ValueError):
        raise CliError(f"bad value {value!r} for {kind} key {name!r}") from None
    return value


def build_configs(args) -> tuple[ModelConfig, TrainConfig, dict]:
    """Defaults < config file < command-line flags."""
    file_cfg = parse_config_file(args.config) if args.config else {}
    model_kw, train_kw = {}, {}
    bench_kw = {}
    mf = {f.name: f.type for f in fields(ModelConfig)}
    tf = {f.name: f.type for f in fields(TrainConfig)}
    for key, value in file_cfg.items():
        section, _, name = key.partition(".")
        if section == "model":
            model_kw[name] = _coerce(mf, name, value)
        elif section == "train":
            train_kw[name] = _coerce(tf, name, value)
        else:
            bench_kw[name] = value
    # a subcommand registers only the flags it uses
    for name in ("variant", "embed", "banks", "expansion", "seed", "score_orientation",
                 "max_seq_len", "n_blocks"):
        if getattr(args, name, None) is not None:
            model_kw[name] = getattr(args, name)
    for name in ("seed", "max_iters", "block_size"):
        if getattr(args, name, None) is not None:
            train_kw[name] = getattr(args, name)
    try:
        model_cfg = ModelConfig(**model_kw)
        train_cfg = TrainConfig(**train_kw)
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad configuration: {exc}") from None
    return model_cfg, train_cfg, bench_kw


def echo_config(model_cfg: ModelConfig, train_cfg: TrainConfig | None = None,
                extra: dict | None = None, file=None):
    out = file or sys.stdout
    print("# effective config", file=out)
    for f in fields(model_cfg):
        print(f"model.{f.name}={getattr(model_cfg, f.name)}", file=out)
    if train_cfg is not None:
        for f in fields(train_cfg):
            print(f"train.{f.name}={getattr(train_cfg, f.name)}", file=out)
    for k, v in (extra or {}).items():
        print(f"{k}={v}", file=out)


def cmd_train(args) -> int:
    model_cfg, train_cfg, _ = build_configs(args)
    if not args.corpus:
        raise CliError("train requires --corpus")
    if not os.path.exists(args.corpus):
        raise CliError(f"corpus file not found: {args.corpus}")
    text = load_corpus(args.corpus)
    ds = Dataset.from_text(text)
    if model_cfg.vocab_size != len(ds.vocab):
        model_cfg = ModelConfig(**{**_cfg_dict(model_cfg), "vocab_size": len(ds.vocab)})
    if model_cfg.max_seq_len < train_cfg.block_size:
        model_cfg = ModelConfig(**{**_cfg_dict(model_cfg), "max_seq_len": train_cfg.block_size})
    echo_config(model_cfg, train_cfg, {"corpus": args.corpus, "out": args.out})
    print(f"vocab_size={len(ds.vocab)} corpus_chars={len(text)} "
          f"params={param_count(model_cfg)}")
    os.makedirs(args.out, exist_ok=True)
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
    _, train_cfg, _ = build_configs(args)
    model, vocab = _load_artifacts(args)
    text = load_corpus(args.corpus) if args.corpus else None
    if text is None:
        raise CliError("eval requires --corpus")
    if train_cfg.block_size > model.config.max_seq_len:
        train_cfg.block_size = model.config.max_seq_len  # fit the checkpoint
    ds = Dataset.from_text(text)
    if len(ds.vocab) != model.config.vocab_size:
        raise CliError(
            f"corpus vocab {len(ds.vocab)} does not match checkpoint vocab {model.config.vocab_size}",
            EXIT_MISMATCH)
    echo_config(model.config, train_cfg)
    tr, va = evaluate(model, ds, train_cfg)
    print(f"train_loss={tr:.4f} val_loss={va:.4f}")
    return EXIT_OK


def _cfg_dict(cfg) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


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
    echo_config(model.config, None, {"prompt": repr(args.prompt), "n_new": args.n_new},
                file=sys.stderr)
    try:
        prompt_ids = vocab.encode(args.prompt)
    except KeyError as exc:
        raise CliError(str(exc), EXIT_MISMATCH) from None
    if prompt_ids.size == 0:
        prompt_ids = vocab.encode("\n")
    rng = make_rng(args.seed)
    try:
        out = generate(model, prompt_ids, args.n_new, temperature=args.temperature,
                       rng=rng, argmax=args.argmax)
    except CapacityError as exc:
        raise CliError(str(exc), EXIT_CAPACITY) from None
    sys.stdout.write(vocab.decode(out[len(prompt_ids):]))
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    model_cfg, _, bench_kw = build_configs(args)
    lengths = args.lengths or bench_kw.get("lengths") or "256,1024,4096,16384"
    if isinstance(lengths, str):
        lengths = [int(x) for x in lengths.split(",") if x]
    variants = (args.variants or bench_kw.get("variants") or "logmem,baseline-attn")
    if isinstance(variants, str):
        variants = [v for v in variants.split(",") if v]
    modes = (args.mode,) if args.mode else ("parallel", "sequential")
    os.makedirs(args.out, exist_ok=True)
    out_csv = os.path.join(args.out, "bench.csv")
    echo_config(model_cfg, None, {"bench.lengths": lengths, "bench.variants": variants,
                                  "bench.modes": list(modes), "bench.out": out_csv})
    records = sweep(lengths, variants, out_csv, modes=modes,
                    reps=int(bench_kw.get("reps", 3)),
                    embed=model_cfg.embed, banks=model_cfg.banks,
                    seed=model_cfg.seed, log=print)
    failures = [r for r in records if r.status != "ok"]
    print(f"wrote {out_csv} ({len(records)} rows, {len(failures)} failed)")
    return EXIT_OK


def cmd_verify(args) -> int:
    build_configs(args)  # the suite runs fixed shapes; a bad config file still exits 2
    print("# effective config")
    print(f"quick={args.quick}")
    ok = run_verify(quick=args.quick, log=print)
    print("verify: ALL PASS" if ok else "verify: FAILURES")
    return EXIT_OK if ok else EXIT_VERIFY


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lmn", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        """Flags of the subcommands that build their model from the config: train and bench."""
        p.add_argument("--config", help="key-value config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--variant", choices=["logmem", "tiny-logmem", "expsum", "baseline-attn"],
                       default=None)
        p.add_argument("--embed", type=int, default=None)
        p.add_argument("--banks", type=int, default=None)
        p.add_argument("--expansion", type=int, default=None)
        p.add_argument("--n-blocks", dest="n_blocks", type=int, default=None)
        p.add_argument("--max-seq-len", dest="max_seq_len", type=int, default=None)
        p.add_argument("--mode", choices=["parallel", "sequential"], default=None)
        p.add_argument("--score-orientation", dest="score_orientation",
                       choices=["literal", "swapped"], default=None)

    p_train = sub.add_parser("train", help="train a model on a corpus")
    common(p_train)
    p_train.add_argument("--corpus", default=None)
    p_train.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p_train.add_argument("--block-size", dest="block_size", type=int, default=None)
    p_train.set_defaults(fn=cmd_train)

    # eval and generate run the checkpoint's model, so no model flag applies
    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p_eval.add_argument("--checkpoint", default=None)
    p_eval.add_argument("--vocab", default=None)
    p_eval.add_argument("--corpus", default=None)
    p_eval.add_argument("--config", help="key-value config file")
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--block-size", dest="block_size", type=int, default=None)
    p_eval.set_defaults(fn=cmd_eval)

    p_gen = sub.add_parser("generate", help="sample text from a checkpoint")
    p_gen.add_argument("--checkpoint", default=None)
    p_gen.add_argument("--vocab", default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--prompt", default="\n")
    p_gen.add_argument("--n-new", dest="n_new", type=int, default=200)
    p_gen.add_argument("--temperature", type=float, default=1.0)
    p_gen.add_argument("--argmax", action="store_true", help="greedy decoding (T -> 0 limit)")
    p_gen.set_defaults(fn=cmd_generate)

    p_bench = sub.add_parser("bench", help="run the scaling sweep")
    common(p_bench)
    p_bench.add_argument("--lengths", default=None, help="comma-separated sequence lengths")
    p_bench.add_argument("--variants", default=None, help="comma-separated variants")
    p_bench.set_defaults(fn=cmd_bench)

    # verify runs a fixed suite of shapes and seeds
    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--config", help="key-value config file")
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
