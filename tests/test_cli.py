"""CLI contracts: subcommands, config handling, exit codes, artifacts."""

import argparse
import csv
import dataclasses
import math
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

import lmn.memory
from lmn.bench import lmn_score_mac_closed_form
from lmn.cli import main, make_parser, parse_config_file, CliError
from lmn.corpus import generate_corpus, main as corpus_main
from lmn.data import build_vocab
from lmn.model import build_model, config_to_text, load_checkpoint, save_checkpoint
from lmn.tensor import add, concat, matmul, softmax_last

from test_model import resealed, with_retired_keys, write_checkpoint


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "plays.txt"
    path.write_bytes(generate_corpus(60_000, seed=1).encode("utf-8"))
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus_file):
    out = str(tmp_path_factory.mktemp("run"))
    code = main([
        "train", "--corpus", corpus_file, "--out", out, "--variant", "logmem",
        "--embed", "8", "--banks", "1", "--max-iters", "10", "--block-size", "32",
        "--max-seq-len", "64", "--seed", "3",
    ])
    assert code == 0
    return out


def test_train_smoke_writes_artifacts(trained, corpus_file):
    for name in ("model_final.ckpt", "model_best.ckpt", "vocab.txt", "train_report.csv",
                 "train_steps.csv"):
        assert os.path.exists(os.path.join(trained, name)), name
    # the vocab sidecar: the corpus's characters in id order, as raw UTF-8
    sidecar = open(os.path.join(trained, "vocab.txt"), "rb").read().decode("utf-8")
    corpus = open(corpus_file, "rb").read().decode("utf-8")
    assert list(sidecar) == build_vocab(corpus).chars


def test_train_missing_corpus_exit_2(tmp_path, capsys):
    code = main(["train", "--corpus", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
    assert code == 2
    assert "nope.txt" in capsys.readouterr().err


def test_effective_config_is_echoed(capsys, corpus_file, tmp_path):
    main(["train", "--corpus", corpus_file, "--out", str(tmp_path), "--variant",
          "tiny-logmem", "--embed", "8", "--banks", "1", "--max-iters", "2",
          "--block-size", "32", "--max-seq-len", "32", "--seed", "1"])
    out = capsys.readouterr().out
    assert "model.variant=tiny-logmem" in out
    assert "train.max_iters=2" in out


def test_generate_deterministic(trained, capsys):
    args = ["generate", "--checkpoint", os.path.join(trained, "model_final.ckpt"),
            "--vocab", os.path.join(trained, "vocab.txt"),
            "--prompt", "KING", "--n-new", "40", "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out.splitlines()[-1]
    assert main(args) == 0
    second = capsys.readouterr().out.splitlines()[-1]
    assert first == second
    assert len(first) == 40


def test_generate_prompt_outside_vocab_exit_3(trained, capsys):
    code = main(["generate", "--checkpoint", os.path.join(trained, "model_final.ckpt"),
                 "--vocab", os.path.join(trained, "vocab.txt"),
                 "--prompt", "é", "--n-new", "5"])
    assert code == 3
    # after the config echo, one line with the character unquoted
    assert capsys.readouterr().err.endswith("\nerror: character 'é' not in vocabulary\n")


def test_generate_at_a_tiny_temperature_is_greedy(trained, capsys):
    # logits / T overflow at T = 1e-310; the max is subtracted before the division
    args = ["generate", "--checkpoint", os.path.join(trained, "model_final.ckpt"),
            "--vocab", os.path.join(trained, "vocab.txt"), "--prompt", "KING", "--n-new", "30"]
    assert main(args + ["--argmax"]) == 0
    greedy = capsys.readouterr().out
    for temperature in ("1e-310", "5e-324"):
        assert main(args + ["--temperature", temperature]) == 0
        assert capsys.readouterr().out == greedy


def test_generate_beyond_capacity_exit_4(trained):
    code = main(["generate", "--checkpoint", os.path.join(trained, "model_final.ckpt"),
                 "--vocab", os.path.join(trained, "vocab.txt"),
                 "--prompt", "K", "--n-new", "100"])  # capacity 64
    assert code == 4


def test_generate_stops_at_max_seq_len_below_the_slot_capacity(trained, tmp_path, capsys):
    # a slot state for max_seq_len 48 has room for 2^6 = 64 positions; stepping stops at 48
    cfg = load_checkpoint(os.path.join(trained, "model_final.ckpt")).config
    ckpt = str(tmp_path / "m48.ckpt")
    save_checkpoint(ckpt, build_model(dataclasses.replace(cfg, max_seq_len=48)))
    args = ["generate", "--checkpoint", ckpt, "--vocab", os.path.join(trained, "vocab.txt"),
            "--prompt", "K", "--argmax", "--n-new"]
    assert main(args + ["48"]) == 0  # the prompt and 47 new tokens are stepped
    capsys.readouterr()
    assert main(args + ["49"]) == 4
    assert "sequence length 49 exceeds max_seq_len 48" in capsys.readouterr().err


def _bad_checkpoints(trained):
    good = open(os.path.join(trained, "model_final.ckpt"), "rb").read()
    assert b"summarizer_bias=True\n" in good
    # the first tensor's header: u32 name length, name, u32 rank, u32 extents
    name_at = 7 + 4 + 4 + struct.unpack_from("<I", good, 11)[0]
    rank_at = name_at + 4 + struct.unpack_from("<I", good, name_at)[0]
    assert good[name_at + 4:rank_at] == b"embed.weight"
    assert struct.unpack_from("<I", good, rank_at)[0] == 2
    cfg_len = struct.unpack_from("<I", good, 11)[0]
    huge_cfg = good[15:15 + cfg_len].replace(b"\nembed=8\n", b"\nembed=100000000000\n", 1)
    assert len(huge_cfg) > cfg_len
    # each resealed, so it passes the CRC32 and meets the check it was made for
    return {
        "half-length": (resealed(good[: len(good) // 2]), "checkpoint truncated"),
        "garbage": (b"LMNCKPT" + b"\xff" * 64, "unsupported checkpoint version"),
        "bad-bool": (resealed(good.replace(b"summarizer_bias=True\n", b"summarizer_bias=Ture\n", 1)),
                     "'summarizer_bias'"),
        # sized reads of 4 GiB and 14.4 GB if the fields were trusted
        "huge-rank": (resealed(good[:rank_at] + struct.pack("<I", 1 << 30) + good[rank_at + 4:]),
                      "the shape of 'embed.weight' needs 4294967296 bytes"),
        "huge-shape": (resealed(good[:rank_at + 4] + struct.pack("<2I", 60000, 60000) + good[rank_at + 12:]),
                       "the data of 'embed.weight' needs 14400000000 bytes"),
        # a model no machine could allocate, refused before it is built
        "huge-config": (resealed(good[:11] + struct.pack("<I", len(huge_cfg)) + huge_cfg
                                 + good[15 + cfg_len:]), "checkpoint tensor 'embed.weight' shape"),
    }


def _assert_one_error_line(capsys):
    _assert_one_error_line_in(capsys.readouterr().err)


def _assert_one_error_line_in(err):
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["half-length", "garbage", "bad-bool", "huge-rank", "huge-shape",
                                  "huge-config"])
def test_bad_checkpoint_exits_2_with_one_line(trained, tmp_path, capsys, kind):
    path = tmp_path / "bad.ckpt"
    blob, message = _bad_checkpoints(trained)[kind]
    path.write_bytes(blob)
    code = main(["generate", "--checkpoint", str(path),
                 "--vocab", os.path.join(trained, "vocab.txt"), "--n-new", "5"])
    assert code == 2
    err = capsys.readouterr().err
    _assert_one_error_line_in(err)
    assert message in err


@pytest.mark.parametrize("command", ["generate", "eval"])
def test_checkpoint_with_a_bit_flipped_in_a_tensor_exits_2(trained, corpus_file, tmp_path, capsys,
                                                           command):
    # the lengths and the config still read; only the CRC32 shows the damage
    good = open(os.path.join(trained, "model_final.ckpt"), "rb").read()
    name_at = 7 + 4 + 4 + struct.unpack_from("<I", good, 11)[0]
    rank_at = name_at + 4 + struct.unpack_from("<I", good, name_at)[0]
    data_at = rank_at + 4 + 4 * 2  # embed.weight: rank 2, two extents, then its data
    flipped = bytearray(good)
    flipped[data_at + 5] ^= 0x10
    path = tmp_path / "flipped.ckpt"
    path.write_bytes(bytes(flipped))
    args = {"eval": ["--corpus", corpus_file, "--seed", "3"],
            "generate": ["--prompt", "K", "--n-new", "5"]}[command]
    code = main([command, "--checkpoint", str(path), "--vocab", os.path.join(trained, "vocab.txt"),
                 *args])
    assert code == 2
    err = capsys.readouterr().err
    _assert_one_error_line_in(err)
    assert f"checkpoint {path} is damaged" in err


@pytest.mark.parametrize("retired,names", [
    pytest.param(dict(tie_embeddings=True), "'unembed.weight'", id="tied"),
    pytest.param(dict(qkv_bias=False), "'block0.qkv.bias'", id="no-qkv-bias"),
    pytest.param(dict(ffn_mult=1), "'block0.ffn.w1'", id="ffn-mult-1"),
])
def test_checkpoint_shaped_by_a_retired_value_exits_2_naming_the_tensor(trained, tmp_path, capsys,
                                                                       retired, names):
    # as written when the key was a ModelConfig field: a tied model has no
    # unembed.weight, an unbiased one no qkv.bias, ffn_mult=1 one shared [E, E] map
    model = load_checkpoint(os.path.join(trained, "model_final.ckpt"))
    tensors = {name: p.data for name, p in model.params.items()}
    if retired.get("tie_embeddings"):
        del tensors["unembed.weight"]
    if retired.get("qkv_bias") is False:
        del tensors["block0.qkv.bias"]
    if retired.get("ffn_mult") == 1:
        e = model.config.embed
        for name in ("w1", "b1", "w2", "b2"):
            del tensors[f"block0.ffn.{name}"]
        tensors["block0.ffn.weight"] = np.zeros((e, e), dtype=np.float32)
        tensors["block0.ffn.bias"] = np.zeros(e, dtype=np.float32)
    path = tmp_path / "old.ckpt"
    write_checkpoint(path, with_retired_keys(config_to_text(model.config), **{"ffn_mult": 4, **retired}),
                     tensors)
    code = main(["generate", "--checkpoint", str(path),
                 "--vocab", os.path.join(trained, "vocab.txt"), "--n-new", "5"])
    assert code == 2
    err = capsys.readouterr().err
    _assert_one_error_line_in(err)
    assert names in err


def test_swapped_checkpoint_exits_2_naming_the_key(trained, tmp_path, capsys):
    # a swapped checkpoint holds the literal one's tensors, so only its config tells them apart
    model = load_checkpoint(os.path.join(trained, "model_final.ckpt"))
    path = tmp_path / "swapped.ckpt"
    write_checkpoint(path, with_retired_keys(config_to_text(model.config), ffn_mult=4,
                                             score_orientation="swapped"),
                     {name: p.data for name, p in model.params.items()})
    code = main(["generate", "--checkpoint", str(path),
                 "--vocab", os.path.join(trained, "vocab.txt"), "--n-new", "5"])
    assert code == 2
    err = capsys.readouterr().err
    _assert_one_error_line_in(err)
    assert "score_orientation" in err


@pytest.mark.parametrize("kind,exit_code", [("empty", 2), ("not-utf8", 2), ("directory", 2),
                                            ("duplicate", 2), ("size-mismatch", 3)])
def test_bad_vocab_exits_with_one_line(trained, tmp_path, capsys, kind, exit_code):
    path = tmp_path / "vocab.txt"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes({"empty": b"", "not-utf8": b"ab\xff", "duplicate": b"aab",
                          "size-mismatch": b"abc"}[kind])
    code = main(["generate", "--checkpoint", os.path.join(trained, "model_final.ckpt"),
                 "--vocab", str(path), "--prompt", "a", "--n-new", "5"])
    assert code == exit_code
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("flags", [["--temperature", "0"], ["--n-new", "-3"], ["--seed", "-1"]])
def test_generate_bad_flags_exit_2(trained, capsys, flags):
    code = main(["generate", "--checkpoint", os.path.join(trained, "model_final.ckpt"),
                 "--vocab", os.path.join(trained, "vocab.txt"), "--prompt", "K", *flags])
    assert code == 2
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("flags", [["--variant", "expsum"], ["--config", "cfg.txt"]])
def test_generate_rejects_config_flags(trained, capsys, flags):
    # the model config comes from the checkpoint: a config flag would be silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--checkpoint", os.path.join(trained, "model_final.ckpt"),
              "--vocab", os.path.join(trained, "vocab.txt"), "--prompt", "K", *flags])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err


# train with a missing corpus is test_train_missing_corpus_exit_2
BAD_RUN_INPUTS = [(command, case) for command in ("train", "eval")
                  for case in ("missing", "directory", "not-utf8", "empty", "short-split")
                  if (command, case) != ("train", "missing")]
OUT_CASES = ("out-is-a-file", "csv-is-a-directory")
BAD_RUN_INPUTS += [("train", "out-is-a-file"), ("bench", "out-is-a-file"),
                   ("bench", "csv-is-a-directory")]


@pytest.mark.parametrize("command,case", BAD_RUN_INPUTS, ids=[f"{c}-{k}" for c, k in BAD_RUN_INPUTS])
def test_bad_corpus_or_out_exits_2_with_one_line(trained, corpus_file, tmp_path, capsys,
                                                 command, case):
    corpus, out = tmp_path / "corpus.txt", tmp_path / "out"
    if case == "directory":
        corpus.mkdir()
    elif case not in ("missing", "csv-is-a-directory"):
        # 300 chars: a val split of 30 tokens, too short for block_size 32 (train) or 64 (eval)
        corpus.write_bytes({"not-utf8": b"ab\xff\n", "empty": b"",
                            "short-split": generate_corpus(300, seed=2)[:300].encode("utf-8"),
                            "out-is-a-file": open(corpus_file, "rb").read()}[case])
    if case == "out-is-a-file":
        out.write_text("not a directory\n")
    elif case == "csv-is-a-directory":
        (out / "bench.csv").mkdir(parents=True)
    args = {"train": ["--corpus", str(corpus), "--out", str(out), "--embed", "8", "--banks", "1",
                      "--max-iters", "2", "--block-size", "32", "--max-seq-len", "32"],
            "eval": ["--checkpoint", os.path.join(trained, "model_final.ckpt"),
                     "--vocab", os.path.join(trained, "vocab.txt"), "--corpus", str(corpus)],
            "bench": ["--lengths", "8", "--variants", "logmem", "--embed", "8", "--banks", "1",
                      "--mode", "parallel", "--out", str(out)]}[command]
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    _assert_one_error_line_in(err)
    assert str(out if case in OUT_CASES else corpus) in err
    assert not [p for p in tmp_path.rglob("*") if p.suffix in (".ckpt", ".csv") and p.is_file()]


ARTIFACT_INPUTS = [(command, case) for command in ("eval", "generate")
                   for case in ("checkpoint-directory", "checkpoint-missing", "checkpoint-omitted",
                                "vocab-omitted")]
ARTIFACT_INPUTS += [("eval", "corpus-outside-vocab"), ("eval", "corpus-uses-part-of-vocab")]


@pytest.mark.parametrize("command,case", ARTIFACT_INPUTS,
                         ids=[f"{c}-{k}" for c, k in ARTIFACT_INPUTS])
def test_checkpoint_vocab_and_eval_corpus_inputs(trained, corpus_file, tmp_path, capsys,
                                                 command, case):
    flags = {"checkpoint": os.path.join(trained, "model_final.ckpt"),
             "vocab": os.path.join(trained, "vocab.txt")}
    if case == "checkpoint-directory":
        flags["checkpoint"] = str(tmp_path)
    elif case == "checkpoint-missing":
        flags["checkpoint"] = str(tmp_path / "nope.ckpt")
    elif case.endswith("-omitted"):
        del flags[case.partition("-")[0]]
    # the corpus with every 'a' made '#', which the vocab lacks, or with its 4 '$' removed
    text = open(corpus_file, "rb").read().decode("utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes({"corpus-outside-vocab": text.replace("a", "#"),
                        "corpus-uses-part-of-vocab": text.replace("$", "")}.get(case, text)
                       .encode("utf-8"))
    args = [f"--{flag}={path}" for flag, path in flags.items()]
    args += {"eval": ["--corpus", str(corpus), "--seed", "3"],
             "generate": ["--prompt", "K", "--n-new", "5"]}[command]
    code = main([command, *args])
    captured = capsys.readouterr()
    if case == "corpus-uses-part-of-vocab":
        assert code == 0 and captured.err == ""
        losses = dict(kv.split("=") for kv in captured.out.splitlines()[-1].split())
        assert set(losses) == {"train_loss", "val_loss"}
        assert all(math.isfinite(float(v)) for v in losses.values())
        return
    _assert_one_error_line_in(captured.err)
    if case == "corpus-outside-vocab":
        assert code == 3
        assert f"corpus {corpus}: character '#' not in vocabulary" in captured.err
    elif case.endswith("-omitted"):
        assert code == 2
        assert captured.err == f"error: {command} requires --{case.partition('-')[0]}\n"
    else:
        assert code == 2
        assert f"cannot read checkpoint {flags['checkpoint']}" in captured.err


def test_eval_subcommand(trained, corpus_file, capsys):
    code = main(["eval", "--checkpoint", os.path.join(trained, "model_final.ckpt"),
                 "--vocab", os.path.join(trained, "vocab.txt"),
                 "--corpus", corpus_file, "--seed", "3"])
    assert code == 0
    assert "val_loss=" in capsys.readouterr().out


# model flags as train registers them; eval and verify never build a model from flags
MODEL_FLAGS = [["--variant", "expsum"], ["--embed", "64"], ["--banks", "1"], ["--expansion", "2"],
               ["--n-blocks", "2"], ["--max-seq-len", "64"], ["--mode", "sequential"]]


@pytest.mark.parametrize("flags", MODEL_FLAGS, ids=[f[0] for f in MODEL_FLAGS])
def test_eval_rejects_model_flags(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--checkpoint", "model.ckpt", "--corpus", "plays.txt", *flags])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", MODEL_FLAGS, ids=[f[0] for f in MODEL_FLAGS])
def test_verify_rejects_model_flags(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--quick", *flags])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


def test_verify_quick_exit_0():
    assert main(["verify", "--quick"]) == 0


def _newer_first_pair(self, a, b):
    y = matmul(concat([b, a], axis=-1), self.weight)  # newer first: wrong
    return add(y, self.bias) if self.bias is not None else y


def _newer_first_blocks(self, left, right):
    return self._condense_expand(concat([right, left], axis=-2))  # newer first: wrong


def _deepest_rows_valid(stop, n_levels, k=0, start=0):
    mask = lmn.memory.valid_mask(stop, n_levels, k, start)
    if k >= 1:
        mask[:, -1] = True  # a row of the deepest level, occupied at no t < 2^(S-1)
    return mask


def _unmasked_softmax(scores, valid):
    return softmax_last(scores)


# each fault sits in one layer, patched where the check reads it, and the
# check of that layer's property must report it by name
@pytest.mark.parametrize("targets,fault,check", [
    (["lmn.summarizers.LinearSummarizer.merge_pair"], _newer_first_pair, "memory-equivalence"),
    (["lmn.summarizers.ExpanderSummarizer.merge_blocks"], _newer_first_blocks, "memory-equivalence"),
    (["lmn.verify.valid_mask"], _deepest_rows_valid, "slot-counts"),
    (["lmn.attention.mask_softmax", "lmn.verify.mask_softmax"], _unmasked_softmax, "attention"),
], ids=["linear-merge-pair", "expander-merge-blocks", "valid-mask", "mask-softmax"])
def test_verify_detects_injected_fault(monkeypatch, capsys, targets, fault, check):
    for target in targets:
        monkeypatch.setattr(target, fault)
    assert main(["verify", "--quick"]) == 1
    assert f"[FAIL] {check}:" in capsys.readouterr().out


def _csv_rows(path):
    with open(path) as f:
        return [r for r in csv.DictReader(line for line in f if not line.startswith("#"))]


def test_bench_smoke(tmp_path, capsys):
    code = main(["bench", "--lengths", "8,16", "--variants", "logmem",
                 "--embed", "8", "--banks", "1", "--out", str(tmp_path),
                 "--mode", "parallel"])
    assert code == 0
    rows = _csv_rows(tmp_path / "bench.csv")
    assert [r["L"] for r in rows] == ["8", "16"]
    assert int(rows[0]["score_macs"]) == lmn_score_mac_closed_form(8, 8, 1)


def test_bench_train_mode_writes_a_train_row(tmp_path, capsys):
    code = main(["bench", "--lengths", "8", "--variants", "logmem", "--embed", "8",
                 "--banks", "1", "--out", str(tmp_path), "--mode", "train"])
    assert code == 0 and "modes=train" in capsys.readouterr().out
    rows = _csv_rows(tmp_path / "bench.csv")
    assert [(r["mode"], r["status"]) for r in rows] == [("train", "ok")]


def test_bench_keys_steer_the_sweep_and_model_keys_do_not(tmp_path, capsys):
    p = tmp_path / "cfg.txt"
    p.write_text("model.embed=64\nmodel.banks=2\nmodel.n_heads=2\nmodel.seed=7\n"
                 "bench.embed=8\nbench.banks=1\nbench.lengths=8\nbench.variants=logmem\n")
    assert main(["bench", "--config", str(p), "--out", str(tmp_path), "--mode", "parallel"]) == 0
    out = capsys.readouterr().out
    assert "model." not in out and "bench.seed=0" in out
    rows = _csv_rows(tmp_path / "bench.csv")
    assert len(rows) == 1 and int(rows[0]["score_macs"]) == lmn_score_mac_closed_form(8, 8, 1)


BAD_BENCH = [(["--lengths", "0"], "bench.lengths"), (["--lengths", "abc"], "'abc'"),
             (["--variants", "bogus"], "'bogus'"), ("bench.reps=2", "bench.reps"),
             ("bench.lengths=8,-4", "bench.lengths"), (["--seed", "-1"], "bench.seed")]


@pytest.mark.parametrize("bad,named", BAD_BENCH, ids=[str(b) for b, _ in BAD_BENCH])
def test_bad_bench_input_exits_2_before_writing(tmp_path, capsys, bad, named):
    p = tmp_path / "cfg.txt"  # a later line overrides an earlier one, as a flag overrides both
    p.write_text("bench.lengths=8\nbench.variants=logmem\n"
                 + (bad + "\n" if isinstance(bad, str) else ""))
    out = tmp_path / "out"
    code = main(["bench", "--config", str(p), "--mode", "parallel", "--out", str(out),
                 *([] if isinstance(bad, str) else bad)])
    assert code == 2
    err = capsys.readouterr().err
    _assert_one_error_line_in(err)
    assert named in err
    assert not os.path.exists(out / "bench.csv")


UNREAD_FLAGS = [("bench", ["--variant", "expsum"]), ("bench", ["--expansion", "2"]),
                ("bench", ["--n-blocks", "3"]), ("bench", ["--max-seq-len", "64"]),
                ("train", ["--score-orientation", "swapped"]), ("train", ["--mode", "sequential"])]


@pytest.mark.parametrize("command,flags", UNREAD_FLAGS,
                         ids=[f"{c} {f[0]}" for c, f in UNREAD_FLAGS])
def test_subcommand_rejects_flags_it_does_not_read(tmp_path, capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path), *flags])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


def _echoed_config(out):
    return [line for line in out.splitlines()
            if line.partition("=")[0].partition(".")[0] in ("model", "train", "bench")]


@pytest.mark.parametrize("command", ["train", "bench"])
def test_echoed_config_round_trips(tmp_path, corpus_file, capsys, command):
    run = {"train": ["--corpus", corpus_file, "--embed", "8", "--banks", "1", "--max-iters", "2",
                     "--block-size", "32", "--max-seq-len", "32", "--seed", "5"],
           "bench": ["--lengths", "8,16", "--variants", "logmem,expsum", "--embed", "8",
                     "--banks", "1", "--seed", "5", "--mode", "parallel"]}[command]
    assert main([command, "--out", str(tmp_path / "a"), *run]) == 0
    first = _echoed_config(capsys.readouterr().out)
    assert {"train": "train.learning_rate=0.001", "bench": "bench.lengths=8,16"}[command] in first
    p = tmp_path / "echo.cfg"
    p.write_text("\n".join(first) + "\n")
    rest = ["--corpus", corpus_file] if command == "train" else ["--mode", "parallel"]
    assert main([command, "--config", str(p), "--out", str(tmp_path / "b"), *rest]) == 0
    assert _echoed_config(capsys.readouterr().out) == first


def test_config_file_unknown_key_rejected(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("model.embed=16\nmodel.bogus=1\n")
    with pytest.raises(CliError):
        parse_config_file(p)


@pytest.mark.parametrize("line", ["model.summarizer=dscnv", "model.score_orientation=sideways",
                                  "model.score_orientation=literal",
                                  "model.summarizer_bias=flase", "model.tie_embeddings=true",
                                  "model.qkv_bias=True", "train.lr_schedule=constant",
                                  "model.embed=abc",
                                  "train.grad_clip=-1", "train.beta2=1.0", "train.beta1=2",
                                  "train.eps=-1", "train.weight_decay=-0.1",
                                  "model.n_heads=0", "model.n_heads=-4", "model.seed=-1",
                                  "train.seed=-1", "bench.reps=2", "bench.variants=bogus"])
def test_bad_config_value_exits_2_with_one_line(tmp_path, capsys, line):
    p = tmp_path / "cfg.txt"
    p.write_text(line + "\n")
    assert main(["verify", "--quick", "--config", str(p)]) == 2
    captured = capsys.readouterr()
    assert "ALL PASS" not in captured.out
    assert captured.err.startswith("error: ") and len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err


def test_train_divergence_exits_2_with_one_line(tmp_path, corpus_file, capsys):
    p = tmp_path / "cfg.txt"
    p.write_text("train.learning_rate=1e30\n")
    code = main(["train", "--config", str(p), "--corpus", corpus_file, "--out", str(tmp_path / "out"),
                 "--embed", "8", "--banks", "1", "--max-iters", "5", "--block-size", "32",
                 "--max-seq-len", "32", "--seed", "0"])
    assert code == 2
    err = capsys.readouterr().err
    _assert_one_error_line_in(err)
    # the norm of the step that blew the weights up, not 0 from cleared grads
    assert "non-finite loss" in err and "grad_norm=0)" not in err


@pytest.mark.parametrize("blocked", ["vocab.txt", "model_best.ckpt", "model_final.ckpt",
                                     "train_steps.csv"])
def test_unwritable_output_file_exits_2_with_one_line(tmp_path, corpus_file, capsys, blocked):
    # a directory where train writes one of its files
    out = tmp_path / "run"
    (out / blocked).mkdir(parents=True)
    code = main(["train", "--corpus", corpus_file, "--out", str(out), "--embed", "8",
                 "--banks", "1", "--max-iters", "2", "--block-size", "32", "--max-seq-len", "32"])
    assert code == 2
    err = capsys.readouterr().err
    _assert_one_error_line_in(err)
    assert f"cannot write {out / blocked}" in err


def test_corpus_main_unwritable_out_exits_2_with_one_line(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        corpus_main(["--out", str(tmp_path), "--chars", "100"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    _assert_one_error_line_in(err)
    assert f"cannot write {tmp_path}" in err


@pytest.mark.parametrize("flags,named", [(["--chars", "-5"], "--chars"), (["--chars", "0"], "--chars"),
                                         (["--seed", "-1"], "--seed")],
                         ids=["chars-negative", "chars-zero", "seed-negative"])
def test_corpus_main_bad_count_or_seed_exits_2_writing_nothing(tmp_path, capsys, flags, named):
    out = tmp_path / "c.txt"
    with pytest.raises(SystemExit) as exc:
        corpus_main(["--out", str(out), "--chars", "10", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    _assert_one_error_line_in(err)
    assert named in err
    assert not out.exists()


def test_train_model_too_large_to_allocate_exits_2(corpus_file, tmp_path, capsys):
    # the allocator refuses terabytes at once, so nothing is paged in
    out = tmp_path / "run"
    code = main(["train", "--corpus", corpus_file, "--out", str(out), "--embed", str(10**11),
                 "--banks", "1", "--max-iters", "1", "--block-size", "32", "--max-seq-len", "32"])
    assert code == 2
    err = capsys.readouterr().err
    _assert_one_error_line_in(err)
    assert "cannot allocate a model of" in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--embed", str(10**20)],
    ["--variant", "baseline-attn", "--max-seq-len", str(10**20)],
    ["--n-blocks", str(2**63)],
    ["--banks", str(2**63)],
    ["--variant", "expsum", "--expansion", str(2**63)],
], ids=["embed", "baseline-max-seq-len", "n-blocks", "banks", "expansion"])
def test_train_model_numpy_cannot_index_exits_2(corpus_file, tmp_path, capsys, flags):
    # sizes past what numpy can index are refused before any draw, and counted
    # without walking every block and bank
    out = tmp_path / "run"
    code = main(["train", "--corpus", corpus_file, "--out", str(out), "--max-iters", "1",
                 "--block-size", "32", *flags])
    assert code == 2
    err = capsys.readouterr().err
    _assert_one_error_line_in(err)
    assert re.fullmatch(r"error: cannot allocate a model of \d+ parameters\n", err), err
    assert not out.exists()


def test_bench_point_too_large_to_allocate_is_a_failed_row(tmp_path, capsys):
    # baseline-attn cannot build its [L, E] position table, logmem cannot draw its tokens
    huge = str(10**11)
    code = main(["bench", "--lengths", f"8,{huge}", "--variants", "baseline-attn,logmem",
                 "--embed", "8", "--banks", "1", "--mode", "parallel", "--out", str(tmp_path)])
    assert code == 0
    rows = _csv_rows(tmp_path / "bench.csv")
    assert [(r["variant"], r["L"], r["status"]) for r in rows] == [
        ("baseline-attn", "8", "ok"), ("baseline-attn", huge, "failed"),
        ("logmem", "8", "ok"), ("logmem", huge, "failed")]


@pytest.mark.parametrize("flags", [["--embed", str(10**20)], ["--banks", str(2**63)]],
                         ids=["embed", "banks"])
def test_bench_model_numpy_cannot_index_is_a_failed_row(tmp_path, capsys, flags):
    code = main(["bench", "--lengths", "8", "--variants", "logmem", "--out", str(tmp_path), *flags])
    assert code == 0
    rows = _csv_rows(tmp_path / "bench.csv")
    assert [(r["mode"], r["status"]) for r in rows] == [("parallel", "failed"), ("sequential", "failed")]


def test_bench_length_numpy_cannot_index_is_a_failed_row(tmp_path, capsys):
    # logmem builds its model but cannot draw the tokens; baseline-attn cannot
    # build its position table
    lengths = [str(2**63 - 1), str(10**20)]
    code = main(["bench", "--lengths", ",".join(lengths), "--variants", "logmem,baseline-attn",
                 "--embed", "8", "--banks", "1", "--out", str(tmp_path)])
    assert code == 0
    rows = _csv_rows(tmp_path / "bench.csv")
    assert [(r["variant"], r["L"], r["mode"], r["status"]) for r in rows] == [
        (variant, L, mode, "failed") for variant in ("logmem", "baseline-attn")
        for L in lengths for mode in ("parallel", "sequential")]


def test_readme_cli_table_lists_every_flag_the_parser_registers():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    header = "| command | sections it runs | flags |"
    rows = readme.partition(header)[2].split("\n\n")[0].splitlines()[2:]
    documented = {}
    for row in rows:
        command, _, flags = [cell.strip() for cell in row.strip("|").split("|")]
        documented[command.strip("`")] = set(flags.split("`")[1].split())
    subparsers = next(a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction))
    registered = {name: {s for a in p._actions for s in a.option_strings
                         if s.startswith("--") and s != "--help"}
                  for name, p in subparsers.choices.items()}
    assert documented == registered


def test_config_file_parsing_and_override(tmp_path, corpus_file, capsys):
    p = tmp_path / "cfg.txt"
    p.write_text("# comment\nmodel.variant=logmem\nmodel.embed=8\nmodel.banks=1\n"
                 "model.max_seq_len=32\ntrain.max_iters=5\ntrain.block_size=32\n"
                 "train.batch_size=2\n")
    code = main(["train", "--config", str(p), "--corpus", corpus_file,
                 "--out", str(tmp_path / "out"), "--max-iters", "2", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "train.max_iters=2" in out  # flag beats file
    assert "model.embed=8" in out
