"""CLI contracts: subcommands, config handling, exit codes, artifacts."""

import os

import numpy as np
import pytest

from lmn.cli import main, parse_config_file, CliError
from lmn.corpus import generate_corpus


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


def test_train_smoke_writes_artifacts(trained):
    for name in ("model_final.ckpt", "model_best.ckpt", "vocab.txt", "train_report.csv"):
        assert os.path.exists(os.path.join(trained, name)), name


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
    assert "é" in capsys.readouterr().err


def test_generate_beyond_capacity_exit_4(trained):
    code = main(["generate", "--checkpoint", os.path.join(trained, "model_final.ckpt"),
                 "--vocab", os.path.join(trained, "vocab.txt"),
                 "--prompt", "K", "--n-new", "100"])  # capacity 64
    assert code == 4


def test_eval_subcommand(trained, corpus_file, capsys):
    code = main(["eval", "--checkpoint", os.path.join(trained, "model_final.ckpt"),
                 "--vocab", os.path.join(trained, "vocab.txt"),
                 "--corpus", corpus_file, "--seed", "3"])
    assert code == 0
    assert "val_loss=" in capsys.readouterr().out


def test_verify_quick_exit_0():
    assert main(["verify", "--quick"]) == 0


def test_verify_detects_injected_fault(monkeypatch, capsys):
    # flip the concatenation order in the sequential merge only: the
    # parallel/sequential equivalence checks must catch it
    from lmn.summarizers import LinearSummarizer
    from lmn.tensor import concat, matmul, add

    def flipped_pair(self, a, b):
        y = matmul(concat([b, a], axis=-1), self.weight)  # newer first: wrong
        return add(y, self.bias) if self.bias is not None else y

    monkeypatch.setattr(LinearSummarizer, "merge_pair", flipped_pair)
    assert main(["verify", "--quick"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_bench_smoke(tmp_path, capsys):
    code = main(["bench", "--lengths", "8,16", "--variants", "logmem",
                 "--embed", "8", "--banks", "1", "--out", str(tmp_path),
                 "--mode", "parallel"])
    assert code == 0
    assert os.path.exists(tmp_path / "bench.csv")


def test_config_file_unknown_key_rejected(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("model.embed=16\nmodel.bogus=1\n")
    with pytest.raises(CliError):
        parse_config_file(p)


@pytest.mark.parametrize("line", ["model.summarizer=dscnv", "model.score_orientation=sideways",
                                  "model.summarizer_bias=flase", "model.embed=abc"])
def test_bad_config_value_exits_2_with_one_line(tmp_path, capsys, line):
    p = tmp_path / "cfg.txt"
    p.write_text(line + "\n")
    assert main(["verify", "--quick", "--config", str(p)]) == 2
    captured = capsys.readouterr()
    assert "ALL PASS" not in captured.out
    assert captured.err.startswith("error: ") and len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err


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
