"""Property tests at the CLI boundary: whatever a config file, a checkpoint
or a vocab sidecar holds, reading it either succeeds or raises CliError
with exit code 2 (bad input) or 3 (artifact mismatch), never another
exception; whatever flags `lmn generate`, `train`, `eval` or `bench` is
given, it returns a documented exit code, and `train`, `eval` and `bench`
print one error line with it. Examples are derandomized and no example
database is kept, so every run draws the same cases and nothing is
written to the checkout."""

import contextlib
import io
import struct
import tempfile
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from lmn.cli import SECTIONS, CliError, _load_artifacts, build_configs, main
from lmn.model import ModelConfig, build_model, save_checkpoint

from test_model import resealed

# Hypothesis caches the constants it reads from local sources in its home
# directory, .hypothesis/ in the working directory unless told otherwise. Its
# pytest plugin reads them while collecting, so the home is set at import.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "lmn-hypothesis")

# no timing enters a verdict: a busy machine slows the examples, not the property
PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
DOCUMENTED = (2, 3)

KEYS = [f"{section}.{f.name}" for section, cls in SECTIONS.items() for f in fields(cls)]
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
               max_size=16)
VALUES = st.one_of(
    st.integers(-3, 10**30).map(str),
    st.floats().map(str),
    st.sampled_from(["True", "False", "true", "logmem", "tiny-logmem", "expsum", "baseline-attn",
                     "linear", "dsconv", "swapped", "8,16", "logmem,expsum", "", " 3 "]),
    TEXT,
)
LINES = st.one_of(
    st.tuples(st.sampled_from(KEYS), VALUES).map("=".join),
    st.tuples(TEXT, VALUES).map("=".join),
    TEXT,
)


def returns_or_exits_documented(call):
    try:
        call()
    except CliError as exc:
        assert exc.code in DOCUMENTED, exc


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small good checkpoint and its vocab; examples overwrite the copies."""
    root = tmp_path_factory.mktemp("boundary")
    good = root / "good.ckpt"
    save_checkpoint(good, build_model(ModelConfig(vocab_size=5, embed=4, banks=1, max_seq_len=16)))
    return SimpleNamespace(good=good, checkpoint=root / "fuzzed.ckpt",
                           vocab=root / "vocab.txt", config=root / "fuzzed.cfg")


@PROPERTY
@given(lines=st.lists(LINES, max_size=8))
def test_any_config_file_builds_or_exits_2(files, lines):
    files.config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = SimpleNamespace(config=str(files.config), sections=tuple(SECTIONS))
    returns_or_exits_documented(lambda: build_configs(args))


@PROPERTY
@given(raw=st.binary(max_size=64))
def test_any_config_bytes_build_or_exit_2(files, raw):
    files.config.write_bytes(raw)
    args = SimpleNamespace(config=str(files.config), sections=tuple(SECTIONS))
    returns_or_exits_documented(lambda: build_configs(args))


def _config_span(blob: bytes) -> tuple[int, int]:
    return 15, 15 + struct.unpack_from("<I", blob, 11)[0]


@st.composite
def damaged_checkpoints(draw, good: bytes):
    """The good checkpoint truncated, with bits flipped, with bytes
    overwritten, or with one config value replaced; half of them resealed
    with the CRC32 of their damaged bytes, so the damage reaches the checks
    behind the CRC's."""
    blob = draw(_damaged(good))
    return resealed(blob) if draw(st.booleans()) else blob


@st.composite
def _damaged(draw, good: bytes):
    lo, hi = _config_span(good)
    at = draw(st.one_of(st.integers(0, hi - 1), st.integers(0, len(good) - 1)))
    kind = draw(st.sampled_from(["truncate", "flip", "overwrite", "config-value"]))
    if kind == "truncate":
        return good[:at]
    if kind == "flip":
        blob = bytearray(good)
        for _ in range(draw(st.integers(1, 4))):
            blob[at] ^= 1 << draw(st.integers(0, 7))
            at = draw(st.integers(0, len(good) - 1))
        return bytes(blob)
    if kind == "overwrite":
        patch = draw(st.binary(min_size=1, max_size=16))
        return good[:at] + patch + good[at + len(patch):]
    key = draw(st.sampled_from([f.name for f in fields(ModelConfig)]))
    value = draw(VALUES)
    text = "".join(f"{key}={value}\n" if line.startswith(key + "=") else line + "\n"
                   for line in good[lo:hi].decode().splitlines()).encode()
    return good[:11] + struct.pack("<I", len(text)) + text + good[hi:]


@PROPERTY
@given(data=st.data())
def test_any_damaged_checkpoint_loads_or_exits_2(files, data):
    files.checkpoint.write_bytes(data.draw(damaged_checkpoints(files.good.read_bytes())))
    files.vocab.write_bytes(b"abcde")
    args = SimpleNamespace(checkpoint=str(files.checkpoint), vocab=str(files.vocab))
    returns_or_exits_documented(lambda: _load_artifacts(args))


@PROPERTY
@given(raw=st.binary(max_size=24))
def test_any_vocab_sidecar_loads_or_exits_2_or_3(files, raw):
    files.vocab.write_bytes(raw)
    args = SimpleNamespace(checkpoint=str(files.good), vocab=str(files.vocab))
    returns_or_exits_documented(lambda: _load_artifacts(args))


@PROPERTY
@given(vocab=st.sampled_from([b"abcde", b"abcd\n"]), n_new=st.integers(-2, 20),
       temperature=st.one_of(st.floats(), st.floats(-1e-300, 1e-300)),
       seed=st.integers(-2, 2**70), prompt=st.text(st.sampled_from("abcde\n#é"), max_size=6),
       argmax=st.booleans())
def test_any_generate_flags_exit_documented(files, vocab, n_new, temperature, seed, prompt,
                                            argmax):
    # temperatures of any float, inf and nan among them, and as often near
    # zero, subnormals included; the 16-position model ends each run by 16
    # steps, and a prompt with n_new past 16 exits 4
    files.vocab.write_bytes(vocab)
    argv = ["generate", f"--checkpoint={files.good}", f"--vocab={files.vocab}",
            f"--n-new={n_new}", f"--temperature={temperature!r}", f"--seed={seed}",
            f"--prompt={prompt}", *(["--argmax"] if argmax else [])]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own refusal of a flag
        assert exc.code == 2
    else:
        assert code in (0, 2, 3, 4)


# numbers a model could really be built with, or ones past what numpy can
# index: none in between, so no example allocates a large model
NUMBERS = st.one_of(st.integers(-2, 64), st.integers(2**63, 2**80)).map(str)
FLAG_VALUES = st.one_of(NUMBERS, st.sampled_from(["", "x", "1.5", "8,16", "True"]))
VARIANT_NAMES = st.sampled_from(["logmem", "tiny-logmem", "expsum", "baseline-attn", "swapped", ""])
MODEL_SIZES = ("embed", "banks", "expansion", "n-blocks", "max-seq-len")


def run_flags(argv):
    """main(argv) with its output captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own refusal of a flag
            code = exc.code
    return code, err.getvalue()


def assert_exits_documented(code, err):
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == (code != 0), err


def as_argv(flags: dict) -> list[str]:
    return [f"--{name}={value}" for name, value in flags.items()]


@pytest.fixture(scope="module")
def run_files(files):
    """A corpus long enough for any small block size, and a file where an
    output directory would go, so every run ends before training or timing."""
    corpus = files.good.parent / "corpus.txt"
    corpus.write_text("abcde fghij\n" * 600, encoding="utf-8")  # past the default block size
    blocked = files.good.parent / "blocked"
    blocked.write_text("")
    return SimpleNamespace(corpus=corpus, blocked=blocked)


@PROPERTY
@given(flags=st.fixed_dictionaries({}, optional={
    "variant": VARIANT_NAMES, **{name: NUMBERS for name in MODEL_SIZES},
    "seed": FLAG_VALUES, "max-iters": FLAG_VALUES, "block-size": FLAG_VALUES}))
def test_any_train_flags_exit_documented(run_files, flags):
    assert_exits_documented(*run_flags(["train", f"--corpus={run_files.corpus}",
                                        f"--out={run_files.blocked}", *as_argv(flags)]))


@PROPERTY
@given(flags=st.fixed_dictionaries({}, optional={
    "seed": FLAG_VALUES, "block-size": FLAG_VALUES,
    "vocab": st.sampled_from(["vocab.txt", "missing.txt"]),
    "corpus": st.sampled_from(["corpus.txt", "missing.txt"])}))
def test_any_eval_flags_exit_documented(run_files, flags):
    for name in ("vocab", "corpus"):
        if name in flags:
            flags[name] = run_files.corpus.parent / flags[name]
    assert_exits_documented(*run_flags(["eval", *as_argv(flags)]))


@PROPERTY
@given(flags=st.fixed_dictionaries({}, optional={
    "lengths": st.lists(NUMBERS, min_size=1, max_size=3).map(",".join) | FLAG_VALUES,
    "variants": st.lists(VARIANT_NAMES, min_size=1, max_size=3).map(",".join),
    "embed": NUMBERS, "banks": NUMBERS, "seed": FLAG_VALUES,
    "mode": st.sampled_from(["parallel", "sequential", "stepped"])}))
def test_any_bench_flags_exit_documented(run_files, flags):
    assert_exits_documented(*run_flags(["bench", f"--out={run_files.blocked}", *as_argv(flags)]))
