"""Property tests at the CLI boundary: whatever a config file, a checkpoint
or a vocab sidecar holds, reading it either succeeds or raises CliError
with exit code 2 (bad input) or 3 (artifact mismatch), never another
exception; whatever flags `lmn generate` is given, it returns a documented
exit code. Examples are derandomized and no example database is kept, so
every run draws the same cases and nothing is written to the checkout."""

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
    overwritten, or with one config value replaced."""
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
