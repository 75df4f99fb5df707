"""Vocab, dataset splits, batching, and the synthetic corpus."""

import numpy as np
import pytest

from lmn.corpus import VOCAB_65, generate_corpus
from lmn.cli import _read_text
from lmn.data import Dataset, Vocab, build_vocab, sample_batch
from lmn.tensor import make_rng


def test_build_vocab_example():
    v = build_vocab("abcab")
    assert len(v) == 3
    assert v.chars == ["a", "b", "c"]


def test_vocab_round_trip():
    s = "To be, or not to be?\nThat is the question."
    v = build_vocab(s)
    assert v.decode(v.encode(s)) == s


def test_vocab_rejects_unknown_char():
    v = build_vocab("abc")
    with pytest.raises(KeyError):
        v.encode("abz")


def test_empty_corpus_errors():
    with pytest.raises(ValueError):
        build_vocab("")


def test_corpus_has_the_65_char_vocabulary(corpus_text):
    v = build_vocab(corpus_text)
    assert len(v) == 65
    assert "".join(v.chars) == "".join(sorted(set(VOCAB_65)))


def test_corpus_generation_is_deterministic():
    a = generate_corpus(50_000, seed=42)
    b = generate_corpus(50_000, seed=42)
    assert a == b
    c = generate_corpus(50_000, seed=43)
    assert a != c


def test_vocab_sidecar_round_trip(tmp_path, corpus_text):
    # the sidecar format: the characters in id order as raw UTF-8, newline included
    v = build_vocab(corpus_text + "é\r")
    path = tmp_path / "vocab.txt"
    path.write_bytes("".join(v.chars).encode("utf-8"))
    assert Vocab(list(_read_text(path, "vocab sidecar"))).chars == v.chars


def test_dataset_split_no_overlap(dataset):
    train = dataset.split_ids("train")
    val = dataset.split_ids("val")
    assert len(train) + len(val) == len(dataset.ids)
    assert len(train) == int(0.9 * len(dataset.ids))


def test_sample_batch_shapes_and_shift(dataset):
    rng = make_rng(0)
    x, y = sample_batch(dataset, "train", 4, 32, rng)
    assert x.shape == (4, 32) and y.shape == (4, 32)
    train = dataset.split_ids("train")
    # find the offset of each row and confirm the one-step shift
    for b in range(4):
        assert np.array_equal(x[b, 1:], y[b, :-1])
        # locate row in the corpus to confirm target = next char
        matches = np.flatnonzero(np.all(
            np.lib.stride_tricks.sliding_window_view(train, 32) == x[b], axis=1))
        assert any(np.array_equal(train[m + 1:m + 33], y[b]) for m in matches)


def test_sample_batch_deterministic(dataset):
    x1, y1 = sample_batch(dataset, "val", 3, 16, make_rng(9))
    x2, y2 = sample_batch(dataset, "val", 3, 16, make_rng(9))
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_sample_batch_offsets_in_range():
    text = "abcdefghij" * 4
    ds = Dataset.from_text(text)
    rng = make_rng(1)
    for _ in range(50):
        x, y = sample_batch(ds, "train", 2, 8, rng)
        assert x.max() < len(ds.vocab)


def test_sample_batch_corpus_too_short():
    ds = Dataset.from_text("short text")
    with pytest.raises(ValueError):
        sample_batch(ds, "train", 1, 64, make_rng(0))


def test_load_corpus_round_trip(tmp_path):
    text = "newlines\nand spaces preserved,\r\nno newline translated\r"
    p = tmp_path / "c.txt"
    p.write_bytes(text.encode("utf-8"))
    assert _read_text(p, "corpus") == text


def test_dataset_from_text_with_a_given_vocab():
    v = build_vocab("abc$")
    ds = Dataset.from_text("cab", v)  # a text may use part of the vocabulary
    assert ds.vocab is v and ds.ids.tolist() == [3, 1, 2]  # ids by code point: $ a b c
    with pytest.raises(KeyError, match="'#' not in vocabulary"):
        Dataset.from_text("ab#", v)
