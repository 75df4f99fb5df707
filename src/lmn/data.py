"""Char-level vocab, the encoded corpus and its splits, and batch sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Vocab:
    """Bijective char <-> id map: a character's id is its index in `chars`."""

    def __init__(self, chars: list[str]):
        if not chars:
            raise ValueError("empty vocabulary")
        if len(set(chars)) != len(chars):
            dup = next(c for i, c in enumerate(chars) if c in chars[:i])
            raise ValueError(f"character {dup!r} appears twice in the vocabulary")
        self.chars = list(chars)
        self.stoi = {c: i for i, c in enumerate(self.chars)}
        self.itos = {i: c for i, c in enumerate(self.chars)}

    def __len__(self):
        return len(self.chars)

    def encode(self, text: str) -> np.ndarray:
        try:
            return np.array([self.stoi[c] for c in text], dtype=np.int64)
        except KeyError as exc:
            raise KeyError(f"character {exc.args[0]!r} not in vocabulary") from None

    def decode(self, ids) -> str:
        return "".join(self.itos[int(i)] for i in ids)


def build_vocab(text: str) -> Vocab:
    """Distinct characters of the corpus, sorted by code point."""
    if not text:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    return Vocab(sorted(set(text)))


@dataclass
class Dataset:
    """Encoded corpus: the first 90% trains, the last 10% validates."""

    ids: np.ndarray
    vocab: Vocab

    def __post_init__(self):
        self.split_at = int(len(self.ids) * 0.9)

    @classmethod
    def from_text(cls, text: str, vocab: Vocab | None = None) -> "Dataset":
        """The text encoded with `vocab`, or with the vocabulary built from it
        if none; KeyError names a character outside `vocab`."""
        vocab = build_vocab(text) if vocab is None else vocab
        return cls(ids=vocab.encode(text), vocab=vocab)

    def split_ids(self, split: str) -> np.ndarray:
        if split == "train":
            return self.ids[: self.split_at]
        if split == "val":
            return self.ids[self.split_at:]
        raise ValueError(f"unknown split {split!r}")

    def check_block_size(self, block_size: int, splits=("train", "val")) -> None:
        """ValueError unless each split holds a block_size window and its
        one-token-shifted target."""
        for split in splits:
            n = len(self.split_ids(split))
            if n < block_size + 1:
                raise ValueError(
                    f"{split} split has {n} tokens, need at least block_size+1 = {block_size + 1}")


def sample_batch(ds: Dataset, split: str, batch_size: int, block_size: int,
                 rng: np.random.Generator):
    """Uniform random windows; targets are inputs shifted by one."""
    ds.check_block_size(block_size, (split,))
    ids = ds.split_ids(split)
    offsets = rng.integers(0, len(ids) - block_size, size=batch_size)
    x = np.stack([ids[o:o + block_size] for o in offsets])
    y = np.stack([ids[o + 1:o + block_size + 1] for o in offsets])
    return x, y
