"""Full networks: LogMem, TinyLogMem, ExpSum, and a causal-attention baseline.

All variants share the block skeleton (pre-norm attention + residual,
pre-norm feed-forward + residual, final norm, unembed). LMN variants build
one tree memory per block, shared by its banks, and apply single-vector
attention over memory levels; no positional table exists, position is
carried by each token's merge path. The baseline is a standard decoder
with a learned positional embedding and causal self-attention. One
``forward`` serves both: sequential mode steps each stream through
``step``, and parallel mode runs one tile loop for both families: each
block builds its whole-sequence state (an LMN block's one row table,
``memory.build_pyramid``; a baseline block's keys and values), then reads
it, attends and runs the residual branches in tiles of ``_tile_length``
positions (tree: at most ``TILE_ROWS`` memory rows, of the levels the tile
occupies; baseline: ``QUERY_TILE`` queries), the last block unembedding
tile by tile. A step runs the same per-tile tail on its slot state or KV
cache (``LmnBlock._read``, ``BaselineBlock.attention``).
"""

from __future__ import annotations

import itertools
import math
import struct
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .attention import attend, multi_bank_combine
from .counters import COUNTER
from .memory import (
    CapacityError,
    SlotState,
    build_pyramid,
    gather_memory,
    levels_for,
    slot_widths,
    snapshot,
    push_token,
)
from .summarizers import (
    DsConvSummarizer,
    ExpanderSummarizer,
    LinearSummarizer,
    parallel_expanded_memory,
    push_token_expanded,
    snapshot_expanded,
)
from .tensor import (
    ContractError,
    Tensor,
    add,
    check_indexable,
    concat,
    cross_entropy,
    embedding,
    gelu,
    layer_norm,
    make_rng,
    masked_fill,
    matmul,
    narrow,
    no_grad,
    records_grad,
    reshape,
    scale,
    softmax_last,
    transpose,
)

VARIANTS = ("logmem", "tiny-logmem", "expsum", "baseline-attn")
MODES = ("parallel", "sequential")
SUMMARIZERS = ("linear", "dsconv")
CKPT_MAGIC = b"LMNCKPT"
CKPT_VERSION = 2  # version 1 has no CRC32 trailer; it still loads

# Memory rows one tile of one sequence of an LMN parallel forward may hold:
# a block's tile is the largest power of two T with T * banks * D <= TILE_ROWS
# at the input's S = levels_for(L), so tiles start at multiples of T. Rows a
# position, and T: logmem (2 banks) 18-30, 1024 for L = 256..16384; expsum
# (k=1) 37, 512 at L = 256 (one tile), and 79, 256 at L = 3000. Measured at
# one block, E=32, B=1, one BLAS thread (2-CPU x86): 1024 positions gave
# logmem's fastest forward; expsum's peak at L = 4096 fell 16.8 -> 7.4 MB.
TILE_ROWS = 1 << 15
# Query rows per tile of the baseline's parallel forward, each row scored
# against all L keys. Measured as TILE_ROWS was: 72 ms and 9.2 MB at L = 3000
# (1024 rows: 59 ms, 29.7 MB; untiled: 78 ms, 82.9 MB) and 1.74 s at
# L = 16384 (1024 rows: 2.59 s).
QUERY_TILE = 256


@dataclass
class ModelConfig:
    """What a model is. The rest is fixed, as in the paper: an untied
    unembedding, a biased qkv projection in LMN blocks whose attention scores
    each memory level's query against the current token's key, and a
    feed-forward E -> 4E -> E (tiny-logmem: one shared [E, E] map)."""

    variant: str = "logmem"
    vocab_size: int = 65
    embed: int = 32
    max_seq_len: int = 256
    banks: int = 2                      # expsum always has one
    expansion: int = 1                  # expsum's extra rows per level
    n_blocks: int = 1
    n_heads: int = 4                    # baseline-attn's heads
    seed: int = 0
    summarizer: str = "linear"          # one of SUMMARIZERS (bank summarizer form)
    summarizer_bias: bool = True

    def __post_init__(self):
        for name, allowed in (("variant", VARIANTS), ("summarizer", SUMMARIZERS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}, expected one of {allowed}")
        for name in ("vocab_size", "embed", "max_seq_len", "banks", "expansion", "n_blocks", "n_heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.variant == "expsum":
            self.banks = 1
        if self.variant == "baseline-attn" and self.embed % self.n_heads != 0:
            raise ValueError(f"embed {self.embed} not divisible by n_heads {self.n_heads}")

    @property
    def n_levels(self) -> int:
        return levels_for(self.max_seq_len)


# ---------------------------------------------------------------------------
# Parameter schema: single source of truth for init, counting and checkpoints.
# ---------------------------------------------------------------------------

def param_schema(cfg: ModelConfig):
    """(name, shape, init kind, fan_in) for every learnable tensor, in order.

    Yielded one at a time, so a caller can stop early: load_checkpoint
    reads no more of a config's schema than its file can hold.
    """
    e, v = cfg.embed, cfg.vocab_size
    yield "embed.weight", (v, e), "uniform", e
    if cfg.variant == "baseline-attn":
        yield "pos.weight", (cfg.max_seq_len, e), "uniform", e
    for i in range(cfg.n_blocks):
        p = f"block{i}"
        yield f"{p}.ln1.gain", (e,), "ones", 0
        yield f"{p}.ln1.bias", (e,), "zeros", 0
        yield f"{p}.qkv.weight", (e, 3 * e), "uniform", e
        if cfg.variant != "baseline-attn":
            yield f"{p}.qkv.bias", (3 * e,), "uniform", e
        yield f"{p}.attn_out.weight", (e, e), "uniform", e
        yield f"{p}.attn_out.bias", (e,), "uniform", e
        yield f"{p}.ln2.gain", (e,), "ones", 0
        yield f"{p}.ln2.bias", (e,), "zeros", 0
        if cfg.variant == "tiny-logmem":
            # one [E, E] map applied to both feed-forward layers (shared weights)
            yield f"{p}.ffn.weight", (e, e), "uniform", e
            yield f"{p}.ffn.bias", (e,), "uniform", e
        else:
            yield f"{p}.ffn.w1", (e, 4 * e), "uniform", e
            yield f"{p}.ffn.b1", (4 * e,), "uniform", e
            yield f"{p}.ffn.w2", (4 * e, e), "uniform", 4 * e
            yield f"{p}.ffn.b2", (e,), "uniform", 4 * e
        if cfg.variant in ("logmem", "tiny-logmem"):
            for j in range(cfg.banks):
                b = f"{p}.bank{j}"
                if cfg.summarizer == "linear":
                    yield f"{b}.weight", (2 * e, e), "uniform", 2 * e
                    if cfg.summarizer_bias:
                        yield f"{b}.bias", (e,), "uniform", 2 * e
                else:
                    yield f"{b}.depthwise", (e, 2), "uniform", 2
                    yield f"{b}.pointwise", (e, e), "uniform", e
                    if cfg.summarizer_bias:
                        yield f"{b}.bias", (e,), "uniform", e
        elif cfg.variant == "expsum":
            b = f"{p}.bank0"
            yield f"{b}.conv", (2, e, e), "uniform", 2 * e
            yield f"{b}.expand", (cfg.expansion + 1, e, e), "uniform", e
    yield "final.ln.gain", (e,), "ones", 0
    yield "final.ln.bias", (e,), "zeros", 0
    yield "unembed.weight", (e, v), "uniform", e
    yield "unembed.bias", (v,), "uniform", e


def param_count(cfg: ModelConfig) -> int:
    """Exact number of learnable scalars for a config. Every block holds the
    same tensors and every bank of a block too, so the count is read off the
    schemas of three configs of at most two blocks or banks: a config of any
    size is counted at once."""
    def count(n_blocks: int, banks: int) -> int:
        small = replace(cfg, n_blocks=n_blocks, banks=banks)
        return sum(math.prod(shape) for _, shape, _, _ in param_schema(small))

    one = count(1, 1)
    per_block, per_bank = count(2, 1) - one, count(1, 2) - one
    return one + (cfg.n_blocks - 1) * per_block + cfg.n_blocks * (cfg.banks - 1) * per_bank


def init_params(cfg: ModelConfig, dtype=np.float32) -> dict:
    """Seeded parameter tensors; drawn in float32 then cast, so a float64
    model carries exactly the float32 values. A model too large for numpy
    to index raises MemoryError before any draw, as one too large for the
    machine's memory does at its draw."""
    check_indexable(param_count(cfg), 8, "model parameters")  # the draws are float64
    rng = make_rng(cfg.seed)
    params = {}
    for name, shape, kind, fan_in in param_schema(cfg):
        if kind == "uniform":
            bound = 1.0 / np.sqrt(fan_in)
            data = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        elif kind == "ones":
            data = np.ones(shape, dtype=np.float32)
        else:
            data = np.zeros(shape, dtype=np.float32)
        params[name] = Tensor(data.astype(dtype), requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------

class _FeedForward:
    """E -> 4E -> E with a GELU; tiny-logmem's reduced form binds both layers
    to its one shared [E, E] map."""

    def __init__(self, params: dict, prefix: str):
        if f"{prefix}.ffn.weight" in params:
            self.w1 = self.w2 = params[f"{prefix}.ffn.weight"]
            self.b1 = self.b2 = params[f"{prefix}.ffn.bias"]
        else:
            self.w1 = params[f"{prefix}.ffn.w1"]
            self.b1 = params[f"{prefix}.ffn.b1"]
            self.w2 = params[f"{prefix}.ffn.w2"]
            self.b2 = params[f"{prefix}.ffn.b2"]

    def __call__(self, x: Tensor) -> Tensor:
        h = gelu(add(matmul(x, self.w1), self.b1))
        return add(matmul(h, self.w2), self.b2)


def _make_summarizer(cfg: ModelConfig, params: dict, prefix: str):
    if cfg.variant == "expsum":
        return ExpanderSummarizer(params[f"{prefix}.conv"], params[f"{prefix}.expand"], cfg.expansion)
    if cfg.summarizer == "linear":
        return LinearSummarizer(params[f"{prefix}.weight"],
                                params.get(f"{prefix}.bias"))
    return DsConvSummarizer(params[f"{prefix}.depthwise"], params[f"{prefix}.pointwise"],
                            params.get(f"{prefix}.bias"))


class _Block:
    """What both block families share: the two pre-norms, the qkv weight,
    the output projection and the feed-forward branch."""

    def __init__(self, cfg: ModelConfig, params: dict, index: int):
        p = f"block{index}"
        self.cfg = cfg
        self.ln1 = (params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])
        self.qkv_w = params[f"{p}.qkv.weight"]
        self.out_w = params[f"{p}.attn_out.weight"]
        self.out_b = params[f"{p}.attn_out.bias"]
        self.ln2 = (params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"])
        self.ffn = _FeedForward(params, p)

    def _residuals(self, x: Tensor, values: Tensor) -> Tensor:
        """Out-projection residual, then the feed-forward residual."""
        x = add(x, add(matmul(values, self.out_w), self.out_b))
        return add(x, self.ffn(layer_norm(x, *self.ln2)))


class LmnBlock(_Block):
    def __init__(self, cfg: ModelConfig, params: dict, index: int):
        super().__init__(cfg, params, index)
        p = f"block{index}"
        self.qkv_b = params[f"{p}.qkv.bias"]
        self.summarizers = [_make_summarizer(cfg, params, f"{p}.bank{j}") for j in range(cfg.banks)]

    def fresh_state(self) -> SlotState:
        """The one slot state of the block's banks, at the model's dtype."""
        return SlotState.fresh(self.cfg.n_levels, self.summarizers[0].k, len(self.summarizers),
                               self.cfg.embed, self.qkv_w.dtype)

    def _tree(self):
        """The tree's entry points (range read, snapshot, push), or the
        expander's named delegations to them, under which the benchmark
        traces expander time. Looked up in the module's globals at each
        call, so a wrapper installed after the model was built is the one called."""
        if self.cfg.variant == "expsum":
            return parallel_expanded_memory, snapshot_expanded, push_token_expanded
        return gather_memory, snapshot, push_token

    def step(self, x: Tensor, state: SlotState) -> Tensor:
        """One position: x [1, 1, E]; snapshots, attends, then pushes (inference-only)."""
        _, take, push = self._tree()
        n = layer_norm(x, *self.ln1)
        n_flat = reshape(n, (1, self.cfg.embed))
        x = self._read(x, n, take(state, n_flat))
        push(state, n_flat, self.summarizers)
        return x

    def _read(self, x: Tensor, n: Tensor, mem) -> Tensor:
        """The tail both modes share: combine the banks, attend with the
        layer-normed input n as the current tokens, then the residuals."""
        values, _ = attend(multi_bank_combine(mem), n, self.qkv_w, self.qkv_b)
        return self._residuals(x, values)

    def _tile_length(self, L: int) -> int:
        rows = len(self.summarizers) * (1 + sum(slot_widths(levels_for(L), self.summarizers[0].k)))
        return 1 << max(0, (TILE_ROWS // rows).bit_length() - 1)  # a power of two, at least 1

    def _whole(self, n: Tensor):
        return build_pyramid(n, self.summarizers)

    def _tile(self, x: Tensor, n: Tensor, table, start: int) -> Tensor:
        # the memory lives only inside the call, so one tile's is freed before the next's
        return self._read(x, n, self._tree()[0](table, start, start + x.shape[1]))


class BaselineBlock(_Block):
    def attention(self, q: Tensor, k: Tensor, v: Tensor, t: int = 0):
        """Causal multi-head attention of queries q [B, L, E] at positions
        t..t+L-1 over key and value rows 0..T-1 (k, v [B, T, E]); returns (values, weights)."""
        b, L, e = q.shape
        T = k.shape[1]
        h = self.cfg.n_heads
        d = e // h
        q = transpose(reshape(q, (b, L, h, d)), (0, 2, 1, 3))
        kt = transpose(reshape(k, (b, T, h, d)), (0, 2, 3, 1))  # [b, h, d, T]
        v = transpose(reshape(v, (b, T, h, d)), (0, 2, 1, 3))
        att = scale(matmul(q, kt), 1.0 / np.sqrt(d))
        if T > t + 1:  # a lone newest query sees every row: skip the mask's cost per step
            att = masked_fill(att, np.arange(T) > np.arange(t, t + L)[:, None], -np.inf)
        att = softmax_last(att)
        COUNTER.score_macs += e * (L * t + L * (L + 1) // 2)  # per batch item, causal terms only
        y = matmul(att, v)
        return reshape(transpose(y, (0, 2, 1, 3)), (b, L, e)), att

    def _tile_length(self, L: int) -> int:
        return QUERY_TILE

    def _whole(self, n: Tensor):
        e = self.cfg.embed
        kv = matmul(n, narrow(self.qkv_w, 1, e, 2 * e))
        return narrow(self.qkv_w, 1, 0, e), narrow(kv, 2, 0, e), narrow(kv, 2, e, e)

    def _tile(self, x: Tensor, n: Tensor, whole, start: int) -> Tensor:
        w_q, k, v = whole
        return self._residuals(x, self.attention(matmul(n, w_q), k, v, start)[0])

    def step(self, x: Tensor, K: Tensor, V: Tensor, t: int) -> Tensor:
        """Position t: x [1, 1, E]; caches its key and value in row t of one
        stream's [max_seq_len, E] buffers, which keep no tape, then attends."""
        e = self.cfg.embed
        qkv = matmul(layer_norm(x, *self.ln1), self.qkv_w)
        K.data[t], V.data[t] = qkv.data[0, 0, e:2 * e], qkv.data[0, 0, 2 * e:]
        k, v = Tensor(K.data[None, :t + 1]), Tensor(V.data[None, :t + 1])  # views, zero-copy
        return self._residuals(x, self.attention(narrow(qkv, 2, 0, e), k, v, t)[0])


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

class _ModelBase:
    def __init__(self, cfg: ModelConfig, params: dict):
        self.config = cfg
        self.params = params
        self.embed_w = params["embed.weight"]
        self.final_ln = (params["final.ln.gain"], params["final.ln.bias"])
        self.unembed = (params["unembed.weight"], params["unembed.bias"])

    def _unembed(self, x: Tensor) -> Tensor:
        w, b = self.unembed
        return add(matmul(layer_norm(x, *self.final_ln), w), b)

    def _parallel(self, tokens: np.ndarray) -> Tensor:
        """Each block builds its whole-sequence state from its layer-normed
        input (``_whole``) and runs the rest in tiles of ``_tile_length``
        (``_tile``). A block before the last joins its tiles, since the next
        block's state needs the whole sequence; the last unembeds each tile
        before joining them. A sequence of at most one tile runs untouched."""
        x = self._embed(tokens, 0)
        L = x.shape[1]

        def tile(a: Tensor, start: int, stop: int) -> Tensor:
            return a if stop - start == L else narrow(a, 1, start, stop - start)

        for blk in self.blocks:
            n = layer_norm(x, *blk.ln1)
            whole = blk._whole(n)
            size = blk._tile_length(L)
            outs = []
            for start in range(0, L, size):
                stop = min(start + size, L)
                y = blk._tile(tile(x, start, stop), tile(n, start, stop), whole, start)
                outs.append(self._unembed(y) if blk is self.blocks[-1] else y)
            x = outs[0] if len(outs) == 1 else concat(outs, axis=1)
        return x

    def forward(self, tokens: np.ndarray, mode: str = "parallel") -> Tensor:
        """Logits [B, L, V] for token ids [B, L]. Sequential mode steps each
        stream from a fresh state through ``step`` (inference-only)."""
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be [B, L], got shape {tokens.shape}")
        if tokens.shape[1] == 0:
            raise ValueError(f"tokens must hold at least one position, got length 0 (shape {tokens.shape})")
        self._check_length(tokens.shape[1])
        if mode == "sequential":
            logits = []
            for stream in tokens:
                state = self.start_state()
                logits.append([self.step(state, int(tok)).data for tok in stream])
            return Tensor(np.array(logits).reshape(*tokens.shape, self.config.vocab_size))
        return self._parallel(tokens)

    def _step_input(self, t: int, token: int) -> Tensor:
        """The embedded token at position t: the input of one ``step``."""
        self._check_length(t + 1)
        x = self._embed(np.array([[token]], dtype=np.int64), t)
        if records_grad(x):
            raise ContractError("step is inference-only: its recurrent state keeps no tape "
                                "and would cut the gradient; run it under no_grad()")
        return x

    def _check_length(self, L: int) -> None:
        """Both modes hold at most max_seq_len positions."""
        if L > self.config.max_seq_len:
            raise CapacityError(f"sequence length {L} exceeds max_seq_len {self.config.max_seq_len}")

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


class LmnModel(_ModelBase):
    def __init__(self, cfg: ModelConfig, params: dict):
        super().__init__(cfg, params)
        self.blocks = [LmnBlock(cfg, params, i) for i in range(cfg.n_blocks)]

    def _embed(self, tokens: np.ndarray, t: int) -> Tensor:
        return embedding(self.embed_w, tokens)  # no positional table: path-through encoding

    def start_state(self):
        return [blk.fresh_state() for blk in self.blocks]

    def step(self, state, token: int) -> Tensor:
        """Next-token logits [V] after one token, from the slot state (inference-only)."""
        x = self._step_input(state[0].consumed, token)
        for blk, st in zip(self.blocks, state):
            x = blk.step(x, st)
        return reshape(self._unembed(x), (self.config.vocab_size,))


class _BaselineState:
    """KV cache per block in the model's dtype: preallocated buffers mutated
    in place (inference-only, exempt from the immutable-after-recording rule)."""

    def __init__(self, cfg: ModelConfig, dtype):
        e = cfg.embed
        self.t = 0
        self.k = [Tensor(np.zeros((cfg.max_seq_len, e), dtype=dtype))
                  for _ in range(cfg.n_blocks)]
        self.v = [Tensor(np.zeros((cfg.max_seq_len, e), dtype=dtype))
                  for _ in range(cfg.n_blocks)]


class BaselineModel(_ModelBase):
    def __init__(self, cfg: ModelConfig, params: dict):
        super().__init__(cfg, params)
        self.pos_w = params["pos.weight"]
        self.blocks = [BaselineBlock(cfg, params, i) for i in range(cfg.n_blocks)]

    def _embed(self, tokens: np.ndarray, t: int) -> Tensor:
        return add(embedding(self.embed_w, tokens), narrow(self.pos_w, 0, t, tokens.shape[1]))

    def start_state(self):
        return _BaselineState(self.config, self.embed_w.dtype)

    def step(self, state: _BaselineState, token: int) -> Tensor:
        """Next-token logits [V] after one token, from the KV cache (inference-only)."""
        t = state.t
        x = self._step_input(t, token)
        for blk, K, V in zip(self.blocks, state.k, state.v):
            x = blk.step(x, K, V, t)
        state.t += 1
        return reshape(self._unembed(x), (self.config.vocab_size,))


def build_model(cfg: ModelConfig, dtype=np.float32):
    params = init_params(cfg, dtype)
    if cfg.variant == "baseline-attn":
        return BaselineModel(cfg, params)
    return LmnModel(cfg, params)


def loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean next-token cross-entropy over all positions."""
    return cross_entropy(logits, targets)


def generate(model, prompt, n_new: int, temperature: float = 1.0, rng=None,
             argmax: bool = False) -> np.ndarray:
    """Sample n_new tokens after the prompt using sequential mode only.

    The slot state (or KV cache) is the entire recurrent state; per-step
    memory does not grow with the generated length until capacity.
    """
    if not argmax and temperature <= 0:
        raise ValueError("temperature must be positive (use argmax for the T->0 limit)")
    if not argmax and rng is None:
        raise ValueError("sampling requires an rng")
    prompt = [int(t) for t in prompt]
    if not prompt:
        raise ValueError("prompt must contain at least one token")
    out = list(prompt)
    state = model.start_state()
    with no_grad():
        for tok in prompt:
            logits = model.step(state, tok)
        for i in range(n_new):
            z = logits.data.astype(np.float64)
            if argmax:
                nxt = int(np.argmax(z))
            else:
                # the max first: at a tiny temperature the rest overflow to -inf, not inf - inf
                with np.errstate(over="ignore"):
                    z = (z - z.max()) / temperature
                p = np.exp(z)
                p /= p.sum()
                nxt = int(rng.choice(len(p), p=p))
            out.append(nxt)
            if i + 1 < n_new:
                logits = model.step(state, nxt)
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# Checkpoints: magic, version, config text, raw named tensors, then a CRC32
# of everything before it; every output file is written through write_file.
# ---------------------------------------------------------------------------

_SCALARS = {"int": int, "float": float, "str": str}


def _parse_value(kind: str, text: str):
    if kind == "bool":
        if text not in ("True", "False"):
            raise ValueError(text)
        return text == "True"
    if kind.startswith("tuple["):  # comma-separated, e.g. tuple[int, ...]
        item = _SCALARS[kind[len("tuple["):kind.index(",")]]
        return tuple(item(x) for x in text.split(","))
    return _SCALARS[kind](text)


def config_kwargs(cls, pairs, prefix: str = "") -> dict:
    """Keyword arguments for the config dataclass ``cls`` from (name, text)
    pairs, each value typed by its field: int, float, str, a bool spelled
    True/False, or a comma-separated tuple, the spellings config_to_text
    writes. Errors name the value and the key (``prefix`` + name)."""
    kinds = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for name, text in pairs:
        if name not in kinds:
            raise ValueError(f"unknown config key {prefix + name!r}")
        try:
            kwargs[name] = _parse_value(kinds[name], text)
        except ValueError:
            raise ValueError(f"bad {kinds[name]} {text!r} for config key {prefix + name!r}") from None
    return kwargs


def config_to_text(cfg, prefix: str = "") -> str:
    def text(value):
        return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    return "".join(f"{prefix}{f.name}={text(getattr(cfg, f.name))}\n" for f in fields(cfg))


# Model keys that checkpoints written before they were fixed still carry. They
# are dropped: a checkpoint that a non-default value shaped fails the tensor
# schema check (a tied one lacks unembed.weight, one without a qkv bias lacks
# block*.qkv.bias, a logmem one with ffn_mult=1 holds block*.ffn.weight).
# score_orientation is the exception: a swapped checkpoint has the literal
# one's tensors, so config_from_text refuses any value but literal itself.
_RETIRED_KEYS = ("ffn_mult", "qkv_bias", "tie_embeddings", "score_orientation")


def config_from_text(text: str) -> ModelConfig:
    pairs = [line.partition("=")[::2] for line in text.splitlines() if line.strip()]
    for name, value in pairs:
        if name == "score_orientation" and value != "literal":
            raise ValueError(f"config key 'score_orientation' is {value!r}; only 'literal' exists")
    return ModelConfig(**config_kwargs(ModelConfig, [kv for kv in pairs if kv[0] not in _RETIRED_KEYS]))


class OutputError(RuntimeError):
    """An output file could not be written."""


def write_file(path, data: bytes) -> None:
    """Write one output file: a checkpoint, a training or bench CSV, the
    vocab sidecar or a generated corpus. A path that cannot be written (a
    directory, no permission, a full disk) raises OutputError naming it."""
    try:
        with open(path, "wb") as f:
            f.write(data)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror}") from None


def save_checkpoint(path, model) -> None:
    """Binary format: magic, u32 version, u32-length config text, then per
    tensor: u32 name length, name, u32 rank, u32 extents, little-endian
    float32 data; last, the u32 ``zlib.crc32`` of every byte before it.
    Round-trips bit-exactly."""
    cfg_text = config_to_text(model.config).encode("utf-8")
    parts = [CKPT_MAGIC, struct.pack("<II", CKPT_VERSION, len(cfg_text)), cfg_text]
    for name, p in model.params.items():
        nb = name.encode("utf-8")
        parts += [struct.pack("<I", len(nb)), nb,
                  struct.pack(f"<I{p.data.ndim}I", p.data.ndim, *p.data.shape),
                  np.ascontiguousarray(p.data, dtype="<f4").tobytes()]
    body = b"".join(parts)
    write_file(path, body + struct.pack("<I", zlib.crc32(body)))


def load_checkpoint(path):
    """Read a save_checkpoint file back into a model.

    A version-2 file whose CRC32 does not match its bytes raises
    ValueError naming the file; a version-1 file, written before the CRC,
    has none to check. Every length is checked against the bytes left in
    the file before it sizes a read, and the model is built only once the
    tensors read match its config's schema one for one in name and shape,
    so a damaged file raises ValueError and never asks for a read or an
    allocation larger than the file, whatever its config says.
    """
    with open(path, "rb") as f:
        blob = memoryview(f.read())
    pos, end = 0, len(blob)

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if n > end - pos:
            raise ValueError(f"checkpoint truncated: {what} needs {n} bytes, {end - pos} left")
        pos += n
        return blob[pos - n:pos]

    def u32(what: str) -> int:
        return struct.unpack("<I", take(4, what))[0]

    if blob[:len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise ValueError(f"not a checkpoint file: {path}")
    pos = len(CKPT_MAGIC)
    version = u32("the version")
    if version not in (1, CKPT_VERSION):
        raise ValueError(f"unsupported checkpoint version {version}")
    if version == CKPT_VERSION:
        end -= 4
        if end < pos or struct.unpack("<I", blob[end:])[0] != zlib.crc32(blob[:end]):
            raise ValueError(f"checkpoint {path} is damaged: its CRC32 does not match its bytes")
    cfg = config_from_text(str(take(u32("the config length"), "the config"), "utf-8"))
    tensors = {}
    while pos < end:
        name = str(take(u32("a tensor name length"), "a tensor name"), "utf-8")
        if name in tensors:
            raise ValueError(f"checkpoint tensor {name!r} appears twice")
        rank = u32(f"the rank of {name!r}")
        shape = struct.unpack(f"<{rank}I", take(4 * rank, f"the shape of {name!r}"))
        raw = take(4 * math.prod(shape), f"the data of {name!r}")
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape)
    # one schema entry past the file's count shows a missing tensor, and
    # keeps a config of any size as cheap as the file
    schema = {name: shape for name, shape, _, _ in itertools.islice(param_schema(cfg), len(tensors) + 1)}
    missing = [name for name in schema if name not in tensors]
    if missing:
        raise ValueError(f"checkpoint missing tensors: {missing}")
    for name, data in tensors.items():
        if name not in schema:
            raise ValueError(f"checkpoint tensor {name!r} not in model schema")
        if data.shape != schema[name]:
            raise ValueError(f"checkpoint tensor {name!r} shape {data.shape}, schema {schema[name]}")
    model = build_model(cfg)
    for name, data in tensors.items():
        model.params[name].data = data.astype(np.float32)
    return model
