"""Full networks: LogMem, TinyLogMem, ExpSum, and a causal-attention baseline.

All variants share the block skeleton (pre-norm attention + residual,
pre-norm feed-forward + residual, final norm, unembed). LMN variants build
per-bank tree memories and apply single-vector attention over memory
levels; no positional table exists, position is carried by each token's
merge path. The baseline is a standard decoder with a learned positional
embedding and causal self-attention.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

import numpy as np

from .attention import ORIENTATIONS, QkvProjection, attend, multi_bank_combine
from .counters import COUNTER
from .memory import (
    CapacityError,
    MemoryTensor,
    SlotState,
    levels_for,
    snapshot,
    push_token,
)
from .summarizers import (
    DsConvSummarizer,
    ExpanderSummarizer,
    LinearSummarizer,
    build_memory,
    push_token_expanded,
    snapshot_expanded,
)
from .tensor import (
    Tensor,
    add,
    cross_entropy,
    embedding,
    gelu,
    layer_norm,
    make_rng,
    masked_fill,
    matmul,
    narrow,
    no_grad,
    reshape,
    scale,
    softmax_last,
    transpose,
)

VARIANTS = ("logmem", "tiny-logmem", "expsum", "baseline-attn")
SUMMARIZERS = ("linear", "dsconv")
CKPT_MAGIC = b"LMNCKPT"
CKPT_VERSION = 1


@dataclass
class ModelConfig:
    variant: str = "logmem"
    vocab_size: int = 65
    embed: int = 32
    max_seq_len: int = 256
    banks: int = 2
    expansion: int = 1
    ffn_mult: int = 4
    n_blocks: int = 1
    n_heads: int = 4
    seed: int = 0
    summarizer: str = "linear"          # one of SUMMARIZERS (bank summarizer form)
    summarizer_bias: bool = True
    qkv_bias: bool = True
    score_orientation: str = "literal"  # literal | swapped
    tie_embeddings: bool = False

    def __post_init__(self):
        for name, allowed in (("variant", VARIANTS), ("summarizer", SUMMARIZERS),
                              ("score_orientation", ORIENTATIONS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}, expected one of {allowed}")
        for name in ("vocab_size", "embed", "max_seq_len", "banks", "expansion", "n_blocks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.variant == "tiny-logmem":
            self.ffn_mult = 1  # reduced-parameter feed-forward form
        if self.variant == "expsum":
            self.banks = 1
        if self.ffn_mult not in (1, 4):
            raise ValueError("ffn_mult must be 1 or 4")
        if self.variant == "baseline-attn" and self.embed % self.n_heads != 0:
            raise ValueError(f"embed {self.embed} not divisible by n_heads {self.n_heads}")

    @property
    def n_levels(self) -> int:
        return levels_for(self.max_seq_len)


# ---------------------------------------------------------------------------
# Parameter schema: single source of truth for init, counting and checkpoints.
# ---------------------------------------------------------------------------

def _ffn_entries(prefix: str, e: int, mult: int):
    if mult == 1:
        # one [E, E] map applied to both feed-forward layers (shared weights)
        return [
            (f"{prefix}.ffn.weight", (e, e), "uniform", e),
            (f"{prefix}.ffn.bias", (e,), "uniform", e),
        ]
    h = mult * e
    return [
        (f"{prefix}.ffn.w1", (e, h), "uniform", e),
        (f"{prefix}.ffn.b1", (h,), "uniform", e),
        (f"{prefix}.ffn.w2", (h, e), "uniform", h),
        (f"{prefix}.ffn.b2", (e,), "uniform", h),
    ]


def param_schema(cfg: ModelConfig) -> list[tuple[str, tuple, str, int]]:
    """(name, shape, init kind, fan_in) for every learnable tensor, in order."""
    e, v = cfg.embed, cfg.vocab_size
    entries = [("embed.weight", (v, e), "uniform", e)]
    if cfg.variant == "baseline-attn":
        entries.append(("pos.weight", (cfg.max_seq_len, e), "uniform", e))
    for i in range(cfg.n_blocks):
        p = f"block{i}"
        entries += [
            (f"{p}.ln1.gain", (e,), "ones", 0),
            (f"{p}.ln1.bias", (e,), "zeros", 0),
            (f"{p}.qkv.weight", (e, 3 * e), "uniform", e),
        ]
        if cfg.variant != "baseline-attn" and cfg.qkv_bias:
            entries.append((f"{p}.qkv.bias", (3 * e,), "uniform", e))
        entries += [
            (f"{p}.attn_out.weight", (e, e), "uniform", e),
            (f"{p}.attn_out.bias", (e,), "uniform", e),
            (f"{p}.ln2.gain", (e,), "ones", 0),
            (f"{p}.ln2.bias", (e,), "zeros", 0),
        ]
        entries += _ffn_entries(p, e, cfg.ffn_mult)
        if cfg.variant in ("logmem", "tiny-logmem"):
            for j in range(cfg.banks):
                b = f"{p}.bank{j}"
                if cfg.summarizer == "linear":
                    entries.append((f"{b}.weight", (2 * e, e), "uniform", 2 * e))
                    if cfg.summarizer_bias:
                        entries.append((f"{b}.bias", (e,), "uniform", 2 * e))
                else:
                    entries += [
                        (f"{b}.depthwise", (e, 2), "uniform", 2),
                        (f"{b}.pointwise", (e, e), "uniform", e),
                    ]
                    if cfg.summarizer_bias:
                        entries.append((f"{b}.bias", (e,), "uniform", e))
        elif cfg.variant == "expsum":
            b = f"{p}.bank0"
            entries += [
                (f"{b}.conv", (2, e, e), "uniform", 2 * e),
                (f"{b}.expand", (cfg.expansion + 1, e, e), "uniform", e),
            ]
    entries += [
        ("final.ln.gain", (e,), "ones", 0),
        ("final.ln.bias", (e,), "zeros", 0),
    ]
    if not cfg.tie_embeddings:
        entries.append(("unembed.weight", (e, v), "uniform", e))
    entries.append(("unembed.bias", (v,), "uniform", e))
    return entries


def param_count(cfg: ModelConfig) -> int:
    """Exact number of learnable scalars for a config."""
    return sum(int(np.prod(shape)) for _, shape, _, _ in param_schema(cfg))


def init_params(cfg: ModelConfig, dtype=np.float32) -> dict:
    """Seeded parameter tensors; drawn in float32 then cast, so a float64
    model carries exactly the float32 values."""
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
    def __init__(self, params: dict, prefix: str, mult: int):
        self.mult = mult
        if mult == 1:
            self.w = params[f"{prefix}.ffn.weight"]
            self.b = params[f"{prefix}.ffn.bias"]
        else:
            self.w1 = params[f"{prefix}.ffn.w1"]
            self.b1 = params[f"{prefix}.ffn.b1"]
            self.w2 = params[f"{prefix}.ffn.w2"]
            self.b2 = params[f"{prefix}.ffn.b2"]

    def __call__(self, x: Tensor) -> Tensor:
        if self.mult == 1:
            h = gelu(add(matmul(x, self.w), self.b))
            return add(matmul(h, self.w), self.b)
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


class LmnBlock:
    def __init__(self, cfg: ModelConfig, params: dict, index: int):
        p = f"block{index}"
        self.cfg = cfg
        self.ln1 = (params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])
        self.qkv = QkvProjection(params[f"{p}.qkv.weight"], params.get(f"{p}.qkv.bias"))
        self.out_w = params[f"{p}.attn_out.weight"]
        self.out_b = params[f"{p}.attn_out.bias"]
        self.ln2 = (params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"])
        self.ffn = _FeedForward(params, p, cfg.ffn_mult)
        self.summarizers = [_make_summarizer(cfg, params, f"{p}.bank{j}") for j in range(cfg.banks)]

    def forward(self, x: Tensor, mode: str, n_levels: int) -> Tensor:
        n = layer_norm(x, *self.ln1)
        mems = [build_memory(n, s, mode, n_levels) for s in self.summarizers]
        mem = multi_bank_combine(mems)
        att = attend(mem, self.qkv, self.cfg.score_orientation)
        x = add(x, add(matmul(att.values, self.out_w), self.out_b))
        x = add(x, self.ffn(layer_norm(x, *self.ln2)))
        return x

    def fresh_states(self):
        return [SlotState.fresh(self.cfg.n_levels, s.k) for s in self.summarizers]

    def step(self, x: Tensor, states) -> Tensor:
        """One position: x [1, 1, E]; snapshots, attends, then pushes."""
        # the expander's named entry points into the shared tree
        if self.cfg.variant == "expsum":
            take, push = snapshot_expanded, push_token_expanded
        else:
            take, push = snapshot, push_token
        n = layer_norm(x, *self.ln1)
        n_flat = reshape(n, (1, self.cfg.embed))
        mems = []
        for s in states:
            row, valid = take(s, n_flat)
            mems.append(MemoryTensor(reshape(row, (1, 1, row.shape[0], self.cfg.embed)), valid[None, :]))
        mem = multi_bank_combine(mems)
        att = attend(mem, self.qkv, self.cfg.score_orientation)
        x = add(x, add(matmul(att.values, self.out_w), self.out_b))
        x = add(x, self.ffn(layer_norm(x, *self.ln2)))
        for s, summ in zip(states, self.summarizers):
            push(s, n_flat, summ)
        return x


class BaselineBlock:
    def __init__(self, cfg: ModelConfig, params: dict, index: int):
        p = f"block{index}"
        self.cfg = cfg
        self.ln1 = (params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])
        self.qkv_w = params[f"{p}.qkv.weight"]
        self.out_w = params[f"{p}.attn_out.weight"]
        self.out_b = params[f"{p}.attn_out.bias"]
        self.ln2 = (params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"])
        self.ffn = _FeedForward(params, p, cfg.ffn_mult)

    def attention(self, n: Tensor):
        """Causal multi-head self-attention; returns (values, weights)."""
        b, L, e = n.shape
        h = self.cfg.n_heads
        d = e // h
        qkv = matmul(n, self.qkv_w)
        q = narrow(qkv, 2, 0, e)
        k = narrow(qkv, 2, e, e)
        v = narrow(qkv, 2, 2 * e, e)
        q = transpose(reshape(q, (b, L, h, d)), (0, 2, 1, 3))
        k = transpose(reshape(k, (b, L, h, d)), (0, 2, 1, 3))
        v = transpose(reshape(v, (b, L, h, d)), (0, 2, 1, 3))
        att = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(d))
        future = np.triu(np.ones((L, L), dtype=bool), k=1)
        att = masked_fill(att, future[None, None, :, :], -np.inf)
        att = softmax_last(att)
        COUNTER.score_macs += e * L * (L + 1) // 2  # per batch item, causal terms only
        y = matmul(att, v)
        y = reshape(transpose(y, (0, 2, 1, 3)), (b, L, e))
        return y, att

    def forward(self, x: Tensor) -> Tensor:
        n = layer_norm(x, *self.ln1)
        y, _ = self.attention(n)
        x = add(x, add(matmul(y, self.out_w), self.out_b))
        x = add(x, self.ffn(layer_norm(x, *self.ln2)))
        return x


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

class _ModelBase:
    def __init__(self, cfg: ModelConfig, params: dict):
        self.config = cfg
        self.params = params
        self.embed_w = params["embed.weight"]
        self.final_ln = (params["final.ln.gain"], params["final.ln.bias"])
        self.unembed_b = params["unembed.bias"]

    def _unembed(self, x: Tensor) -> Tensor:
        x = layer_norm(x, *self.final_ln)
        if self.config.tie_embeddings:
            w = transpose(self.embed_w, (1, 0))
        else:
            w = self.params["unembed.weight"]
        return add(matmul(x, w), self.unembed_b)

    def _check_tokens(self, tokens: np.ndarray) -> np.ndarray:
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be [B, L], got shape {tokens.shape}")
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.config.vocab_size):
            raise ValueError(f"token id out of range for vocab {self.config.vocab_size}")
        if tokens.shape[1] > self.config.max_seq_len:
            raise CapacityError(
                f"sequence length {tokens.shape[1]} exceeds max_seq_len {self.config.max_seq_len}")
        return tokens

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def astype(self, dtype) -> "_ModelBase":
        clone = build_model(self.config)
        for name, p in self.params.items():
            clone.params[name].data = p.data.astype(dtype)
        return clone

    def param_vector_names(self):
        return list(self.params.keys())


class LmnModel(_ModelBase):
    def __init__(self, cfg: ModelConfig, params: dict):
        super().__init__(cfg, params)
        self.blocks = [LmnBlock(cfg, params, i) for i in range(cfg.n_blocks)]

    def forward(self, tokens: np.ndarray, mode: str = "parallel") -> Tensor:
        tokens = self._check_tokens(tokens)
        n_levels = levels_for(tokens.shape[1])
        x = embedding(self.embed_w, tokens)  # no positional table: path-through encoding
        for blk in self.blocks:
            x = blk.forward(x, mode, n_levels)
        return self._unembed(x)

    def start_state(self):
        return [blk.fresh_states() for blk in self.blocks]

    def step(self, state, token: int) -> Tensor:
        """Sequential inference for one token; returns next-token logits [V]."""
        x = embedding(self.embed_w, np.array([[token]], dtype=np.int64))
        for blk, st in zip(self.blocks, state):
            x = blk.step(x, st)
        return reshape(self._unembed(x), (self.config.vocab_size,))


class _BaselineState:
    """KV cache per block; buffers are preallocated and mutated in place
    (inference-only, exempt from the immutable-after-recording rule)."""

    def __init__(self, cfg: ModelConfig):
        e = cfg.embed
        self.t = 0
        self.k = [Tensor(np.zeros((cfg.max_seq_len, e), dtype=np.float32))
                  for _ in range(cfg.n_blocks)]
        self.v = [Tensor(np.zeros((cfg.max_seq_len, e), dtype=np.float32))
                  for _ in range(cfg.n_blocks)]


class BaselineModel(_ModelBase):
    def __init__(self, cfg: ModelConfig, params: dict):
        super().__init__(cfg, params)
        self.pos_w = params["pos.weight"]
        self.blocks = [BaselineBlock(cfg, params, i) for i in range(cfg.n_blocks)]

    def forward(self, tokens: np.ndarray, mode: str = "parallel") -> Tensor:
        # mode accepted for interface parity; construction is always one pass
        tokens = self._check_tokens(tokens)
        L = tokens.shape[1]
        x = add(embedding(self.embed_w, tokens), narrow(self.pos_w, 0, 0, L))
        for blk in self.blocks:
            x = blk.forward(x)
        return self._unembed(x)

    def start_state(self):
        return _BaselineState(self.config)

    def step(self, state: _BaselineState, token: int) -> Tensor:
        cfg = self.config
        if state.t >= cfg.max_seq_len:
            raise CapacityError(f"KV cache full after {state.t} tokens")
        e, h = cfg.embed, cfg.n_heads
        d = e // h
        t = state.t
        x = add(embedding(self.embed_w, np.array([[token]], dtype=np.int64)),
                narrow(self.pos_w, 0, t, 1))
        for bi, blk in enumerate(self.blocks):
            n = layer_norm(x, *blk.ln1)
            qkv = matmul(n, blk.qkv_w)  # [1, 1, 3E]
            q = narrow(qkv, 2, 0, e)
            k = narrow(qkv, 2, e, e)
            v = narrow(qkv, 2, 2 * e, e)
            state.k[bi].data[t] = k.data.reshape(e)
            state.v[bi].data[t] = v.data.reshape(e)
            K = Tensor(state.k[bi].data[:t + 1])  # view, zero-copy
            V = Tensor(state.v[bi].data[:t + 1])
            qh = transpose(reshape(q, (1, h, d)), (1, 0, 2))        # [h, 1, d]
            kh = transpose(reshape(K, (t + 1, h, d)), (1, 0, 2))    # [h, T, d]
            vh = transpose(reshape(V, (t + 1, h, d)), (1, 0, 2))
            att = scale(matmul(qh, transpose(kh, (0, 2, 1))), 1.0 / np.sqrt(d))
            att = softmax_last(att)
            COUNTER.score_macs += e * (t + 1)
            y = reshape(transpose(matmul(att, vh), (1, 0, 2)), (1, 1, e))
            x = add(x, add(matmul(y, blk.out_w), blk.out_b))
            x = add(x, blk.ffn(layer_norm(x, *blk.ln2)))
        state.t += 1
        return reshape(self._unembed(x), (cfg.vocab_size,))


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
                z = z / temperature
                z -= z.max()
                p = np.exp(z)
                p /= p.sum()
                nxt = int(rng.choice(len(p), p=p))
            out.append(nxt)
            if i + 1 < n_new:
                logits = model.step(state, nxt)
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# Checkpoints: magic, version, config text, then raw named tensors.
# ---------------------------------------------------------------------------

def config_to_text(cfg: ModelConfig) -> str:
    return "".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg))


def config_from_text(text: str) -> ModelConfig:
    kinds = {f.name: f.type for f in fields(ModelConfig)}
    kwargs = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        if key not in kinds:
            raise ValueError(f"unknown config key {key!r} in checkpoint")
        if kinds[key] == "int":
            kwargs[key] = int(value)
        elif kinds[key] == "bool":
            kwargs[key] = value == "True"
        else:
            kwargs[key] = value
    return ModelConfig(**kwargs)


def save_checkpoint(path, model) -> None:
    """Binary format: magic, u32 version, u32-length config text, then per
    tensor: u32 name length, name, u32 rank, u32 extents, little-endian
    float32 data. Round-trips bit-exactly."""
    cfg_text = config_to_text(model.config).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", CKPT_VERSION))
        f.write(struct.pack("<I", len(cfg_text)))
        f.write(cfg_text)
        for name, p in model.params.items():
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", p.data.ndim))
            f.write(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
            f.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())


def load_checkpoint(path):
    with open(path, "rb") as f:
        if f.read(len(CKPT_MAGIC)) != CKPT_MAGIC:
            raise ValueError(f"not a checkpoint file: {path}")
        version = struct.unpack("<I", f.read(4))[0]
        if version != CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        cfg_len = struct.unpack("<I", f.read(4))[0]
        cfg = config_from_text(f.read(cfg_len).decode("utf-8"))
        model = build_model(cfg)
        seen = set()
        while True:
            head = f.read(4)
            if not head:
                break
            name = f.read(struct.unpack("<I", head)[0]).decode("utf-8")
            rank = struct.unpack("<I", f.read(4))[0]
            shape = struct.unpack(f"<{rank}I", f.read(4 * rank))
            data = np.frombuffer(f.read(4 * int(np.prod(shape))), dtype="<f4").reshape(shape)
            if name not in model.params:
                raise ValueError(f"checkpoint tensor {name!r} not in model schema")
            if model.params[name].data.shape != shape:
                raise ValueError(f"checkpoint tensor {name!r} shape {shape} mismatch")
            model.params[name].data = data.astype(np.float32)
            seen.add(name)
        missing = set(model.params) - seen
        if missing:
            raise ValueError(f"checkpoint missing tensors: {sorted(missing)}")
    return model
