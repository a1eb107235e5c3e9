"""Toy hybrid decoder architectures with per-layer component masking.

Three families share one parameter vocabulary:

* ``parallel_hybrid`` — every layer adds a recurrent (SSM-style) branch and a
  causal-attention branch computed from the same layer input, then a
  feed-forward block.
* ``sequential_hybrid`` — each layer is either a recurrent layer or an
  attention layer (interleaved per ``layer_pattern``), each followed by its
  feed-forward block.
* ``transformer`` — attention layers only (the control).

All blocks are pre-norm residual. The recurrent branch is a per-channel
diagonal gated linear recurrence with input-dependent in/out projections and
O(1) state per layer; attention is full causal softmax attention over a
pre-allocated KV cache. A :class:`ComponentMask` turns branches off per layer
(branch contribution dropped before the residual add), skips whole layers
(identity pass-through), or truncates the stack (early exit). Masking is done
by control flow, never by multiplying by zero, so a disabled branch costs
nothing and an all-enabled mask is bit-identical to no mask.

Everything is float64 numpy; one decode stream owns one mutable
:class:`DecodeState`, weights are immutable after load and shareable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .numerics import RngState, rms_norm, sigmoid, silu

ARCHS = ("parallel_hybrid", "sequential_hybrid", "transformer")
LAYER_KINDS = ("linear", "attention")
NORM_EPS = 1e-6
FFN_MULT = 4


def default_layer_pattern(n_layers: int) -> tuple[str, ...]:
    """3:1 linear:attention interleave; every fourth layer is attention."""
    return tuple(
        "attention" if (i % 4) == 3 else "linear" for i in range(n_layers)
    )


@dataclass(frozen=True)
class ModelConfig:
    arch: str
    n_layers: int = 8
    d_model: int = 128
    n_heads: int = 4
    d_state: int = 32
    vocab_size: int = 256
    context_limit: int = 256
    layer_pattern: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ValueError(f"unknown arch {self.arch!r}, expected one of {ARCHS}")
        for name in ("n_layers", "d_model", "n_heads", "d_state", "vocab_size",
                     "context_limit"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.arch == "sequential_hybrid":
            pattern = self.layer_pattern
            if pattern is None:
                pattern = default_layer_pattern(self.n_layers)
                object.__setattr__(self, "layer_pattern", pattern)
            pattern = tuple(pattern)
            object.__setattr__(self, "layer_pattern", pattern)
            if len(pattern) != self.n_layers:
                raise ValueError("layer_pattern length must equal n_layers")
            if any(k not in LAYER_KINDS for k in pattern):
                raise ValueError(f"layer_pattern entries must be in {LAYER_KINDS}")
            if not ("linear" in pattern and "attention" in pattern):
                raise ValueError("sequential_hybrid needs at least one layer of each kind")
        elif self.layer_pattern is not None:
            raise ValueError(f"layer_pattern is only valid for sequential_hybrid")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def layer_kind(self, i: int) -> str:
        """What layer ``i`` computes: 'parallel', 'attn' or 'lin'."""
        if self.arch == "parallel_hybrid":
            return "parallel"
        if self.arch == "transformer":
            return "attn"
        return "attn" if self.layer_pattern[i] == "attention" else "lin"

    def has_attn(self, i: int) -> bool:
        return self.layer_kind(i) in ("parallel", "attn")

    def has_alt(self, i: int) -> bool:
        return self.layer_kind(i) in ("parallel", "lin")

    def attn_layer_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_layers) if self.has_attn(i))

    def to_dict(self) -> dict:
        d = {
            "arch": self.arch,
            "n_layers": self.n_layers,
            "d_model": self.d_model,
            "n_heads": self.n_heads,
            "d_state": self.d_state,
            "vocab_size": self.vocab_size,
            "context_limit": self.context_limit,
        }
        if self.layer_pattern is not None:
            d["layer_pattern"] = list(self.layer_pattern)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        if "layer_pattern" in d and d["layer_pattern"] is not None:
            d["layer_pattern"] = tuple(d["layer_pattern"])
        return cls(**d)


@dataclass(frozen=True)
class ComponentMask:
    """Per-layer on/off switches realizing a draft strategy.

    ``layer_skipped[i]`` makes layer ``i`` an identity (both components off,
    feed-forward included). ``max_layer`` marks an early-exit cutoff; layers
    at or beyond it must be flagged skipped. For transformers ``alt_enabled``
    is meaningless and a layer with attention off but the alternative branch
    on is rejected as a mask/arch mismatch at forward time.
    """

    attn_enabled: tuple[bool, ...]
    alt_enabled: tuple[bool, ...]
    layer_skipped: tuple[bool, ...]
    max_layer: int | None = None

    def __post_init__(self):
        n = len(self.attn_enabled)
        if not (len(self.alt_enabled) == len(self.layer_skipped) == n) or n == 0:
            raise ValueError("mask flag tuples must be non-empty and equal length")
        for i in range(n):
            if self.layer_skipped[i] and (self.attn_enabled[i] or self.alt_enabled[i]):
                raise ValueError(f"layer {i} is skipped but has a component enabled")
        if self.max_layer is not None:
            if not 0 < self.max_layer <= n:
                raise ValueError("max_layer out of range")
            for i in range(self.max_layer, n):
                if not self.layer_skipped[i]:
                    raise ValueError("layers beyond max_layer must be skipped")

    @property
    def n_layers(self) -> int:
        return len(self.attn_enabled)

    @classmethod
    def full(cls, n_layers: int) -> "ComponentMask":
        on = (True,) * n_layers
        return cls(attn_enabled=on, alt_enabled=on, layer_skipped=(False,) * n_layers)

    def describe(self) -> str:
        bits = []
        for i in range(self.n_layers):
            if self.layer_skipped[i]:
                bits.append("-")
            elif self.attn_enabled[i] and self.alt_enabled[i]:
                bits.append("B")
            elif self.attn_enabled[i]:
                bits.append("A")
            elif self.alt_enabled[i]:
                bits.append("S")
            else:
                bits.append("o")
        return "".join(bits)


class AttnParams(NamedTuple):
    norm_g: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray


class SsmParams(NamedTuple):
    norm_g: np.ndarray
    w_in: np.ndarray
    w_b: np.ndarray
    w_c: np.ndarray
    decay_raw: np.ndarray
    skip_gain: np.ndarray
    w_out: np.ndarray


class FfnParams(NamedTuple):
    norm_g: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


class LayerParams(NamedTuple):
    kind: str
    attn: AttnParams | None
    ssm: SsmParams | None
    ffn: FfnParams


def param_spec(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list for every weight block of ``cfg``."""
    d, s, v = cfg.d_model, cfg.d_state, cfg.vocab_size
    spec: list[tuple[str, tuple[int, ...]]] = [
        ("embed", (v, d)),
        ("pos_embed", (cfg.context_limit, d)),
    ]
    for i in range(cfg.n_layers):
        if cfg.has_attn(i):
            spec += [
                (f"layers.{i}.attn.norm_g", (d,)),
                (f"layers.{i}.attn.wq", (d, d)),
                (f"layers.{i}.attn.wk", (d, d)),
                (f"layers.{i}.attn.wv", (d, d)),
                (f"layers.{i}.attn.wo", (d, d)),
            ]
        if cfg.has_alt(i):
            spec += [
                (f"layers.{i}.ssm.norm_g", (d,)),
                (f"layers.{i}.ssm.w_in", (d, d)),
                (f"layers.{i}.ssm.w_b", (d, s)),
                (f"layers.{i}.ssm.w_c", (d, s)),
                (f"layers.{i}.ssm.decay_raw", (d,)),
                (f"layers.{i}.ssm.skip_gain", (d,)),
                (f"layers.{i}.ssm.w_out", (d, d)),
            ]
        spec += [
            (f"layers.{i}.ffn.norm_g", (d,)),
            (f"layers.{i}.ffn.w1", (d, FFN_MULT * d)),
            (f"layers.{i}.ffn.w2", (FFN_MULT * d, d)),
        ]
    spec += [
        ("final_norm_g", (d,)),
        ("head_w", (d, v)),
    ]
    return spec


class Weights:
    """Named float64 weight blocks, shaped per :func:`param_spec`."""

    def __init__(self, cfg: ModelConfig, blocks: dict[str, np.ndarray]):
        self.cfg = cfg
        spec = param_spec(cfg)
        expected = dict(spec)
        missing = [n for n in expected if n not in blocks]
        extra = [n for n in blocks if n not in expected]
        if missing or extra:
            raise ValueError(f"weight blocks mismatch: missing={missing} extra={extra}")
        self.blocks: dict[str, np.ndarray] = {}
        for name, shape in spec:
            arr = np.asarray(blocks[name], dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"block {name} has shape {arr.shape}, expected {shape}")
            self.blocks[name] = arr
        self.names = [n for n, _ in spec]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.blocks[name]

    def __setitem__(self, name: str, value: np.ndarray):
        if name not in self.blocks:
            raise KeyError(name)
        value = np.asarray(value, dtype=np.float64)
        if value.shape != self.blocks[name].shape:
            raise ValueError(f"shape mismatch for {name}")
        self.blocks[name] = value

    def items(self):
        return ((n, self.blocks[n]) for n in self.names)

    def validate_finite(self):
        for name, arr in self.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"weight block {name} has non-finite entries")

    def copy(self) -> "Weights":
        return Weights(self.cfg, {n: a.copy() for n, a in self.items()})

    def n_params(self) -> int:
        return sum(a.size for _, a in self.items())


def init_weights(cfg: ModelConfig, seed: int) -> Weights:
    """Seeded random initialization (platform-stable via Philox).

    Matrices are N(0, 0.02); residual output projections are shrunk by
    1/sqrt(2L); norm gains and recurrence skip gains start at one; decay
    gates start in (0.5, 0.99).
    """
    rng = RngState(seed)
    out_scale = 0.02 / np.sqrt(2.0 * cfg.n_layers)
    blocks: dict[str, np.ndarray] = {}
    for name, shape in param_spec(cfg):
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("norm_g", "skip_gain", "final_norm_g"):
            blocks[name] = np.ones(shape)
        elif leaf == "decay_raw":
            decay = rng.uniform_range(0.5, 0.99, shape)
            blocks[name] = np.log(decay) - np.log1p(-decay)
        elif leaf in ("wo", "w_out", "w2"):
            blocks[name] = rng.normal(out_scale, shape)
        else:
            blocks[name] = rng.normal(0.02, shape)
    return Weights(cfg, blocks)


# ---------------------------------------------------------------------------
# Decode-time state
# ---------------------------------------------------------------------------


class KVCache(NamedTuple):
    # keys stored transposed (n_heads, d_head, context) so score matmuls read
    # contiguous slices; values stored (n_heads, context, d_head).
    k: np.ndarray
    v: np.ndarray


@dataclass
class SsmSnapshot:
    pos: int
    states: list[np.ndarray | None]


@dataclass
class DecodeState:
    """Mutable per-stream cache: KV per enabled attention layer, recurrent
    state per enabled alternative layer. KV grows with the sequence (its
    live length is ``pos``); recurrent state is fixed-size. Owned by exactly
    one generation stream."""

    model: "HybridModel"
    mask: ComponentMask
    pos: int = 0
    kv: list[KVCache | None] = field(default_factory=list)
    ssm: list[np.ndarray | None] = field(default_factory=list)

    def snapshot(self) -> SsmSnapshot:
        """Cheap rollback point: recurrent states plus position. KV needs no
        copy because rows for a shared prefix never change; rolling back just
        truncates the live length."""
        return SsmSnapshot(self.pos, [s.copy() if s is not None else None
                                      for s in self.ssm])

    def restore(self, snap: SsmSnapshot):
        if snap.pos > self.pos:
            raise ValueError("cannot restore a snapshot ahead of the current position")
        self.pos = snap.pos
        self.ssm = [s.copy() if s is not None else None for s in snap.states]


# ---------------------------------------------------------------------------
# Block computations (single stream, chunk of T positions)
# ---------------------------------------------------------------------------


def _ssm_chunk(p: SsmParams, state: np.ndarray, h: np.ndarray, record: bool):
    """Recurrent branch over a chunk. Returns (out, final_state, states?)."""
    xs = rms_norm(h, p.norm_g, NORM_EPS)
    u = silu(xs @ p.w_in)                      # (T, d)
    bm = xs @ p.w_b                            # (T, s)
    cm = xs @ p.w_c
    decay = sigmoid(p.decay_raw)[:, None]      # (d, 1)
    T = h.shape[0]
    y = np.empty_like(u)
    states = [] if record else None
    s = state
    for t in range(T):
        s = decay * s + u[t][:, None] * bm[t]  # fresh array; snapshots are free
        y[t] = s @ cm[t]
        if record:
            states.append(s)
    y += p.skip_gain * u
    return y @ p.w_out, s, states


def _attn_chunk(p: AttnParams, cache: KVCache, h: np.ndarray, pos0: int,
                n_heads: int):
    """Causal attention over a chunk, reading/writing the KV cache."""
    T, d = h.shape
    dh = d // n_heads
    xs = rms_norm(h, p.norm_g, NORM_EPS)
    q = (xs @ p.wq).reshape(T, n_heads, dh).transpose(1, 0, 2)
    k = (xs @ p.wk).reshape(T, n_heads, dh)
    v = (xs @ p.wv).reshape(T, n_heads, dh)
    n = pos0 + T
    cache.k[:, :, pos0:n] = k.transpose(1, 2, 0)
    cache.v[:, pos0:n, :] = v.transpose(1, 0, 2)
    scores = (q @ cache.k[:, :, :n]) / np.sqrt(dh)   # (H, T, n)
    if T > 1:
        ij = np.arange(n)[None, :] > (pos0 + np.arange(T))[:, None]
        scores = np.where(ij[None], -np.inf, scores)
    scores -= scores.max(axis=-1, keepdims=True)
    w = np.exp(scores)
    w /= w.sum(axis=-1, keepdims=True)
    out = (w @ cache.v[:, :n, :]).transpose(1, 0, 2).reshape(T, d)
    return out @ p.wo


def _ffn_chunk(p: FfnParams, h: np.ndarray):
    xs = rms_norm(h, p.norm_g, NORM_EPS)
    return silu(xs @ p.w1) @ p.w2


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


class HybridModel:
    """Immutable (config, weights) bundle with decode entry points."""

    def __init__(self, cfg: ModelConfig, weights: Weights):
        if weights.cfg != cfg:
            raise ValueError("weights were built for a different config")
        self.cfg = cfg
        self.weights = weights
        w = weights
        self.layers: list[LayerParams] = []
        for i in range(cfg.n_layers):
            kind = cfg.layer_kind(i)
            attn = None
            ssm = None
            if cfg.has_attn(i):
                attn = AttnParams(*(w[f"layers.{i}.attn.{n}"]
                                    for n in AttnParams._fields))
            if cfg.has_alt(i):
                ssm = SsmParams(*(w[f"layers.{i}.ssm.{n}"]
                                  for n in SsmParams._fields))
            ffn = FfnParams(*(w[f"layers.{i}.ffn.{n}"] for n in FfnParams._fields))
            self.layers.append(LayerParams(kind, attn, ssm, ffn))

    @classmethod
    def from_seed(cls, cfg: ModelConfig, seed: int) -> "HybridModel":
        return cls(cfg, init_weights(cfg, seed))

    # -- mask handling ------------------------------------------------------

    def check_mask(self, mask: ComponentMask | None) -> ComponentMask:
        cfg = self.cfg
        if mask is None:
            return ComponentMask.full(cfg.n_layers)
        if mask.n_layers != cfg.n_layers:
            raise ValueError(
                f"mask covers {mask.n_layers} layers, model has {cfg.n_layers}")
        if cfg.arch == "transformer":
            for i in range(cfg.n_layers):
                if mask.alt_enabled[i] and not mask.attn_enabled[i]:
                    raise ValueError(
                        "mask/arch mismatch: transformer layers have no "
                        "alternative component to run on its own")
        return mask

    # -- states -------------------------------------------------------------

    def new_state(self, mask: ComponentMask | None = None) -> DecodeState:
        cfg = self.cfg
        mask = self.check_mask(mask)
        st = DecodeState(self, mask)
        for i in range(cfg.n_layers):
            use_attn = (cfg.has_attn(i) and mask.attn_enabled[i]
                        and not mask.layer_skipped[i])
            use_alt = (cfg.has_alt(i) and mask.alt_enabled[i]
                       and not mask.layer_skipped[i])
            if use_attn:
                st.kv.append(KVCache(
                    np.zeros((cfg.n_heads, cfg.d_head, cfg.context_limit)),
                    np.zeros((cfg.n_heads, cfg.context_limit, cfg.d_head))))
            else:
                st.kv.append(None)
            st.ssm.append(np.zeros((cfg.d_model, cfg.d_state)) if use_alt else None)
        return st

    # -- forward ------------------------------------------------------------

    def forward_chunk(self, state: DecodeState, tokens, record_states: bool = False,
                      collect_hidden: bool = False):
        """Feed ``tokens`` into ``state``; logits for each fed position.

        Returns ``(logits, ssm_history)`` where ``ssm_history[j]`` is the
        recurrent snapshot after consuming ``tokens[j]`` (None unless
        ``record_states``). With ``collect_hidden`` the per-layer residual
        streams are returned instead of the history (diagnostics only).
        """
        cfg = self.cfg
        if state.model is not self:
            raise ValueError("state belongs to a different model")
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1:
            raise ValueError("tokens must be a 1-D sequence")
        T = tokens.size
        if T == 0:
            return np.zeros((0, cfg.vocab_size)), [] if record_states else None
        if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
            raise ValueError("token id out of range")
        pos0 = state.pos
        if pos0 + T > cfg.context_limit:
            raise ValueError(
                f"context overflow: {pos0}+{T} exceeds limit {cfg.context_limit}")
        mask = state.mask
        w = self.weights
        h = w["embed"][tokens] + w["pos_embed"][pos0:pos0 + T]
        hidden = [h] if collect_hidden else None
        per_layer_states: list[list[np.ndarray] | None] = []
        for i, lp in enumerate(self.layers):
            if mask.layer_skipped[i]:
                per_layer_states.append(None)
                if collect_hidden:
                    hidden.append(h)
                continue
            run_attn = lp.attn is not None and mask.attn_enabled[i]
            run_alt = lp.ssm is not None and mask.alt_enabled[i]
            # both branches read the same layer input; contributions add
            h_in = h
            if run_alt:
                out, final, states = _ssm_chunk(lp.ssm, state.ssm[i], h_in,
                                                record_states)
                state.ssm[i] = final
                per_layer_states.append(states)
                h = h + out
            else:
                per_layer_states.append(None)
            if run_attn:
                h = h + _attn_chunk(lp.attn, state.kv[i], h_in, pos0, cfg.n_heads)
            h = h + _ffn_chunk(lp.ffn, h)
            if collect_hidden:
                hidden.append(h)
        hn = rms_norm(h, w["final_norm_g"], NORM_EPS)
        logits = hn @ w["head_w"]
        state.pos = pos0 + T
        history = None
        if record_states:
            # per_layer_states[i] is None exactly for layers with no live
            # recurrent state, matching the state's ssm slots
            history = [
                SsmSnapshot(pos0 + j + 1,
                            [ps[j] if ps is not None else None
                             for ps in per_layer_states])
                for j in range(T)
            ]
        if collect_hidden:
            return logits, hidden
        return logits, history

    def forward_prefix(self, tokens, mask: ComponentMask | None = None):
        """Run a fresh stream over ``tokens``; per-position logits and the
        state positioned at the sequence end."""
        state = self.new_state(mask)
        logits, _ = self.forward_chunk(state, tokens)
        return logits, state

    def decode_step(self, state: DecodeState, token: int):
        """Feed one token; logits for the next position."""
        logits, _ = self.forward_chunk(state, [token])
        return logits[0]
