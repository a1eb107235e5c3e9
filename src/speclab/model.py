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

The block math exists once, in :func:`forward`, over (B, T, d) rows and in
the dtype of the weights it is given, under a per-mask :func:`layer_plan`.
It runs three stages in order: :func:`embed` (embedding and attention bias),
:func:`run_layers` (the layer loop over a plan) and :func:`head` (final norm
and head). Decoding runs it on one stream (B = 1) in float64, continuing a
mutable :class:`DecodeState` (KV cache, recurrent states, position); training
runs it on B windows from position 0 and records a tape for its backward.
:meth:`HybridModel.forward_masks` runs the same stages over one sequence
under several masks with no state, computing the leading layers the masks'
plans share once. Weights are immutable after load and shareable.

A forward holds one layer's (B, T, d_model, d_state) scan history at a time:
each recurrent layer's states after every row die when the layer is done,
unless the caller records per-row states (``forward_chunk(record_states=
True)``, the draft and verify chunks). The scan writes those states over the
buffer of input outer products it is given, so the layer holds its history
about once. A :class:`DecodeState` owns its recurrent states: a forward
leaves in it a copy of each layer's last-row state, not a view pinning the
whole history. A training tape holds no (T, T) term: attention records
the row max and denominator of its softmax, from which the backward
rebuilds the probabilities with ``q`` and ``k`` by :func:`attn_scores` and
the forward's in-place steps. Nor does it hold anything its backward can
rebuild with one elementwise product (a block's normalised input, the gate
products ``upre * usig`` and ``pre * sig``); the backward rebuilds those by
the same expressions. Every rebuilt array has the forward's bits.

The recurrent branch's state-sized arithmetic (the scan and the input outer
products, in training's backward too) runs on contiguous (d_model, d_state)
rows: a plan holds each recurrent layer's decay spread over the state axis,
derived when the plan is built, so a weight changed in place needs a new
plan. The numbers are bit for bit those of a (d,) decay and outer products
broadcast along the state axis.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .numerics import RngState, sigmoid

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

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["layer_pattern"] is None:
            del d["layer_pattern"]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass(frozen=True)
class ComponentMask:
    """Per-layer on/off switches realizing a draft strategy.

    ``layer_skipped[i]`` makes layer ``i`` an identity (both components off,
    feed-forward included); early exit skips every layer past its cutoff.
    For transformers ``alt_enabled`` is meaningless and a layer with
    attention off but the alternative branch on is rejected as a mask/arch
    mismatch by :func:`mask_blocks`, which decides the blocks a mask runs.
    """

    attn_enabled: tuple[bool, ...]
    alt_enabled: tuple[bool, ...]
    layer_skipped: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.attn_enabled)
        if not (len(self.alt_enabled) == len(self.layer_skipped) == n) or n == 0:
            raise ValueError("mask flag tuples must be non-empty and equal length")
        for i in range(n):
            if self.layer_skipped[i] and (self.attn_enabled[i] or self.alt_enabled[i]):
                raise ValueError(f"layer {i} is skipped but has a component enabled")

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


class LayerPlan(NamedTuple):
    """The blocks layer ``index`` runs under a mask (None: branch off), and
    the recurrent branch's decay from :func:`ssm_decay` (None with it)."""
    index: int
    attn: AttnParams | None
    ssm: SsmParams | None
    ffn: FfnParams
    decay: np.ndarray | None


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

    def items(self):
        return ((n, self.blocks[n]) for n in self.names)

    def validate_finite(self):
        for name, arr in self.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"weight block {name} has non-finite entries")

    def copy(self) -> "Weights":
        return Weights(self.cfg, {n: a.copy() for n, a in self.items()})


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


def ssm_decay(p: SsmParams) -> np.ndarray:
    """The recurrent branch's per-channel decay ``sigmoid(decay_raw)``,
    spread over the state axis as a contiguous (d_model, d_state) array, so
    that the scan multiplies whole state rows."""
    return np.repeat(sigmoid(p.decay_raw)[:, None], p.w_b.shape[1], axis=1)


def mask_blocks(cfg: ModelConfig,
                mask: ComponentMask | None) -> list[tuple[int, bool, bool]]:
    """``(layer, runs attention, runs the recurrent branch)`` for every
    unskipped layer under ``mask`` (``None``: the full mask); each such
    layer also runs its feed-forward block. The one place a mask is checked
    against ``cfg``."""
    if mask is None:
        mask = ComponentMask.full(cfg.n_layers)
    if mask.n_layers != cfg.n_layers:
        raise ValueError(
            f"mask covers {mask.n_layers} layers, model has {cfg.n_layers}")
    blocks = []
    for i in range(cfg.n_layers):
        if mask.layer_skipped[i]:
            continue
        if (cfg.arch == "transformer" and mask.alt_enabled[i]
                and not mask.attn_enabled[i]):
            raise ValueError(
                "mask/arch mismatch: transformer layers have no "
                "alternative component to run on its own")
        blocks.append((i, cfg.has_attn(i) and mask.attn_enabled[i],
                       cfg.has_alt(i) and mask.alt_enabled[i]))
    return blocks


def layer_plan(cfg: ModelConfig, w,
               mask: ComponentMask | None) -> list[LayerPlan]:
    """The blocks every unskipped layer runs under ``mask``, per
    :func:`mask_blocks`, read from ``w`` (a :class:`Weights` or any
    name-to-array mapping, such as training's float32 casts). Skipped layers
    are left out, so a forward over the plan neither branches on nor
    validates the mask.

    Each recurrent layer's decay is derived here, once, by :func:`ssm_decay`:
    a plan reads the weights as they were when it was built, so a weight
    changed in place needs a new plan (as it already needs a new
    :class:`DecodeState`)."""
    plan = []
    for i, runs_attn, runs_alt in mask_blocks(cfg, mask):
        attn = ssm = decay = None
        if runs_attn:
            attn = AttnParams(*(w[f"layers.{i}.attn.{n}"]
                                for n in AttnParams._fields))
        if runs_alt:
            ssm = SsmParams(*(w[f"layers.{i}.ssm.{n}"]
                              for n in SsmParams._fields))
            decay = ssm_decay(ssm)
        ffn = FfnParams(*(w[f"layers.{i}.ffn.{n}"] for n in FfnParams._fields))
        plan.append(LayerPlan(i, attn, ssm, ffn, decay))
    return plan


# ---------------------------------------------------------------------------
# Decode-time state
# ---------------------------------------------------------------------------


class KVCache(NamedTuple):
    # keys and values stored (n_heads, context, d_head), the layout of a
    # chunk's own keys, so that scores read from the cache and from the chunk
    # are the same transposed gemm, bit for bit
    k: np.ndarray
    v: np.ndarray


@dataclass
class SsmSnapshot:
    pos: int
    states: list[np.ndarray | None]


@dataclass
class DecodeState:
    """Mutable per-stream cache: KV per enabled attention layer, recurrent
    state per enabled alternative layer, and the layer plan of its mask. KV
    grows with the sequence (its live length is ``pos``); recurrent state is
    fixed-size. Owned by exactly one generation stream."""

    model: "HybridModel"
    mask: ComponentMask
    plan: list[LayerPlan]
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
# Blocks over (B, T, d) rows. Each keeps the dtype of its input and weights
# and, given a tape entry (a dict), records in it what training's backward
# needs, save what the backward rebuilds: the rmsnorm cache stands for the
# normalised input, the pre-activation and its sigmoid for their product,
# and the softmax's row max and denominator, with q and k, for the
# attention probabilities.
# ---------------------------------------------------------------------------


def rmsnorm(x, g):
    """RMS normalization over the last axis, scaled elementwise by ``g``.
    Returns the output and the cache ``(x, g, 1/rms)`` for the backward."""
    ms = np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1]
    cache = (x, g, 1.0 / np.sqrt(ms + NORM_EPS))
    return rmsnorm_output(cache), cache


def rmsnorm_output(cache):
    """The output of :func:`rmsnorm` from its cache, so that the backward
    rebuilds it bit for bit."""
    x, g, r = cache
    return x * (g * r)


_SCAN_CHUNK = 16


def _scan_inputs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The outer products ``a_t (x) b_t`` of the (B, T, d) rows ``a`` and the
    (B, T, s) rows ``b``, one exact product per element, written on
    contiguous (d, s) state rows of a buffer padded with zero rows to whole
    scan chunks, ready for :func:`_linear_scan` to overwrite."""
    B, T, d = a.shape
    C = min(_SCAN_CHUNK, T)
    Tp = -(-T // C) * C
    buf = np.empty((B, Tp, d, b.shape[-1]), dtype=a.dtype)
    np.einsum("btd,bts->btds", a, b, out=buf[:, :T])
    if Tp > T:
        buf[:, T:] = 0
    return buf


def _linear_scan(decay: np.ndarray, inputs: np.ndarray, s0) -> np.ndarray:
    """All states of ``S_t = decay * S_{t-1} + inputs_t`` from ``S_{-1} = s0``,
    written over ``inputs`` (in place when it is C-contiguous, as the
    buffers of :func:`_scan_inputs` are).

    Two-level chunked evaluation: chunks are scanned in parallel, then
    chunk-boundary carries are added chunk by chunk, turning T python
    iterations into roughly chunk + T/chunk. ``inputs`` is (B, T, d, s), T
    at most one chunk or whole chunks (see :func:`_scan_inputs`); ``decay``
    is the (d, s) array of :func:`ssm_decay`, in (0, 1) so the power terms
    cannot overflow. Every product runs on contiguous (d, s) state rows;
    each element gets the arithmetic of a (d,) decay broadcast along the
    state axis, bit for bit. The first chunk starts from ``s0`` ((d, s), or
    0 for a fresh stream) and the others from zero, so a scan of at most one
    chunk is exactly the row-by-row recurrence.
    """
    B, T, d, s = inputs.shape
    dt = inputs.dtype
    C = min(_SCAN_CHUNK, T)
    n_chunks = T // C
    if n_chunks * C != T:
        raise ValueError(f"{T} scan rows are not whole chunks of {C}")
    P = inputs.reshape(B, n_chunks, C, d, s)
    acc = np.zeros((B, n_chunks, d, s), dtype=dt)
    acc[:, 0] = s0
    for t in range(C):
        np.multiply(decay, acc, out=acc)
        acc += P[:, :, t]
        P[:, :, t] = acc
    if n_chunks > 1:
        a_chunk = decay ** C
        # float exponents: an integer arange would make the powers float64
        powers = decay ** np.arange(1, C + 1, dtype=dt)[:, None, None]
        carry = np.zeros((B, d, s), dtype=dt)
        for c in range(n_chunks):
            # the next chunk's carry reads this chunk's own last state, so
            # it is taken before this chunk's carry (zero for chunk 0) is in
            following = a_chunk * carry + P[:, c, C - 1]
            P[:, c] += powers * carry[:, None]
            carry = following
    return P.reshape(B, T, d, s)


def ssm_block(p: SsmParams, decay: np.ndarray, h: np.ndarray, s0,
              tape: dict | None = None):
    """Recurrent branch from state ``s0`` under the (d, s) ``decay`` of
    :func:`ssm_decay`; returns (out, states), where ``states[:, t]`` is the
    recurrent state after row t."""
    B, T, d = h.shape
    xs, ncache = rmsnorm(h, p.norm_g)
    x2 = xs.reshape(B * T, d)
    upre = (x2 @ p.w_in).reshape(B, T, d)
    usig = sigmoid(upre)
    u = upre * usig
    bm = (x2 @ p.w_b).reshape(B, T, -1)
    cm = (x2 @ p.w_c).reshape(B, T, -1)
    states = _linear_scan(decay, _scan_inputs(u, bm), s0)[:, :T]
    y_skip = (states @ cm[..., None])[..., 0] + p.skip_gain * u
    out = y_skip.reshape(B * T, d) @ p.w_out
    if tape is not None:
        tape["ssm"] = (p, (ncache, upre, usig, bm, cm, decay, states, y_skip))
    return out.reshape(B, T, d), states


def causal_bias(T: int, pos0: int, dtype) -> np.ndarray:
    """The additive attention bias (T, pos0 + T) of rows at positions
    ``pos0..``: 0 on the keys up to a row's own position, -inf after it."""
    return np.triu(np.full((T, pos0 + T), -np.inf, dtype=dtype), pos0 + 1)


def attn_scores(q: np.ndarray, keys: np.ndarray, bias: np.ndarray):
    """The scaled, biased scores ``q keysᵀ / sqrt(d_head) + bias`` of the
    (B, heads, T, d_head) queries, one new (B, heads, T, keys) array; the
    scale is a python float so that float32 scores stay float32."""
    scores = q @ keys.transpose(0, 1, 3, 2)
    scores /= math.sqrt(q.shape[-1])
    scores += bias
    return scores


def attn_block(p: AttnParams, h: np.ndarray, n_heads: int, bias: np.ndarray,
               cache: KVCache | None = None, pos0: int = 0,
               tape: dict | None = None):
    """Causal attention of rows at positions ``pos0..`` under the additive
    ``bias`` (0 or -inf per row and key position). With a ``cache`` (one
    stream) the rows' keys and values are written at ``pos0..`` and every
    cached position is read; otherwise the rows attend among themselves."""
    B, T, d = h.shape
    dh = d // n_heads
    xs, ncache = rmsnorm(h, p.norm_g)
    x2 = xs.reshape(B * T, d)
    q = (x2 @ p.wq).reshape(B, T, n_heads, dh).transpose(0, 2, 1, 3)
    k = (x2 @ p.wk).reshape(B, T, n_heads, dh).transpose(0, 2, 1, 3)
    v = (x2 @ p.wv).reshape(B, T, n_heads, dh).transpose(0, 2, 1, 3)
    if cache is None:
        keys, values = k, v
    else:
        n = pos0 + T
        cache.k[:, pos0:n] = k[0]
        cache.v[:, pos0:n] = v[0]
        keys, values = cache.k[None, :, :n], cache.v[None, :, :n]
    # softmax in place on the scores; the tape keeps its row max and
    # denominator, from which the backward rebuilds ``w`` by these steps
    scores = attn_scores(q, keys, bias)
    row_max = scores.max(axis=-1, keepdims=True)
    scores -= row_max
    w = np.exp(scores, out=scores)
    denom = w.sum(axis=-1, keepdims=True)
    w /= denom
    ctx = (w @ values).transpose(0, 2, 1, 3).reshape(B, T, d)
    out = ctx.reshape(B * T, d) @ p.wo
    if tape is not None:
        tape["attn"] = (p, (ncache, q, k, v, row_max, denom, ctx))
    return out.reshape(B, T, d)


def ffn_block(p: FfnParams, h: np.ndarray, tape: dict | None = None):
    """Feed-forward block: a SiLU MLP of width ``FFN_MULT * d``."""
    B, T, d = h.shape
    xs, ncache = rmsnorm(h, p.norm_g)
    pre = xs.reshape(B * T, d) @ p.w1
    sig = sigmoid(pre)
    act = pre * sig
    out = act @ p.w2
    if tape is not None:
        tape["ffn"] = (p, (ncache, pre, sig))
    return out.reshape(B, T, d)


def embed(cfg: ModelConfig, w, x: np.ndarray, pos0: int = 0):
    """First stage of :func:`forward`: the input rows ``h`` (B, T, d) of the
    token rows ``x`` (B, T) at positions ``pos0..``, and the causal attention
    bias (T, pos0 + T) every layer's attention adds."""
    T = x.shape[1]
    if x.min() < 0 or x.max() >= cfg.vocab_size:
        raise ValueError("token id out of range")
    if pos0 + T > cfg.context_limit:
        raise ValueError(
            f"context overflow: {pos0}+{T} exceeds limit {cfg.context_limit}")
    h = w["embed"][x] + w["pos_embed"][pos0:pos0 + T]
    return h, causal_bias(T, pos0, h.dtype)


def run_layers(cfg: ModelConfig, plan: list[LayerPlan], h: np.ndarray,
               bias: np.ndarray, state: DecodeState | None = None,
               tape: dict | None = None, history: list | None = None):
    """Second stage of :func:`forward`: the rows ``h`` after every layer of
    ``plan``. A ``state`` supplies the KV caches and recurrent states the
    layers continue: each attention layer writes the rows' keys and values
    into its cache, and each recurrent state is replaced by an owned copy of
    the state after the last row (the position is left to :func:`forward`).

    A recurrent layer's (B, T, d, s) states after every row live only while
    that layer runs, unless ``history`` (one slot per model layer) asks to
    keep them in the layer's slot."""
    pos0 = 0 if state is None else state.pos
    for lp in plan:
        i = lp.index
        entry = None if tape is None else {"layer": i, "h_in": h}
        # both branches read the same layer input; contributions add
        h_in = h
        if lp.ssm is not None:
            s0 = 0.0 if state is None else state.ssm[i]
            out, states = ssm_block(lp.ssm, lp.decay, h_in, s0, entry)
            if state is not None:
                state.ssm[i] = states[0, -1].copy()
            if history is not None:
                history[i] = states
            del states
            h = h + out
        if lp.attn is not None:
            cache = None if state is None else state.kv[i]
            h = h + attn_block(lp.attn, h_in, cfg.n_heads, bias, cache, pos0,
                               entry)
        h = h + ffn_block(lp.ffn, h, entry)
        if tape is not None:
            tape["layers"].append(entry)
    return h


def head(w, h: np.ndarray, tape: dict | None = None) -> np.ndarray:
    """Last stage of :func:`forward`: final norm and head, logits (B, T,
    vocab) of the rows ``h``."""
    B, T, _ = h.shape
    hn, ncache = rmsnorm(h, w["final_norm_g"])
    logits = hn.reshape(B * T, -1) @ w["head_w"]
    if tape is not None:
        tape["final_norm"] = ncache
    return logits.reshape(B, T, -1)


def forward(cfg: ModelConfig, w, plan: list[LayerPlan], x: np.ndarray,
            state: DecodeState | None = None, tape: dict | None = None,
            history: list | None = None) -> np.ndarray:
    """Logits (B, T, vocab) for the token rows ``x`` (B, T) under ``plan``:
    :func:`embed`, :func:`run_layers` and :func:`head` in order.

    Without a ``state`` every row starts at position 0 and attends among
    itself. With one (B = 1) the rows continue that stream: they start at
    ``state.pos``, attention writes and reads its KV cache, the recurrence
    starts from its states, and the state ends advanced past the rows,
    owning its recurrent states. A ``history`` list (one slot per layer)
    receives each recurrent layer's states after every row; without one
    those live only while their layer runs. With a ``tape`` (a dict holding
    a ``"layers"`` list) one entry per planned layer and the final norm are
    recorded for :func:`speclab.training.backward_train`.
    """
    pos0 = 0 if state is None else state.pos
    h, bias = embed(cfg, w, x, pos0)
    h = run_layers(cfg, plan, h, bias, state, tape, history)
    logits = head(w, h, tape)
    if state is not None:
        state.pos = pos0 + x.shape[1]
    return logits


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


class HybridModel:
    """Immutable (config, weights) bundle with decode and scoring entry points."""

    def __init__(self, cfg: ModelConfig, weights: Weights):
        if weights.cfg != cfg:
            raise ValueError("weights were built for a different config")
        self.cfg = cfg
        self.weights = weights

    @classmethod
    def from_seed(cls, cfg: ModelConfig, seed: int) -> "HybridModel":
        return cls(cfg, init_weights(cfg, seed))

    def new_state(self, mask: ComponentMask | None = None) -> DecodeState:
        cfg = self.cfg
        if mask is None:
            mask = ComponentMask.full(cfg.n_layers)
        plan = layer_plan(cfg, self.weights, mask)
        st = DecodeState(self, mask, plan, kv=[None] * cfg.n_layers,
                         ssm=[None] * cfg.n_layers)
        for lp in plan:
            if lp.attn is not None:
                shape = (cfg.n_heads, cfg.context_limit, cfg.d_head)
                st.kv[lp.index] = KVCache(np.zeros(shape), np.zeros(shape))
            if lp.ssm is not None:
                st.ssm[lp.index] = np.zeros((cfg.d_model, cfg.d_state))
        return st

    def forward_chunk(self, state: DecodeState, tokens, record_states: bool = False):
        """Feed ``tokens`` into ``state``; logits for each fed position.

        Returns ``(logits, ssm_history)`` where ``ssm_history[j]`` is the
        recurrent snapshot after consuming ``tokens[j]`` (None unless
        ``record_states``).
        """
        if state.model is not self:
            raise ValueError("state belongs to a different model")
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1:
            raise ValueError("tokens must be a 1-D sequence")
        T = tokens.size
        if T == 0:
            return np.zeros((0, self.cfg.vocab_size)), [] if record_states else None
        pos0 = state.pos
        states = [None] * self.cfg.n_layers if record_states else None
        logits = forward(self.cfg, self.weights, state.plan, tokens[None],
                         state, history=states)
        history = None
        if record_states:
            history = [
                SsmSnapshot(pos0 + j + 1,
                            [s[0, j] if s is not None else None for s in states])
                for j in range(T)
            ]
        return logits[0], history

    def forward_prefix(self, tokens, mask: ComponentMask | None = None):
        """Run a fresh stream over ``tokens``; per-position logits and the
        state positioned at the sequence end."""
        state = self.new_state(mask)
        logits, _ = self.forward_chunk(state, tokens)
        return logits, state

    def forward_masks(self, tokens, masks) -> list[np.ndarray]:
        """Per-position logits of a fresh sequence ``tokens`` under each of
        ``masks``, equal bit for bit to ``forward_prefix(tokens, mask)[0]``
        but with no :class:`DecodeState`. The leading plan entries every mask
        runs alike (same layer, same branches) run once, and a mask whose
        plan equals an earlier one's reuses its logits."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1 or tokens.size == 0:
            raise ValueError("tokens must be a non-empty 1-D sequence")
        cfg, w = self.cfg, self.weights
        plans = [layer_plan(cfg, w, mask) for mask in masks]
        keys = [tuple((lp.index, lp.attn is None, lp.ssm is None) for lp in plan)
                for plan in plans]
        shared = 0
        for entries in zip(*keys):
            if len(set(entries)) > 1:
                break
            shared += 1
        h, bias = embed(cfg, w, tokens[None])
        h = run_layers(cfg, plans[0][:shared], h, bias)
        logits: dict[tuple, np.ndarray] = {}
        for key, plan in zip(keys, plans):
            if key not in logits:
                logits[key] = head(w, run_layers(cfg, plan[shared:], h, bias))[0]
        return [logits[key] for key in keys]

    def decode_step(self, state: DecodeState, token: int):
        """Feed one token; logits for the next position."""
        logits, _ = self.forward_chunk(state, [token])
        return logits[0]
