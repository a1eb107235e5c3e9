"""Training for the toy models: hand-rolled backprop and Adam over the model's
own forward.

The forward is :func:`speclab.model.forward`, the same block math that
scoring and decoding run, here over B windows from position 0 in float32 or
float64, with a tape of what the backward needs. This module keeps what is
training's own: the backward, the optimizer, the loop and the
finite-difference gradient check that pins the backward to the forward.
Recurrent states come from the forward's chunked scan and the backward runs
the reverse recurrence as the same scan on time-flipped input, which it
builds flipped on contiguous (d_model, d_state) rows and which the scan
overwrites with its states; the decay gradient sums the state axis as
whole-column adds in NumPy's own summation order.

The tape holds no (T, T) term: the attention probabilities are rebuilt
from the tape's ``q`` and ``k`` and their row max and softmax denominator,
by the forward's own steps in the forward's order (scores, minus the max,
exp, over the denominator). Nor does it hold anything its backward can
rebuild with one elementwise product. Each block's normalised input is
rebuilt from its rmsnorm cache as ``x * (g * r)``, the SSM gate product as
``upre * usig`` and the FFN activation as ``pre * sig``: the forward's own
expressions. So every rebuilt array has the forward's bits. What costs a
product with a weight, a scan or a sigmoid to rebuild stays on the tape,
the SSM state history among them; the SSM backward forms its decay gradient
one batch row at a time, so the flipped scan's buffer is the one
history-sized array it makes.

With ``compute_dtype="float32"`` (the default) the forward, the tape, the
backward and the gradients stay float32 end to end, against float64 master
weights and a float64 Adam; the blocks scale by python floats, which never
promote a float32 array under NumPy 2's scalar rules. A float32 step takes
about half the time of a float64 step. ``compute_dtype="float64"`` remains
available.

A training step holds one tape: each step's casts, tape, logits and
gradients are freed before the next step's forward starts, and the logits
as soon as their loss gradient is formed. Evaluation
(:func:`evaluate_loss`, the finite-difference probes of :func:`grad_check`)
records no tape.

Master weights are float64 and everything is deterministic from the seed:
weight init and batch sampling both run on counter-based Philox streams, and
the loop itself is single-threaded numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import write_atomic
from .model import (
    ComponentMask,
    ModelConfig,
    Weights,
    _linear_scan,
    _scan_inputs,
    attn_scores,
    causal_bias,
    forward,
    init_weights,
    layer_plan,
    rmsnorm_output,
)
from .numerics import RngState, log_softmax


# Adam's first and second moment decays and its denominator guard
MOMENTUM_DECAY, SECOND_MOMENT_DECAY, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int):
        super().__init__(f"training loss became non-finite at step {step}")
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    corpus_path: str
    steps: int
    batch_size: int = 8
    seq_len: int = 96
    learning_rate: float = 3e-3
    seed: int = 0
    warmup_steps: int = 50
    log_path: str | None = None
    # float32 keeps the whole step in float32, about half a float64 step;
    # master weights, the optimizer and everything downstream of training
    # stay float64
    compute_dtype: str = "float32"

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.batch_size < 1 or self.seq_len < 2:
            raise ValueError("batch_size >= 1 and seq_len >= 2 required")
        if self.compute_dtype not in ("float32", "float64"):
            raise ValueError("compute_dtype must be float32 or float64")


def load_corpus(path) -> np.ndarray:
    """Raw bytes of a corpus file as int64 token ids in [0, 256)."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"corpus not found: {p}")
    data = np.frombuffer(p.read_bytes(), dtype=np.uint8).astype(np.int64)
    if data.size == 0:
        raise ValueError(f"corpus is empty: {p}")
    return data


def sample_batch(corpus: np.ndarray, batch_size: int, seq_len: int,
                 rng: RngState):
    """(inputs, targets) windows drawn uniformly from the corpus."""
    if corpus.size < seq_len + 2:
        raise ValueError("corpus shorter than one training window")
    starts = rng.integers(0, corpus.size - seq_len - 1, size=batch_size)
    idx = starts[:, None] + np.arange(seq_len + 1)[None, :]
    window = corpus[idx]
    return window[:, :-1], window[:, 1:]


def forward_train(cfg: ModelConfig, w, mask: ComponentMask | None,
                  x: np.ndarray):
    """Batched forward over token windows ``x`` (B, T) from position 0;
    returns (logits, tape).

    ``w`` is a Weights object or any name-to-array mapping with ``items()``
    (training passes float32 casts of the float64 master weights).
    """
    x = np.asarray(x, dtype=np.int64)
    tape = {"x": x, "layers": []}
    logits = forward(cfg, w, layer_plan(cfg, w, mask), x, tape=tape)
    return logits, tape


# ---------------------------------------------------------------------------
# Backward over the forward's tape
# ---------------------------------------------------------------------------


def _rms_bwd(dy, cache):
    x, g, r = cache
    d = x.shape[-1]
    w = dy * g
    dx = r * w - x * (r ** 3 / d) * np.sum(w * x, axis=-1, keepdims=True)
    dg = np.sum(dy * (x * r), axis=tuple(range(x.ndim - 1)))
    return dx, dg


def _silu_bwd(dy, pre, sig):
    return dy * (sig * (1.0 + pre * (1.0 - sig)))


def _flat(x):
    return x.reshape(-1, x.shape[-1])


def _attn_bwd(p, dout, cache, n_heads, grads, prefix):
    ncache, q, k, v, row_max, denom, ctx = cache
    B, T, d = ctx.shape
    dh = d // n_heads
    # the probabilities by the forward's own steps, bit for bit
    w = attn_scores(q, k, causal_bias(T, 0, q.dtype))
    w -= row_max
    np.exp(w, out=w)
    w /= denom
    do2 = _flat(dout)
    grads[prefix + "wo"] += _flat(ctx).T @ do2
    dctx = (do2 @ p.wo.T).reshape(B, T, n_heads, dh).transpose(0, 2, 1, 3)
    dv = w.transpose(0, 1, 3, 2) @ dctx
    dscores = dctx @ v.transpose(0, 1, 3, 2)     # d loss / d w, then in place
    dscores -= np.sum(dscores * w, axis=-1, keepdims=True)
    dscores *= w
    dscores /= math.sqrt(dh)
    dq = dscores @ k
    dk = dscores.transpose(0, 1, 3, 2) @ q
    del dscores
    dq2 = _flat(dq.transpose(0, 2, 1, 3).reshape(B, T, d))
    dk2 = _flat(dk.transpose(0, 2, 1, 3).reshape(B, T, d))
    dv2 = _flat(dv.transpose(0, 2, 1, 3).reshape(B, T, d))
    x2 = _flat(rmsnorm_output(ncache))
    grads[prefix + "wq"] += x2.T @ dq2
    grads[prefix + "wk"] += x2.T @ dk2
    grads[prefix + "wv"] += x2.T @ dv2
    dxs = (dq2 @ p.wq.T + dk2 @ p.wk.T + dv2 @ p.wv.T).reshape(B, T, d)
    dh_, dg = _rms_bwd(dxs, ncache)
    grads[prefix + "norm_g"] += dg
    return dh_


def _row_sums(x):
    """``x.sum(axis=-1)`` bit for bit, as adds of whole columns.

    NumPy adds each row of a reduction's contiguous last axis in pairwise
    order: from zero below 8 terms; up to 128 terms, 8 running sums combined
    as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` and then the
    tail; above that, the sums of two halves. Run per row on the 8-wide
    state axis, that is one 8-element inner loop per row; here every add
    runs over all rows at once.
    """
    n = x.shape[-1]
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _row_sums(x[..., :half]) + _row_sums(x[..., half:])
    if n < 8:
        total = np.zeros(x.shape[:-1], x.dtype)
        for i in range(n):
            total += x[..., i]
        return total
    m = n - n % 8
    r = x[..., :8]
    for i in range(8, m, 8):
        r = r + x[..., i:i + 8]
    r = r[..., 0::2] + r[..., 1::2]
    r = r[..., 0::2] + r[..., 1::2]
    total = r[..., 0] + r[..., 1]
    for i in range(m, n):
        total += x[..., i]
    return total


def _ssm_bwd(p, dout, cache, grads, prefix):
    ncache, upre, usig, bm, cm, decay, states, y_skip = cache
    B, T, d = upre.shape
    u = upre * usig
    do2 = _flat(dout)
    grads[prefix + "w_out"] += _flat(y_skip).T @ do2
    dy = np.ascontiguousarray((do2 @ p.w_out.T).reshape(B, T, d))
    grads[prefix + "skip_gain"] += np.sum(dy * u, axis=(0, 1))
    du = dy * p.skip_gain
    dcm = (dy[:, :, None, :] @ states)[:, :, 0, :]
    # reverse-time recurrence dS_t = decay * dS_{t+1} + dy_t (x) C_t is a
    # forward scan on the time-flipped input, whose outer product is built
    # flipped and contiguous
    q = _scan_inputs(dy[:, ::-1].copy(), cm[:, ::-1].copy())
    d_states = _linear_scan(decay, q, 0.0)[:, :T][:, ::-1]
    # the order of one sum over axes (0, 1, 3): each state row pairwise,
    # then the (b, t) rows in turn; one batch row's product at a time, so
    # no product the size of the history is alive beside the scan buffer
    rows = np.empty((B, T - 1, d), dtype=states.dtype)
    for b in range(B):
        rows[b] = _row_sums(d_states[b, 1:] * states[b, :-1])
    da = rows.reshape(-1, d).sum(axis=0)
    du += (d_states @ bm[..., None])[..., 0]
    dbm = (u[:, :, None, :] @ d_states)[:, :, 0, :]
    del q, d_states
    a = decay[:, 0]
    grads[prefix + "decay_raw"] += da * a * (1.0 - a)
    dupre = _silu_bwd(du, upre, usig)
    x2 = _flat(rmsnorm_output(ncache))
    du2, dbm2, dcm2 = _flat(dupre), _flat(dbm), _flat(dcm)
    grads[prefix + "w_in"] += x2.T @ du2
    grads[prefix + "w_b"] += x2.T @ dbm2
    grads[prefix + "w_c"] += x2.T @ dcm2
    dxs = (du2 @ p.w_in.T + dbm2 @ p.w_b.T + dcm2 @ p.w_c.T).reshape(B, T, d)
    dh_, dg = _rms_bwd(dxs, ncache)
    grads[prefix + "norm_g"] += dg
    return dh_


def _ffn_bwd(p, dout, cache, grads, prefix):
    ncache, pre, sig = cache
    B, T, d = dout.shape
    do2 = _flat(dout)
    act = pre * sig
    grads[prefix + "w2"] += act.T @ do2
    dact = do2 @ p.w2.T
    dpre = _silu_bwd(dact, pre, sig)
    grads[prefix + "w1"] += _flat(rmsnorm_output(ncache)).T @ dpre
    dxs = (dpre @ p.w1.T).reshape(B, T, d)
    dh_, dg = _rms_bwd(dxs, ncache)
    grads[prefix + "norm_g"] += dg
    return dh_


def cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean next-token negative log-likelihood and the logits gradient."""
    B, T, V = logits.shape
    logp = log_softmax(logits.reshape(-1, V))
    flat_t = targets.reshape(-1)
    n = flat_t.size
    loss = -logp[np.arange(n), flat_t].mean()
    dlogits = np.exp(logp)
    dlogits[np.arange(n), flat_t] -= 1.0
    dlogits /= n
    return loss, dlogits.reshape(B, T, V)


def backward_train(cfg: ModelConfig, w, tape: dict,
                   dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients for every weight block (zeros where masked off)."""
    grads = {name: np.zeros_like(arr) for name, arr in w.items()}
    x = tape["x"]
    B, T = x.shape
    d2 = _flat(dlogits)
    grads["head_w"] += _flat(rmsnorm_output(tape["final_norm"])).T @ d2
    dh, dg = _rms_bwd((d2 @ w["head_w"].T).reshape(B, T, -1), tape["final_norm"])
    grads["final_norm_g"] += dg
    for entry in reversed(tape["layers"]):
        prefix = f"layers.{entry['layer']}."
        p, cache = entry["ffn"]
        dh = dh + _ffn_bwd(p, dh, cache, grads, prefix + "ffn.")
        d_hin = np.zeros_like(dh)
        if "attn" in entry:
            p, cache = entry["attn"]
            d_hin += _attn_bwd(p, dh, cache, cfg.n_heads, grads, prefix + "attn.")
        if "ssm" in entry:
            p, cache = entry["ssm"]
            d_hin += _ssm_bwd(p, dh, cache, grads, prefix + "ssm.")
        dh = dh + d_hin
    np.add.at(grads["embed"], x.reshape(-1), _flat(dh))
    grads["pos_embed"][:T] += dh.sum(axis=0)
    return grads


def evaluate_loss(cfg: ModelConfig, w: Weights, mask: ComponentMask | None,
                  x: np.ndarray, y: np.ndarray) -> float:
    """Mean next-token loss of the windows ``x`` against ``y``; the forward
    is :func:`forward_train`'s without its tape."""
    x = np.asarray(x, dtype=np.int64)
    logits = forward(cfg, w, layer_plan(cfg, w, mask), x)
    loss, _ = cross_entropy(logits, y)
    return float(loss)


# ---------------------------------------------------------------------------
# Optimizer and training loop
# ---------------------------------------------------------------------------


class Adam:
    """Adaptive moment estimation with bias correction, constant LR after a
    linear warmup."""

    def __init__(self, w: Weights, tcfg: TrainConfig):
        self.m = {n: np.zeros_like(a) for n, a in w.items()}
        self.v = {n: np.zeros_like(a) for n, a in w.items()}
        self.t = 0
        self.tcfg = tcfg

    def step(self, w: Weights, grads: dict[str, np.ndarray]):
        c = self.tcfg
        self.t += 1
        lr = c.learning_rate
        if c.warmup_steps > 0:
            lr *= min(1.0, self.t / c.warmup_steps)
        b1, b2 = MOMENTUM_DECAY, SECOND_MOMENT_DECAY
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            w.blocks[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def _train_step(cfg: ModelConfig, w: Weights, opt: Adam,
                mask: ComponentMask | None, x, y, dt, step: int) -> float:
    """One forward, backward and Adam step on the batch ``(x, y)``; returns
    the loss. The casts, tape and gradients are this function's locals, so
    they are freed when it returns, before the next step's forward builds
    its own tape; the logits go once ``cross_entropy`` has read them."""
    wc = w if dt == np.float64 else {n: a.astype(dt) for n, a in w.items()}
    logits, tape = forward_train(cfg, wc, mask, x)
    loss, dlogits = cross_entropy(logits, y)
    del logits
    if not np.isfinite(loss):
        raise TrainingDiverged(step)
    grads = backward_train(cfg, wc, tape, dlogits)
    opt.step(w, grads)
    return float(loss)


def train(cfg: ModelConfig, tcfg: TrainConfig,
          mask: ComponentMask | None = None):
    """Train a model from scratch; returns (Weights, loss history).

    Fully reproducible from ``tcfg.seed``: the seed drives both the weight
    init and the batch stream. With ``steps == 0`` the seeded initialization
    is returned untouched. Loss history is one (step, loss) pair per step,
    also written as CSV when ``log_path`` is set.
    """
    corpus = load_corpus(tcfg.corpus_path)
    if tcfg.seq_len > cfg.context_limit:
        raise ValueError("seq_len exceeds the model's context limit")
    w = init_weights(cfg, tcfg.seed)
    data_rng = RngState(tcfg.seed).spawn(1)[0]
    opt = Adam(w, tcfg)
    dt = np.dtype(tcfg.compute_dtype)
    history: list[tuple[int, float]] = []
    for step in range(tcfg.steps):
        x, y = sample_batch(corpus, tcfg.batch_size, tcfg.seq_len, data_rng)
        history.append((step, _train_step(cfg, w, opt, mask, x, y, dt, step)))
    w.validate_finite()
    if tcfg.log_path is not None:
        write_training_log(tcfg.log_path, history)
    return w, history


def write_training_log(path, history):
    write_atomic(path, "step,loss\n" + "".join(
        f"{step},{loss:.10g}\n" for step, loss in history))


# ---------------------------------------------------------------------------
# Gradient check
# ---------------------------------------------------------------------------


def grad_check(cfg: ModelConfig, w: Weights, x: np.ndarray, y: np.ndarray,
               mask: ComponentMask | None = None, n_samples: int = 120,
               step: float = 1e-5, seed: int = 0) -> float:
    """Max relative deviation between analytic and central-FD gradients.

    Samples parameter entries across every block (proportionally more from
    larger blocks, at least one from each). The relative deviation is floored
    at 1e-6 absolute scale so that float rounding on near-zero gradients does
    not register; intended for tiny configs where FD is trustworthy.
    """
    logits, tape = forward_train(cfg, w, mask, x)
    _, dlogits = cross_entropy(logits, y)
    grads = backward_train(cfg, w, tape, dlogits)
    rng = RngState(seed)
    names = list(w.names)
    sizes = np.array([w[n].size for n in names], dtype=np.float64)
    per_block = np.maximum(1, (n_samples * sizes / sizes.sum()).astype(int))
    worst = 0.0
    for name, take in zip(names, per_block):
        arr = w.blocks[name]
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        idxs = {int(rng.integers(0, flat.size)) for _ in range(int(take))}
        for j in idxs:
            orig = flat[j]
            flat[j] = orig + step
            up = evaluate_loss(cfg, w, mask, x, y)
            flat[j] = orig - step
            down = evaluate_loss(cfg, w, mask, x, y)
            flat[j] = orig
            fd = (up - down) / (2.0 * step)
            an = gflat[j]
            dev = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
            worst = max(worst, dev)
    return worst
