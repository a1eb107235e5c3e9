"""Training for the toy models: hand-rolled backprop and Adam over the model's
own forward.

The forward is :func:`speclab.model.forward`, the same block math that
scoring and decoding run, here over B windows from position 0, with a tape
of what the backward needs. This module keeps what is training's own: the
backward, the optimizer, the loop and the finite-difference gradient check
that pins the backward to the forward.

The tape keeps each block's rmsnorm cache, the recurrent decay, and
attention's row max and softmax denominator. Everything else is rebuilt by
the forward's own expressions in the forward's order, so every rebuilt
array has the forward's bits (Chen et al. 2016's rematerialisation, arXiv
1604.06174): each block's normalised input as ``x * (g * r)``; ``upre``,
``bm``, ``cm``, ``q``, ``k``, ``v`` and ``pre`` by their weight products on
it; the sigmoids ``usig`` and ``sig``, cheaper to rebuild than to keep; the
gate products; the attention probabilities from ``q``, ``k``, the row max
and the denominator, and the context ``w @ v``; and the state history. The
SSM and attention backwards work ``_BWD_ROWS`` batch rows at a time. The
SSM backward rebuilds the rows' states by the forward's chunked scan from
zero and scans in the same call their reverse-time recurrence on the
time-flipped input, on contiguous (d_model, d_state) rows, and sums the
decay gradient's state axis as whole-column adds in NumPy's own order. The
attention backward rebuilds the rows' probabilities and forms the
gradients through them, as FlashAttention recomputes them in blocks (Dao
et al. 2022, arXiv 2205.14135); each weight gradient stays one product over
all rows, so its sums keep their order. The FFN backward frees its
activation, input and sigmoid before it forms the output gradient. So the
tape holds no (T, T) term, state history or sigmoid, and the backward makes
no (B, T, d_model, d_state) or (B, heads, T, T) array: on the parallel
acceptance toy (B = 8, T = 96, float32) the tape is 5.4 MB and a traced
step peaks at 13.2 MB (33.8 MB at the full context, T = 256).

Training computes in float32: the forward, the tape, the backward and the
gradients stay float32 end to end, against float64 master weights and a
float64 Adam; the blocks scale by python floats, which never promote a
float32 array under NumPy 2's scalar rules. The blocks are dtype-generic,
so :func:`grad_check` runs the same forward and backward in float64.

A training step holds one tape: each step's casts, tape, logits and
gradients are freed before the next step's forward starts, and the logits
as soon as their loss gradient is formed. Before its first step
:func:`train` has glibc keep freed pages for the rest of the process, which
changes no arithmetic: under glibc's defaults each step of a fresh process
took about 27,000 minor page faults on the toy above, and a fifth to a
quarter longer. Evaluation (:func:`evaluate_loss`, the
finite-difference probes of :func:`grad_check`) records no tape.

Master weights are float64 and everything is deterministic from the seed:
weight init and batch sampling both run on counter-based Philox streams, and
the loop itself is single-threaded numpy.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import write_atomic
from .corpus import load_corpus, sample_windows
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
from .numerics import RngState, log_softmax, sigmoid


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

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.batch_size < 1 or self.seq_len < 2:
            raise ValueError("batch_size >= 1 and seq_len >= 2 required")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")


def sample_batch(corpus: np.ndarray, batch_size: int, seq_len: int,
                 rng: RngState):
    """(inputs, targets) windows drawn uniformly from the corpus."""
    window = sample_windows(corpus, batch_size, seq_len + 1, rng)
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


def _silu_grad(pre, sig):
    """The SiLU's derivative ``sig * (1 + pre * (1 - sig))`` at ``pre``
    (``sig = sigmoid(pre)``), formed in place in one new array with the
    operands in that order. A backward scales it in place by the output
    gradient, ``np.multiply(dy, grad, out=grad)``, which gives the bits of
    ``dy * (sig * (1 + pre * (1 - sig)))``; so ``dy`` can be formed after
    ``pre`` and ``sig`` are freed."""
    out = np.subtract(1.0, sig)
    np.multiply(pre, out, out=out)
    np.add(1.0, out, out=out)
    return np.multiply(sig, out, out=out)


def _flat(x):
    return x.reshape(-1, x.shape[-1])


def _heads(x, n_heads):
    """The (B, heads, T, d_head) view of the (B, T, d) rows ``x``."""
    B, T, d = x.shape
    return x.reshape(B, T, n_heads, d // n_heads).transpose(0, 2, 1, 3)


# batch rows per group of the SSM and attention backwards. A recurrent
# group's scan buffer holds its states and adjoint states, 2 * _BWD_ROWS / B
# of one (B, T, d_model, d_state) history; an attention group's
# probabilities and their gradient, 2 * _BWD_ROWS / B of one layer's
# (B, heads, T, T) probabilities. Two rows keep the SSM backward's peak plus
# the layer's tape under two histories at B = 8 and make half as many scan
# calls as one row.
_BWD_ROWS = 2


def _attn_bwd(p, dout, cache, n_heads, grads, prefix):
    ncache, row_max, denom = cache
    B, T, d = dout.shape
    # q, k and v by the forward's own products, bit for bit
    x2 = _flat(rmsnorm_output(ncache))
    q, k, v = (_heads((x2 @ wm).reshape(B, T, d), n_heads)
               for wm in (p.wq, p.wk, p.wv))
    bias = causal_bias(T, 0, q.dtype)
    do2 = _flat(dout)
    dctx = _heads((do2 @ p.wo.T).reshape(B, T, d), n_heads)
    ctx, dq, dk, dv = (np.empty((B, T, d), q.dtype) for _ in range(4))
    for b in range(0, B, _BWD_ROWS):
        # a group of batch rows at a time: the rows' probabilities by the
        # forward's steps (scores, minus the max, exp, over the denominator),
        # their context and the gradients through them; so no (B, heads,
        # T, T) array is made
        g = slice(b, b + _BWD_ROWS)
        w = attn_scores(q[g], k[g], bias)
        w -= row_max[g]
        np.exp(w, out=w)
        w /= denom[g]
        _heads(ctx[g], n_heads)[...] = w @ v[g]
        _heads(dv[g], n_heads)[...] = w.transpose(0, 1, 3, 2) @ dctx[g]
        # d loss / d w, then in place the scores' gradient
        dscores = dctx[g] @ v[g].transpose(0, 1, 3, 2)
        dscores -= np.sum(dscores * w, axis=-1, keepdims=True)
        dscores *= w
        dscores /= math.sqrt(q.shape[-1])
        _heads(dq[g], n_heads)[...] = dscores @ k[g]
        _heads(dk[g], n_heads)[...] = dscores.transpose(0, 1, 3, 2) @ q[g]
        del w, dscores     # before the next group's are made
    grads[prefix + "wo"] += _flat(ctx).T @ do2
    dq2, dk2, dv2 = _flat(dq), _flat(dk), _flat(dv)
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
    ncache, decay = cache
    B, T, d = dout.shape
    # the gate and the state projections by the forward's expressions
    x2 = _flat(rmsnorm_output(ncache))
    upre = (x2 @ p.w_in).reshape(B, T, d)
    usig = sigmoid(upre)
    bm = (x2 @ p.w_b).reshape(B, T, -1)
    cm = (x2 @ p.w_c).reshape(B, T, -1)
    u = upre * usig
    do2 = _flat(dout)
    dy = np.ascontiguousarray((do2 @ p.w_out.T).reshape(B, T, d))
    grads[prefix + "skip_gain"] += np.sum(dy * u, axis=(0, 1))
    du = dy * p.skip_gain
    y_skip = np.empty_like(u)
    dbm = np.empty_like(bm)
    dcm = np.empty_like(cm)
    rows = np.empty((B, T - 1, d), dtype=u.dtype)
    for b in range(0, B, _BWD_ROWS):
        # a group of batch rows at a time, two scans from zero in one call:
        # the rows' states, by the forward's scan, and the reverse-time
        # recurrence dS_t = decay * dS_{t+1} + dy_t (x) C_t on the flipped
        # rows; so no array the size of the history is made
        g = slice(b, b + _BWD_ROWS)
        n = len(u[g])
        scans = _linear_scan(decay, _scan_inputs(
            np.concatenate([u[g], dy[g, ::-1]]),
            np.concatenate([bm[g], cm[g, ::-1]])), 0.0)[:, :T]
        states, d_states = scans[:n], scans[n:, ::-1]
        y_skip[g] = (states @ cm[g, :, :, None])[..., 0] + p.skip_gain * u[g]
        dcm[g] = (dy[g, :, None, :] @ states)[:, :, 0, :]
        du[g] += (d_states @ bm[g, :, :, None])[..., 0]
        dbm[g] = (u[g, :, None, :] @ d_states)[:, :, 0, :]
        # the decay gradient's sum over axes (0, 1, 3) in its order: each
        # state row pairwise, then the (b, t) rows in turn
        rows[g] = _row_sums(np.multiply(d_states[:, 1:], states[:, :-1],
                                        out=states[:, :-1]))
        del scans, states, d_states    # before the next group's are made
    grads[prefix + "w_out"] += _flat(y_skip).T @ do2
    da = rows.reshape(-1, d).sum(axis=0)
    a = decay[:, 0]
    grads[prefix + "decay_raw"] += da * a * (1.0 - a)
    dupre = _silu_grad(upre, usig)
    np.multiply(du, dupre, out=dupre)
    del rows, dy, du     # so the input gradient's peak stays below the loop's
    du2, dbm2, dcm2 = _flat(dupre), _flat(dbm), _flat(dcm)
    grads[prefix + "w_in"] += x2.T @ du2
    grads[prefix + "w_b"] += x2.T @ dbm2
    grads[prefix + "w_c"] += x2.T @ dcm2
    dxs = (du2 @ p.w_in.T + dbm2 @ p.w_b.T + dcm2 @ p.w_c.T).reshape(B, T, d)
    dh_, dg = _rms_bwd(dxs, ncache)
    grads[prefix + "norm_g"] += dg
    return dh_


def _ffn_bwd(p, dout, cache, grads, prefix):
    ncache, = cache
    B, T, d = dout.shape
    x2 = _flat(rmsnorm_output(ncache))
    pre = x2 @ p.w1
    sig = sigmoid(pre)
    act = pre * sig
    do2 = _flat(dout)
    grads[prefix + "w2"] += act.T @ do2
    del act
    dpre = _silu_grad(pre, sig)
    del pre, sig
    np.multiply(do2 @ p.w2.T, dpre, out=dpre)
    grads[prefix + "w1"] += x2.T @ dpre
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


def _train_step(cfg: ModelConfig, w: Weights, opt: Adam, x, y,
                step: int) -> float:
    """One float32 forward, backward and Adam step of the full model on the
    batch ``(x, y)``; returns the loss. The casts, tape and gradients are
    locals, freed when it returns, before the next step's forward builds its
    own tape; the logits go once ``cross_entropy`` has read them."""
    wc = {n: a.astype(np.float32) for n, a in w.items()}
    logits, tape = forward_train(cfg, wc, None, x)
    loss, dlogits = cross_entropy(logits, y)
    del logits
    if not np.isfinite(loss):
        raise TrainingDiverged(step)
    grads = backward_train(cfg, wc, tape, dlogits)
    opt.step(w, grads)
    return float(loss)


def _keep_freed_pages():
    """Have glibc keep the pages a training step frees, so that the next
    step reuses them instead of faulting fresh ones in: no free returns heap
    memory to the kernel below 1 GiB at the heap's top, and blocks under
    32 MiB (every array of a toy step) come from the heap, not from mmap.

    The setting is the whole process's and lasts until it exits (it also
    turns off glibc's adaptive mmap threshold). Where libc has no
    ``mallopt`` it does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 1 << 30)     # M_TRIM_THRESHOLD of glibc's malloc.h
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD, at glibc's maximum


def train(cfg: ModelConfig, tcfg: TrainConfig):
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
    history: list[tuple[int, float]] = []
    _keep_freed_pages()
    for step in range(tcfg.steps):
        x, y = sample_batch(corpus, tcfg.batch_size, tcfg.seq_len, data_rng)
        history.append((step, _train_step(cfg, w, opt, x, y, step)))
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
               step: float = 1e-5) -> float:
    """Max relative deviation between analytic and central-FD gradients.

    Samples parameter entries across every block (proportionally more from
    larger blocks, at least one from each). The relative deviation is floored
    at 1e-6 absolute scale so that float rounding on near-zero gradients does
    not register; intended for tiny configs where FD is trustworthy.
    """
    logits, tape = forward_train(cfg, w, mask, x)
    _, dlogits = cross_entropy(logits, y)
    grads = backward_train(cfg, w, tape, dlogits)
    rng = RngState(0)
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
