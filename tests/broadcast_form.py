"""Reference forms the model's training code must equal bit for bit.

The recurrent branch in its broadcast form: here the decay is the (d,)
vector ``sigmoid(decay_raw)``, computed in the block and broadcast along the
state axis (``decay[None, None, :, None]``, ``powers[None, None, :, :, None]
* carry[:, :, None]``), the outer products are broadcast multiplies
(``u[..., None] * bm[:, :, None, :]``), the backward scans the time-flipped
view ``q[:, ::-1]``, and the decay gradient is one ``sum(axis=(0, 1, 3))``.
The model holds the decay spread over (d_model, d_state) in its layer plan,
writes the outer products on contiguous state rows and sums the decay
gradient's state axis as column adds; each element's arithmetic is the same.

``ssm_block`` and ``ssm_bwd`` take and record what ``speclab.model.ssm_block``
and ``speclab.training._ssm_bwd`` do, so a test can put them in their place;
the backward rebuilds the whole state history at once, where the model's
rebuilds it two batch rows at a time, and forms the SiLU's input gradient as
one expression, where the model's forms it in place.

``attn_bwd`` is the attention backward over all batch rows at once, where
``speclab.training._attn_bwd`` rebuilds the probabilities and forms the
gradients through them a group of batch rows at a time. ``ffn_bwd`` is the
feed-forward backward with the SiLU's input gradient as one expression,
where ``speclab.training._ffn_bwd`` forms it in place.
"""

import math

import numpy as np

from speclab.model import (
    _SCAN_CHUNK, attn_scores, causal_bias, rmsnorm, rmsnorm_output)
from speclab.numerics import sigmoid
from speclab.training import _flat, _rms_bwd


def linear_scan(decay, inputs, s0):
    """The chunked scan of ``S_t = decay * S_{t-1} + inputs_t`` with ``decay``
    of shape (d,)."""
    B, T, d, s = inputs.shape
    dt = inputs.dtype
    C = min(_SCAN_CHUNK, T)
    n_chunks = -(-T // C)
    Tp = n_chunks * C
    if Tp != T:
        pad = np.zeros((B, Tp - T, d, s), dtype=dt)
        inputs = np.concatenate([inputs, pad], axis=1)
    P = inputs.reshape(B, n_chunks, C, d, s)
    states = np.empty_like(P)
    acc = np.zeros((B, n_chunks, d, s), dtype=dt)
    acc[:, 0] = s0
    a = decay[None, None, :, None]
    for t in range(C):
        acc = a * acc + P[:, :, t]
        states[:, :, t] = acc
    if n_chunks > 1:
        a_chunk = decay ** C
        carry = np.zeros((B, n_chunks, d, s), dtype=dt)
        run = np.zeros((B, d, s), dtype=dt)
        for c in range(1, n_chunks):
            run = a_chunk[None, :, None] * run + states[:, c - 1, C - 1]
            carry[:, c] = run
        powers = decay[None, :] ** np.arange(1, C + 1, dtype=dt)[:, None]
        states += powers[None, None, :, :, None] * carry[:, :, None]
    return states.reshape(B, Tp, d, s)[:, :T]


def ssm_block(p, decay, h, s0, tape=None):
    """The recurrent branch; ignores the plan's ``decay`` and derives the
    (d,) one from ``p.decay_raw``, which its tape records."""
    B, T, d = h.shape
    xs, ncache = rmsnorm(h, p.norm_g)
    x2 = xs.reshape(B * T, d)
    upre = (x2 @ p.w_in).reshape(B, T, d)
    usig = sigmoid(upre)
    u = upre * usig
    bm = (x2 @ p.w_b).reshape(B, T, -1)
    cm = (x2 @ p.w_c).reshape(B, T, -1)
    decay = sigmoid(p.decay_raw)
    states = linear_scan(decay, u[..., None] * bm[:, :, None, :], s0)
    y_skip = (states @ cm[..., None])[..., 0] + p.skip_gain * u
    out = y_skip.reshape(B * T, d) @ p.w_out
    if tape is not None:
        tape["ssm"] = (p, (ncache, decay))
    return out.reshape(B, T, d), states


def ssm_bwd(p, dout, cache, grads, prefix):
    """The recurrent branch's backward over a tape of :func:`ssm_block`,
    which rebuilds the gate, the projections and the whole state history at
    once."""
    ncache, decay = cache
    B, T, d = dout.shape
    x2 = _flat(rmsnorm_output(ncache))
    upre = (x2 @ p.w_in).reshape(B, T, d)
    usig = sigmoid(upre)
    u = upre * usig
    bm = (x2 @ p.w_b).reshape(B, T, -1)
    cm = (x2 @ p.w_c).reshape(B, T, -1)
    states = linear_scan(decay, u[..., None] * bm[:, :, None, :], 0.0)
    y_skip = (states @ cm[..., None])[..., 0] + p.skip_gain * u
    do2 = _flat(dout)
    grads[prefix + "w_out"] += _flat(y_skip).T @ do2
    dy = np.ascontiguousarray((do2 @ p.w_out.T).reshape(B, T, d))
    grads[prefix + "skip_gain"] += np.sum(dy * u, axis=(0, 1))
    du = dy * p.skip_gain
    dcm = (dy[:, :, None, :] @ states)[:, :, 0, :]
    q = dy[..., None] * cm[:, :, None, :]
    d_states = linear_scan(decay, q[:, ::-1], 0.0)[:, ::-1]
    da = (d_states[:, 1:] * states[:, :-1]).sum(axis=(0, 1, 3))
    du += (d_states @ bm[..., None])[..., 0]
    dbm = (u[:, :, None, :] @ d_states)[:, :, 0, :]
    grads[prefix + "decay_raw"] += da * decay * (1.0 - decay)
    dupre = du * (usig * (1.0 + upre * (1.0 - usig)))
    du2, dbm2, dcm2 = _flat(dupre), _flat(dbm), _flat(dcm)
    grads[prefix + "w_in"] += x2.T @ du2
    grads[prefix + "w_b"] += x2.T @ dbm2
    grads[prefix + "w_c"] += x2.T @ dcm2
    dxs = (du2 @ p.w_in.T + dbm2 @ p.w_b.T + dcm2 @ p.w_c.T).reshape(B, T, d)
    dh_, dg = _rms_bwd(dxs, ncache)
    grads[prefix + "norm_g"] += dg
    return dh_


def attn_bwd(p, dout, cache, n_heads, grads, prefix):
    """The attention backward over a training tape, which rebuilds the
    probabilities of every batch row at once."""
    ncache, row_max, denom = cache
    B, T, d = dout.shape
    dh = d // n_heads
    x2 = _flat(rmsnorm_output(ncache))
    q, k, v = ((x2 @ wm).reshape(B, T, n_heads, dh).transpose(0, 2, 1, 3)
               for wm in (p.wq, p.wk, p.wv))
    w = attn_scores(q, k, causal_bias(T, 0, q.dtype))
    w -= row_max
    np.exp(w, out=w)
    w /= denom
    ctx = (w @ v).transpose(0, 2, 1, 3).reshape(B, T, d)
    do2 = _flat(dout)
    grads[prefix + "wo"] += _flat(ctx).T @ do2
    dctx = (do2 @ p.wo.T).reshape(B, T, n_heads, dh).transpose(0, 2, 1, 3)
    dv = w.transpose(0, 1, 3, 2) @ dctx
    dscores = dctx @ v.transpose(0, 1, 3, 2)
    dscores -= np.sum(dscores * w, axis=-1, keepdims=True)
    dscores *= w
    dscores /= math.sqrt(dh)
    dq = dscores @ k
    dk = dscores.transpose(0, 1, 3, 2) @ q
    dq2, dk2, dv2 = (_flat(a.transpose(0, 2, 1, 3).reshape(B, T, d))
                     for a in (dq, dk, dv))
    grads[prefix + "wq"] += x2.T @ dq2
    grads[prefix + "wk"] += x2.T @ dk2
    grads[prefix + "wv"] += x2.T @ dv2
    dxs = (dq2 @ p.wq.T + dk2 @ p.wk.T + dv2 @ p.wv.T).reshape(B, T, d)
    dh_, dg = _rms_bwd(dxs, ncache)
    grads[prefix + "norm_g"] += dg
    return dh_


def ffn_bwd(p, dout, cache, grads, prefix):
    """The feed-forward backward over a training tape, which keeps every
    rebuilt array to the end."""
    ncache, = cache
    B, T, d = dout.shape
    x2 = _flat(rmsnorm_output(ncache))
    pre = x2 @ p.w1
    sig = sigmoid(pre)
    act = pre * sig
    do2 = _flat(dout)
    grads[prefix + "w2"] += act.T @ do2
    dact = do2 @ p.w2.T
    dpre = dact * (sig * (1.0 + pre * (1.0 - sig)))
    grads[prefix + "w1"] += x2.T @ dpre
    dxs = (dpre @ p.w1.T).reshape(B, T, d)
    dh_, dg = _rms_bwd(dxs, ncache)
    grads[prefix + "norm_g"] += dg
    return dh_


def assert_same_bits(actual, expected):
    """Equal dtype, shape and bit pattern (so -0.0 differs from 0.0)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    bits = np.dtype(f"u{actual.dtype.itemsize}")
    np.testing.assert_array_equal(np.ascontiguousarray(actual).view(bits),
                                  np.ascontiguousarray(expected).view(bits))
