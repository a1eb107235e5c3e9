"""Probability primitives and deterministic randomness.

Everything here operates on float64 numpy arrays. Distributions are plain
arrays of non-negative entries summing to 1 over the last axis; there is no
wrapper class and no validator. Randomness goes through :class:`RngState`, a
counter-based Philox generator, so that identical seeds give identical draw
sequences across runs and platforms and independent substreams can be
spawned for concurrent work.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit


class RngState:
    """Deterministic random stream backed by counter-based Philox.

    A stream is identified by its seed (plus the spawn path for substreams).
    Drawing advances an internal counter; two streams with the same seed and
    spawn path produce bitwise-identical sequences.
    """

    def __init__(self, seed: int, _seq: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._seq = _seq if _seq is not None else np.random.SeedSequence(self.seed)
        self._gen = np.random.Generator(np.random.Philox(self._seq))

    def spawn(self, n: int) -> list["RngState"]:
        """Create ``n`` independent child streams without perturbing this one."""
        return [RngState(self.seed, _seq=s) for s in self._seq.spawn(n)]

    def uniform(self) -> float:
        """One draw from U[0, 1)."""
        return float(self._gen.random())

    def uniforms(self, n: int) -> np.ndarray:
        return self._gen.random(n)

    def integers(self, low: int, high: int, size=None):
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=size)

    def normal(self, scale: float, shape) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=shape)

    def uniform_range(self, low: float, high: float, shape) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def resample_indices(self, n: int, shape) -> np.ndarray:
        """Bootstrap index draws in [0, n), shaped ``shape``."""
        return self._gen.integers(0, n, size=shape)


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Temperature softmax over the last axis.

    ``temperature == 0`` returns a one-hot at the argmax (ties broken toward
    the lowest index), matching the greedy limit.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0:
        raise ValueError("softmax of empty logits")
    if not np.all(np.isfinite(logits)):
        raise ValueError("softmax requires finite logits")
    if temperature < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        out = np.zeros_like(logits)
        idx = np.argmax(logits, axis=-1)
        np.put_along_axis(out, np.expand_dims(idx, -1), 1.0, axis=-1)
        return out
    z = logits / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def argmax_tiebreak(p: np.ndarray) -> int:
    """Index of the maximal entry; equal maxima resolve to the lowest index."""
    p = np.asarray(p)
    if p.size == 0:
        raise ValueError("argmax of empty array")
    return int(np.argmax(p))


def sample_categorical(p: np.ndarray, rng: RngState) -> int:
    """Draw an index distributed according to ``p``.

    Uses inverse-CDF with a single uniform, self-normalizing over the actual
    mass so that near-1 sums are handled exactly. All-zero mass is an error.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("cannot sample from an empty distribution")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise ValueError("categorical weights must be finite and non-negative")
    cum = np.cumsum(p)
    total = cum[-1]
    if total <= 0.0:
        raise ValueError("cannot sample from an all-zero distribution")
    u = rng.uniform() * total
    idx = int(np.searchsorted(cum, u, side="right"))
    return min(idx, p.size - 1)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (exact 0/1 in the saturated tails)."""
    return expit(x)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis, stable for large logits."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
