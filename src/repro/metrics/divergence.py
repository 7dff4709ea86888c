"""Jensen–Shannon divergence, the workhorse distance of Section V-B.

Natural-log JSD is bounded by ``ln 2 ≈ 0.6931`` — the ceiling visible in the
paper's Length Error rows for baselines whose synthetic distribution shares
no support with the real one.
"""

from __future__ import annotations

import numpy as np

LN2 = float(np.log(2.0))


def _normalize(p: np.ndarray) -> np.ndarray:
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    total = p.sum()
    if total <= 0.0:
        return np.full(p.shape, 1.0 / p.size)
    return p / total


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats; contributions with ``p_i = 0`` are zero."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def jensen_shannon_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """JSD(p, q) in nats over a shared support; inputs are renormalised.

    Both inputs may be unnormalised count vectors.  An all-zero vector is
    treated as uniform (the convention used for empty timestamps).
    """
    p = _normalize(p)
    q = _normalize(q)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    d = 0.5 * _kl_to_mixture(p, q) + 0.5 * _kl_to_mixture(q, p)
    # Rounding can leave near-identical inputs a few ulps below zero.
    return min(max(d, 0.0), LN2)


def _kl_to_mixture(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || (p + q) / 2) without forming the mixture.

    Halving ``p + q`` underflows to 0 on a subnormal entry, which would make
    the log-ratio infinite; ``2p / (p + q)`` never exceeds 2, so each term
    stays within its true ceiling ``p·ln 2``.  For normal floats the ratio
    equals ``p / m`` bit for bit (both differ from ``p / (p + q)`` by an
    exact power of two).
    """
    mask = p > 0
    pm = p[mask]
    return float(np.sum(pm * np.log(2.0 * pm / (pm + q[mask]))))


def jsd_from_counts(
    counts_a: dict, counts_b: dict
) -> float:
    """JSD between two sparse count dictionaries over their support union."""
    support = sorted(set(counts_a) | set(counts_b))
    if not support:
        return 0.0
    a = np.asarray([counts_a.get(s, 0) for s in support], dtype=float)
    b = np.asarray([counts_b.get(s, 0) for s in support], dtype=float)
    return jensen_shannon_divergence(a, b)
