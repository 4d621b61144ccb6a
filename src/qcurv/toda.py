"""Truncated interaction operators along a tower and their explicit inverses.

Both operators are upper-triangular three-band Toeplitz systems acting on
level sequences: row j reads -x_j + (1+c) x_{j+1} - c x_{j+2}, with c = 1
for the dilation kind and c = e^{-2L} for the translation kind.  Rows sum
to zero, so constant sequences are annihilated wherever the full band fits.
The symbol factors as -(1-z)(1-cz), which makes the inverse an explicit
forward summation with geometric partial sums

    x_j = -sum_{k>=j} g_{k-j+1} b_k,   g_m = (1 - c^m)/(1 - c)  (g_m = m at c=1),

evaluated here by one backward scan instead of a dense factorization; the
dense solve of the truncation is kept as a test oracle.  Levels at index K
and beyond are treated as zero, consistent with the decaying sequence class.
Sequences are (K,) scalar levels or (K, n) vector levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import _check_finite

__all__ = [
    "TodaOperator",
    "apply",
    "invert",
    "amplification",
]

KINDS = ("translation", "dilation")


@dataclass(frozen=True)
class TodaOperator:
    kind: str
    K: int
    period: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.K < 3:
            raise ValueError("need at least three levels")
        if self.kind == "translation":
            if self.period is None or not 0 < self.period < np.inf:
                raise ValueError("translation kind needs a positive, finite "
                                 "period")
        elif self.period is not None:
            raise ValueError("dilation kind takes no period")

    @property
    def c(self) -> float:
        if self.kind == "dilation":
            return 1.0
        return float(np.exp(-2.0 * self.period))

    def weights(self) -> np.ndarray:
        """g_1..g_K of the explicit inverse; expm1 keeps them accurate as
        the period goes to 0, where 1 - c cancels."""
        m = np.arange(1, self.K + 1, dtype=float)
        if self.kind == "dilation":
            return m
        return np.expm1(-2.0 * self.period * m) / np.expm1(-2.0 * self.period)


def _check_dim(op: TodaOperator, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[0] != op.K:
        raise ValueError(f"sequence has {x.shape[0]} levels, operator {op.K}")
    return x


def apply(op: TodaOperator, b: np.ndarray) -> np.ndarray:
    """Banded product; references past the truncation read as zero."""
    x = _check_dim(op, b)
    c = op.c
    out = -x.copy()
    out[:-1] += (1.0 + c) * x[1:]
    out[:-2] -= c * x[2:]
    return out


def invert(op: TodaOperator, b: np.ndarray) -> np.ndarray:
    """Solves the truncated system exactly by the forward summation.

    With plain_j = sum_{k>=j} b_k, the sums d_j = sum_{k>=j} g_{k-j+1} b_k
    obey d_j = plain_j + c d_{j+1}, so one backward scan gives x = -d for
    both kinds.  Nothing is divided by 1 - c, so the scan keeps full
    relative accuracy as the period goes to 0.
    """
    x = _check_dim(op, b)
    c = op.c
    plain = np.flip(np.cumsum(np.flip(x, 0), axis=0), 0)
    d = np.empty_like(x)
    acc = np.zeros(x.shape[1:])
    for k in range(op.K - 1, -1, -1):
        acc = plain[k] + c * acc
        d[k] = acc
    return -d


def amplification(op: TodaOperator, tau: float) -> float:
    """Worst-case gain of invert on the tau-weighted unit ball, where the
    norm of b is max_j e^{(2j+1) tau} |b_j|.

    The aligned sequence b_k = -e^{-(2k+1) tau} attains it at level 0:
    sum_m g_m e^{-2(m-1) tau}.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    _check_finite("tau", tau)
    m = np.arange(1, op.K + 1, dtype=float)
    return float(np.sum(op.weights() * np.exp(-2.0 * (m - 1.0) * tau)))
