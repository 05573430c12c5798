"""Numerical kernels: bracketed ITP root finding on an array of brackets at
once (``find_roots``; ``find_root`` is its one-bracket call), Gauss-Legendre
quadrature with breakpoints (reference rules cached per order), and the dense
symmetric eigensolve (LAPACK ``eigh``, or ``eigvalsh`` for eigenvalues only).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class NumericsError(Exception):
    pass


class NoSignChange(NumericsError):
    """Root bracket endpoints do not straddle a sign change."""


class NonFinite(NumericsError):
    """A function sample came back nan or inf."""


class NoConvergence(NumericsError):
    """Iteration cap exceeded."""


# bytes of each temporary of a blocked array pass (mass contraction, torsional scan)
_BLOCK_BYTES = 1 << 18


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------
# ITP (interpolate, truncate, project; Oliveira & Takahashi, ACM TOMS 47(1),
# 2020).  Each step takes the regula falsi point x_f, moves it toward the
# midpoint by delta = k1 (hi - lo)^2 with k1 = _ITP_K1 / (initial width), and
# projects it into the ball around the midpoint whose radius keeps the bracket
# within tol 2^(n_max - j) after step j, n_max being bisection's step count
# plus _ITP_N0.  So no bracket takes more than _ITP_N0 steps over bisection
# (one more when rounding puts the last projected point an ulp outside that
# bound), and a smooth simple root takes far fewer.  The trial point is then
# clipped to [lo + tol/2, hi - tol/2]: once the interpolant has converged on a
# root next to an endpoint, that one step closes the bracket.

_ITP_K1 = 0.2
_ITP_N0 = 4


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


def find_root(f: Callable[[np.ndarray], np.ndarray], bracket: Bracket,
              tol_rel: float = 1e-12) -> float:
    """find_roots on the one bracket: f takes and returns arrays."""
    return float(find_roots(f, [bracket.lo], [bracket.hi], tol_rel)[0])


def find_roots(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray,
               tol_rel: float = 1e-12) -> np.ndarray:
    """Roots of f on every bracket [lo[i], hi[i]] at once, by ITP.

    A bracket stops once hi - lo <= tol_rel * max(1, |lo|, |hi|) (of the given
    bracket) and returns its midpoint; an exact zero is returned at once.  No
    bracket takes more than _ITP_N0 + 1 steps over bisection, and the sign
    condition f(lo) * f(hi) < 0 is verified at solve time.  f is called once
    per step, on the array of all trial points (a converged bracket's is its
    midpoint), so the count of calls is that of the slowest bracket; brackets
    do not interact, so each root is the one a one-bracket solve returns.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    if lo.size == 0:
        return lo
    if not np.all(lo < hi):
        raise ValueError("every bracket requires lo < hi")
    flo, fhi = f(lo), f(hi)
    if not (np.all(np.isfinite(flo)) and np.all(np.isfinite(fhi))):
        raise NonFinite("f non-finite at bracket endpoints")
    neg = flo < 0.0
    same = (flo != 0.0) & (fhi != 0.0) & (neg == (fhi < 0.0))
    if np.any(same):
        i = int(np.argmax(same))
        raise NoSignChange(f"f({lo[i]})={flo[i]} and f({hi[i]})={fhi[i]} have the same sign")

    tol = tol_rel * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    half = 0.5 * tol
    k1 = _ITP_K1 / (hi - lo)
    # bisection's step count ceil(log2(width / tol)), exact through frexp
    frac, exp = np.frexp((hi - lo) / tol)
    n_max = exp - (frac == 0.5) + _ITP_N0
    # an endpoint root closes its bracket (the lower one first); a nonzero fhi
    # keeps the closed bracket's interpolant finite
    hi = np.where(flo == 0.0, lo, hi)
    fhi = np.where(flo == 0.0, -1.0, fhi)
    lo = np.where(fhi == 0.0, hi, lo)
    j = 0
    while True:
        mid = 0.5 * (lo + hi)
        w = hi - lo
        # brackets at tolerance or at floating point resolution stay put
        active = (w > tol) & (lo < mid) & (mid < hi)
        if not active.any():
            return mid
        x_f = lo + w * (flo / (flo - fhi))
        d = mid - x_f
        sign = np.sign(d)
        delta = k1 * (w * w)
        x_t = np.where(delta <= np.abs(d), x_f + sign * delta, mid)
        r = np.ldexp(half, n_max - j) - 0.5 * w
        x = np.where(np.abs(x_t - mid) <= r, x_t, mid - sign * r)
        x = np.minimum(np.maximum(x, lo + half), hi - half)
        x = np.where(active & (lo < x) & (x < hi), x, mid)
        fx = f(x)
        if not np.all(np.isfinite(fx) | ~active):
            raise NonFinite("non-finite f sample inside a bracket")
        below, zero = fx < 0.0, fx == 0.0
        to_lo = active & (below == neg) & ~zero
        to_hi = active & (below != neg) & ~zero
        lo = np.where(to_lo | (active & zero), x, lo)
        hi = np.where(to_hi | (active & zero), x, hi)
        flo = np.where(to_lo, fx, flo)
        fhi = np.where(to_hi, fx, fhi)
        j += 1


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """1D Gauss-Legendre rule of the given order on each piece of [a, b]
    split at breakpoints into smooth pieces."""

    a: float
    b: float
    order: int = 24
    breakpoints: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"empty interval [{self.a}, {self.b}]")
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        pts = tuple(float(t) for t in self.breakpoints)
        if any(t2 <= t1 for t1, t2 in zip(pts, pts[1:])):
            raise ValueError(f"breakpoints must be strictly increasing: {pts}")
        if pts and not (self.a < pts[0] and pts[-1] < self.b):
            raise ValueError(f"breakpoints must lie strictly inside ({self.a}, {self.b})")
        object.__setattr__(self, "breakpoints", pts)

    def pieces(self) -> list[tuple[float, float]]:
        edges = [self.a, *self.breakpoints, self.b]
        return list(zip(edges[:-1], edges[1:]))

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated nodes and weights over all pieces (fixed order), as
        new arrays on every call."""
        ref_x, ref_w = _gauss_legendre(self.order)
        xs: list[np.ndarray] = []
        ws: list[np.ndarray] = []
        for (a, b) in self.pieces():
            xs.append(0.5 * (b - a) * ref_x + 0.5 * (a + b))
            ws.append(0.5 * (b - a) * ref_w)
        return np.concatenate(xs), np.concatenate(ws)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


# ---------------------------------------------------------------------------
# dense symmetric eigensolver
# ---------------------------------------------------------------------------

def sym_eig(matrix: np.ndarray, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigen-decomposition of a symmetric matrix by LAPACK's symmetric solver,
    reading only the upper triangle.

    Returns (eigenvalues ascending, eigenvectors as orthonormal columns).
    Deterministic sign convention: the largest-magnitude component of each
    eigenvector is positive (first index on ties).

    With vectors=False only the eigenvalues are computed
    (``numpy.linalg.eigvalsh``), about half the work of ``numpy.linalg.eigh``
    at n = 100, and (eigenvalues, None) is returned. LAPACK reaches them by
    another tridiagonal eigensolver, so they can differ from the vector
    path's in the last bits (up to 3.5e-11 relative, on the smallest
    eigenvalue of a 100-mode weighted solve's scaled mass matrix).
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFinite("non-finite matrix entries")
    try:
        # both read the lower triangle of a.T, which is a's upper triangle
        if not vectors:
            return np.linalg.eigvalsh(a.T), None
        evals, vecs = np.linalg.eigh(a.T)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from exc
    cols = np.arange(vecs.shape[1])
    lead = vecs[np.argmax(np.abs(vecs), axis=0), cols]
    return evals, vecs * np.where(lead < 0.0, -1.0, 1.0)
