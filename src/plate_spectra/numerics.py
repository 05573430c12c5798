"""Numerical kernels: bracketed bisection for one bracket (``find_root``) or
for an array of brackets at once (``find_roots``), Gauss-Legendre
quadrature with breakpoints (reference rules cached per order), and the dense
symmetric eigensolve (LAPACK ``eigh``).
"""
from __future__ import annotations

import functools
import math
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


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


def find_root(f: Callable[[float], float], bracket: Bracket,
              tol_rel: float = 1e-12) -> float:
    """Bisection root of f on the bracket, to relative width tol_rel.

    The sign condition f(lo)*f(hi) < 0 is verified at solve time.
    """
    lo, hi = float(bracket.lo), float(bracket.hi)
    flo, fhi = float(f(lo)), float(f(hi))
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        raise NonFinite(f"f non-finite at bracket endpoints: f({lo})={flo}, f({hi})={fhi}")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise NoSignChange(f"f({lo})={flo} and f({hi})={fhi} have the same sign")

    scale = max(1.0, abs(lo), abs(hi))
    while hi - lo > tol_rel * scale:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval at floating point resolution
        fmid = float(f(mid))
        if not math.isfinite(fmid):
            raise NonFinite(f"f({mid}) = {fmid}")
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_roots(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray,
               tol_rel: float = 1e-12) -> np.ndarray:
    """find_root on every bracket [lo[i], hi[i]] at once.

    Each bracket takes the same bisection steps and stopping rule as
    find_root; f is called once per step, on the array of all midpoints.
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
    # an endpoint root closes its bracket (the lower one first, as in find_root)
    hi = np.where(flo == 0.0, lo, hi)
    lo = np.where(fhi == 0.0, hi, lo)
    while True:
        mid = 0.5 * (lo + hi)
        # brackets at tolerance or at floating point resolution stay put
        active = (hi - lo > tol) & (lo < mid) & (mid < hi)
        if not active.any():
            return mid
        fmid = f(mid)
        if not np.all(np.isfinite(fmid) | ~active):
            raise NonFinite("non-finite f sample inside a bracket")
        below, zero = fmid < 0.0, fmid == 0.0
        lo = np.where(active & ((below == neg) | zero), mid, lo)
        hi = np.where(active & ((below != neg) | zero), mid, hi)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

GAUSS_LEGENDRE = "gauss-legendre"
COMPOSITE_MIDPOINT = "composite-midpoint"


@dataclass(frozen=True)
class QuadratureRule:
    """1D rule on [a, b] split at breakpoints into smooth pieces.

    order is the Gauss-Legendre order per piece, or the cell count per piece
    for the composite midpoint rule.
    """

    a: float
    b: float
    kind: str = GAUSS_LEGENDRE
    order: int = 24
    breakpoints: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"empty interval [{self.a}, {self.b}]")
        if self.kind not in (GAUSS_LEGENDRE, COMPOSITE_MIDPOINT):
            raise ValueError(f"unknown rule kind {self.kind!r}")
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
        xs: list[np.ndarray] = []
        ws: list[np.ndarray] = []
        if self.kind == GAUSS_LEGENDRE:
            ref_x, ref_w = _gauss_legendre(self.order)
            for (a, b) in self.pieces():
                xs.append(0.5 * (b - a) * ref_x + 0.5 * (a + b))
                ws.append(0.5 * (b - a) * ref_w)
        else:
            for (a, b) in self.pieces():
                h = (b - a) / self.order
                xs.append(a + h * (np.arange(self.order) + 0.5))
                ws.append(np.full(self.order, h))
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

@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense symmetric matrix; symmetry is exact by construction."""

    a: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NonFinite("non-finite entries in SymMatrix")
        # mirror the upper triangle so A is bitwise symmetric
        sym = np.triu(a) + np.triu(a, 1).T
        object.__setattr__(self, "a", sym)

    @property
    def n(self) -> int:
        return self.a.shape[0]


def sym_eig(matrix: SymMatrix | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix by LAPACK's symmetric solver
    (``numpy.linalg.eigh``).

    Returns (eigenvalues ascending, eigenvectors as orthonormal columns).
    Deterministic sign convention: the largest-magnitude component of each
    eigenvector is positive (first index on ties).
    """
    if not isinstance(matrix, SymMatrix):
        matrix = SymMatrix(np.asarray(matrix, dtype=float))
    try:
        evals, vecs = np.linalg.eigh(matrix.a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from exc
    cols = np.arange(vecs.shape[1])
    lead = vecs[np.argmax(np.abs(vecs), axis=0), cols]
    return evals, vecs * np.where(lead < 0.0, -1.0, 1.0)
