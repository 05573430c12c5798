"""Weighted eigenproblem in the homogeneous eigenbasis.

Expanding u = sum_m [a_m z_m + b_m theta_m] in the L2-orthonormal eigenbasis
of the uniform plate turns the weighted weak eigenproblem into, per parity,
D a = lam(p) C a with D = diag of unweighted eigenvalues and C the weighted
mass matrix C_{nm} = int_Omega p z_n z_m. The symmetric form
M = D^{-1/2} C D^{-1/2} has eigenvalues 1/lam(p).

Both weight families meet sin(a x) sin(b x) = (cos((a-b) x) - cos((a+b) x)) / 2
(angle addition), which turns every x integral or x sum of a pair of modes
into two cosine moments, at |m_a - m_b| and m_a + m_b, for k = 0..2 max m.

Band weights integrate in x in closed form: per frequency k, one sine at each
interval end, summed over the intervals, then two (n, n) gathers. A sublevel
weight lives on a cell grid; its moments sum_i cos(k x_i) p(x_i, y_j) are one
matrix product, and the y columns then go into one contraction over the upper
triangle's two moment gathers, blocked so that no temporary exceeds about
0.25 MB. The cell centres are x_i = (2i + 1) pi / (2 nx), so cos(k x_i) and
sin(m x_i) are entries of one exact-angle table of cos(pi r / (2 nx)),
r < 4 nx, accurate to an ulp or two however large k x_i is. Fields on a grid
are one matrix product of the scaled sines with the y profiles.

Two memos on the spectrum hold the tables, each table built the first time
it is read. PlateTables, one per (parity, n), hold what no grid changes: the
modes' m and 1/sqrt(lam), and the band path's default y rule (no
breakpoints) with its node profiles and their full-width Gram matrix, which
a band weight without y-band edges reads in place of its own quadrature.
They are kept for the spectrum's life. grid_basis is the only source of the
cell-grid tables: the x sines, the y profiles and the gather of the upper
triangle of each parity, and one cosine table for both. Its memo keeps the
grid it was last read on, so the solves and expansions of a density search,
and both parities of solve_weighted, share one set; a call on another grid
replaces the grid tables, not the PlateTables.

solve_weighted also does a weight's own parity-independent work once for
both of its assemblies: a sublevel weight's cell weights, and its cosine
moments when both parities read the same K moment rows; a band weight's x
matrix of each interval set when both parities have the same m list.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import PlateConfig
from .numerics import _BLOCK_BYTES, QuadratureRule, sym_eig
from .spectrum import EVEN, ODD, HomEigenpair, HomSpectrum, profile_raw
from .weights import (GridField, Sublevel, Weight, _in_intervals, cell_ys, plate_mismatch,
                      sqrt_mass_integral)


class GalerkinError(Exception):
    pass


class QuadratureFailure(GalerkinError):
    pass


class SingularMass(GalerkinError):
    pass


@dataclass(frozen=True, eq=False)
class GalerkinSpectrum:
    """Weighted eigenvalues of both parities at one truncation, ascending.
    Eigenvector coefficients come from solve_parity only."""

    mu_p: np.ndarray
    nu_p: np.ndarray
    truncation: int


# ---------------------------------------------------------------------------
# closed-form x integrals
# ---------------------------------------------------------------------------

def _x_matrix(freqs: list[int], intervals) -> np.ndarray:
    """Matrix of int sin(m_n x) sin(m_m x) over the union of intervals,
    or over all of (0, pi) when intervals is None (then exactly (pi/2) delta).

    By sin(a x) sin(b x) = (cos((a-b) x) - cos((a+b) x)) / 2 the entry is
    half[|m_n - m_m|] - half[m_n + m_m] with half[k] = (1/2) int cos(k x):
    one sine per frequency k = 1..2 max m and interval end, summed over the
    intervals before the two (n, n) gathers.
    """
    f = np.asarray(freqs, dtype=np.intp)
    if intervals is None:
        return np.where(f[:, None] == f[None, :], math.pi / 2.0, 0.0)
    ends = np.array(intervals, dtype=float)                      # (intervals, 2)
    k = np.arange(1, 2 * int(f.max()) + 1, dtype=float)
    sines = np.sin(np.multiply.outer(k, ends))                   # (K - 1, intervals, 2)
    half = np.empty(k.size + 1)
    half[0] = 0.5 * float(np.sum(ends[:, 1] - ends[:, 0]))
    half[1:] = np.sum(sines[:, :, 1] - sines[:, :, 0], axis=1) / (2.0 * k)
    return half[np.abs(f[:, None] - f[None, :])] - half[f[:, None] + f[None, :]]


# ---------------------------------------------------------------------------
# y quadrature
# ---------------------------------------------------------------------------

def _y_rule(pairs: list[HomEigenpair], cfg: PlateConfig, breakpoints) -> QuadratureRule:
    osc = max((p.c for p in pairs if p.high_branch), default=0.0)
    order = min(200, max(16, int(math.ceil(2.0 * osc * cfg.ell)) + 12))
    return QuadratureRule(-cfg.ell, cfg.ell, order=order,
                          breakpoints=tuple(breakpoints))


def _profiles_on(pairs: list[HomEigenpair], y: np.ndarray) -> np.ndarray:
    """(len(pairs), y.size) table of the normalized y profiles of modes of one
    parity, from one profile_raw call."""
    first = pairs[0]
    m, lam, norm = np.array([(p.mode.m, p.lam, p.norm_const) for p in pairs]).T[:, :, None]
    return profile_raw(m, lam, first.mode.parity, first.sigma, first.ell, y) / norm


def _inner_edges(intervals, lo: float, hi: float) -> list[float]:
    """Interval end points strictly inside (lo, hi): quadrature breakpoints."""
    return [t for a, b in intervals for t in (a, b) if lo < t < hi]


# ---------------------------------------------------------------------------
# cell-centre trig tables and the moment contraction
# ---------------------------------------------------------------------------

def _cell_trig(nx: int, freqs: np.ndarray, shift: int = 0) -> np.ndarray:
    """(nx, freqs.size) table of cos(pi (f (2i + 1) + shift) / (2 nx)); shift 0
    gives cos(f x_i) and shift 3 nx gives sin(f x_i) at the cell centres
    x_i = (2i + 1) pi / (2 nx).

    Every entry is one of the 4 nx values cos(pi r / (2 nx)), r < 4 nx, read at
    (f (2i + 1) + shift) mod 4 nx. Those come from cos and sin of angles no
    larger than pi/4 and the quadrant symmetries, so each entry is within an
    ulp or two of the exact value however large f x_i is.
    """
    step = math.pi / (2 * nx)
    lo = nx // 2 + 1
    quarter = np.concatenate([np.cos(step * np.arange(lo)),
                              np.sin(step * np.arange(nx - lo, -1, -1))])
    half = np.concatenate([quarter[:nx], -quarter[nx:0:-1]])     # r < 2 nx
    period = np.concatenate([half, -half])                       # r < 4 nx
    # the largest index before the modulo, (2 nx - 1)(4 nx - 1) + 3 nx, is below 8 nx^2
    dtype = np.int32 if 8 * nx * nx < 2 ** 31 else np.int64
    idx = np.multiply.outer(np.arange(1, 2 * nx, 2, dtype=dtype),
                            np.asarray(freqs).astype(dtype) % (4 * nx))
    idx += shift
    idx %= 4 * nx
    return period[idx]


def _contract(mom: np.ndarray, profs: np.ndarray, gather) -> np.ndarray:
    """Upper triangle of C_ab = sum_j profs[a, j] profs[b, j]
    (mom[|m_a - m_b|, j] - mom[m_a + m_b, j]), in the order of np.triu_indices.

    mom is (K, ny) and profs (n, ny), so every gather copies whole rows of y
    values. The triangle's entries go in blocks that keep each temporary
    within _BLOCK_BYTES."""
    rows, cols, diff, tot = gather
    acc = np.empty(rows.size)
    step = max(1, _BLOCK_BYTES // (8 * mom.shape[1]))
    for u in range(0, rows.size, step):
        blk = slice(u, u + step)
        term = mom.take(diff[blk], axis=0)
        term -= mom.take(tot[blk], axis=0)
        term *= profs.take(rows[blk], axis=0)
        acc[blk] = np.einsum("uj,uj->u", term, profs.take(cols[blk], axis=0))
    return acc


@dataclass(frozen=True, eq=False)
class PlateTables:
    """Grid-independent tables of the first n modes of one parity on the
    spectrum's plate, each built the first time it is read: the modes' m and
    1/sqrt(lam) for every solve, and the band path's default y rule (no
    breakpoints) for band weights without y-band edges."""

    pairs: tuple[HomEigenpair, ...]
    cfg: PlateConfig

    @cached_property
    def m(self) -> np.ndarray:
        return np.array([p.mode.m for p in self.pairs])

    @cached_property
    def d_isqrt(self) -> np.ndarray:
        """D^{-1/2}: 1/sqrt(lam) of each mode."""
        return 1.0 / np.sqrt(np.array([p.lam for p in self.pairs]))

    @cached_property
    def band_y(self) -> tuple[np.ndarray, ...]:
        """Nodes y and weights wq of the y rule without breakpoints, the
        profiles at y and their full-width Gram matrix (profs * wq) @ profs.T."""
        y, wq = _y_rule(self.pairs, self.cfg, ()).nodes_weights()
        profs = _profiles_on(self.pairs, y)
        return y, wq, profs, (profs * wq) @ profs.T


def _plate_tables(spectrum: HomSpectrum, parity: str, n: int) -> PlateTables:
    """The spectrum's PlateTables of its first n modes of one parity, in a
    memo of their own (spectrum.plate_tables), kept for the spectrum's life."""
    key = (parity, n)
    memo = spectrum.plate_tables
    if key not in memo:
        pairs = (spectrum.mu if parity == EVEN else spectrum.nu)[:n]
        if len(pairs) < n:
            raise ValueError(f"spectrum holds {len(pairs)} {parity} modes, need {n}")
        memo[key] = PlateTables(pairs, spectrum.config)
    return memo[key]


@dataclass(frozen=True, eq=False)
class ParityTables:
    """Grid tables of the modes of one PlateTables on the nx by ny cell grid
    of its plate, each built the first time it is read: assembly reads gather
    and profiles, expansion sines and profiles."""

    plate: PlateTables
    nx: int
    ny: int

    @property
    def m(self) -> np.ndarray:
        return self.plate.m

    @property
    def ell(self) -> float:
        return self.plate.cfg.ell

    @cached_property
    def sines(self) -> np.ndarray:
        """(n, nx) sin(m x_i) at the cell centres."""
        return _cell_trig(self.nx, self.m, 3 * self.nx).T

    @cached_property
    def profiles(self) -> np.ndarray:
        """(n, ny) y profiles at the cell centres."""
        return _profiles_on(self.plate.pairs, cell_ys(self.ny, self.ell))

    @cached_property
    def gather(self) -> tuple[np.ndarray, ...]:
        """The upper triangle's row and column indices a, b and its moment
        indices |m_a - m_b| and m_a + m_b."""
        m = self.m
        rows, cols = np.triu_indices(m.size)
        return rows, cols, np.abs(m[rows] - m[cols]), m[rows] + m[cols]


@dataclass(frozen=True, eq=False)
class GridBasis:
    """The ParityTables of both parities on one grid and their one cosine
    table. It holds mode pairs, not the spectrum that memoizes it."""

    even: ParityTables
    odd: ParityTables

    def parity(self, parity: str) -> ParityTables:
        return self.even if parity == EVEN else self.odd

    @cached_property
    def cos_table(self) -> np.ndarray:
        """(nx, K) cos(k x_i), k < K, the larger 2 max m + 1 of the two
        parities; each parity reads its own leading columns."""
        k_max = 2 * int(max(self.even.m.max(), self.odd.m.max()))
        return _cell_trig(self.even.nx, np.arange(k_max + 1))


def grid_basis(spectrum: HomSpectrum, n: int, nx: int, ny: int) -> GridBasis:
    """The spectrum's grid tables for the first n modes on the nx by ny cell
    grid of its plate. Its memo keeps only the most recent (n, nx, ny); the
    PlateTables it reads are memoized apart and outlive a change of grid."""
    key = (n, nx, ny)
    memo = spectrum.grid_tables
    if key not in memo:
        memo.clear()
        memo[key] = GridBasis(ParityTables(_plate_tables(spectrum, EVEN, n), nx, ny),
                              ParityTables(_plate_tables(spectrum, ODD, n), nx, ny))
    return memo[key]


def _once(shared: dict, key, make):
    """shared[key], made by make() the first time it is read."""
    if key not in shared:
        shared[key] = make()
    return shared[key]


def assemble_mass(w: Weight, spectrum: HomSpectrum, parity: str, n: int, *,
                  _shared: dict | None = None) -> np.ndarray:
    """Weighted mass matrix C_{nm} = int_Omega p z_n z_m for one parity.

    Band weights: each term coeff * chi_X(x) * chi_Y(y) of the density is an
    x matrix times a y matrix. The x matrix is closed form (_x_matrix); the
    y matrix is a quadrature with the band edges as breakpoints. Each
    distinct interval set is integrated once per call. Without band edges
    inside the plate the rule, its profiles and the full-width y matrix are
    the spectrum's PlateTables.

    Sublevel weights are integrated with the midpoint rule on their own grid,
    whose cells are those of the spectrum's plate, through cosine moments:
    sum_i sin(m_a x_i) sin(m_b x_i) w_ij = (Mom[|m_a - m_b|, j] - Mom[m_a + m_b, j]) / 2
    with Mom = cos(k x) @ (cell area * weight) for k = 0..2 max m, so the x
    sums cost one (K, nx) @ (nx, ny) product. The y columns are then one
    contraction over the upper triangle's moment gathers (_contract), in
    blocks of its entries, so no temporary exceeds about 0.25 MB
    (_BLOCK_BYTES) and none is (n, n, ny). The upper triangle is mirrored
    once, so the matrix returned is exactly symmetric.
    The cosine table, the y profiles and the gather come from the
    spectrum's grid tables for n and the field's grid (grid_basis).

    _shared holds the weight's parity-independent work (cell weights, the
    moments of each K, the x matrix of each interval set and m list), so
    that solve_weighted's two calls do it once.
    ValueError when the weight was declared on another plate (plate_mismatch).
    """
    v = w.variant
    mismatch = plate_mismatch(v, spectrum.config.ell)
    if mismatch:
        raise ValueError(f"weight does not fit the spectrum's plate: {mismatch}")
    plate = _plate_tables(spectrum, parity, n)
    shared = {} if _shared is None else _shared
    mat = np.zeros((n, n))

    if isinstance(v, Sublevel):
        f = v.field
        basis = grid_basis(spectrum, n, f.nx, f.ny)
        tables = basis.parity(parity)
        cell_w = _once(shared, "cell_w", lambda: (0.5 * f.cell_area) * v.node_values())
        k = 2 * int(plate.m.max()) + 1
        # (K, ny), halved; one product per K, shared by parities of the same K
        mom = _once(shared, ("mom", k), lambda: basis.cos_table[:, :k].T @ cell_w)
        gather = tables.gather
        mat[gather[0], gather[1]] = _contract(mom, tables.profiles, gather)
    else:
        cfg = spectrum.config
        edges = sorted(set(_inner_edges(v.y_intervals, -cfg.ell, cfg.ell)))
        if edges:
            y, wq = _y_rule(plate.pairs, cfg, edges).nodes_weights()
            profs = _profiles_on(plate.pairs, y)
            y_mats = {}
        else:
            y, wq, profs, gram = plate.band_y
            y_mats = {None: gram}
        m_key = plate.m.tobytes()
        for coeff, x_iv, y_iv in v.terms():
            if coeff == 0.0:
                continue
            x_mat = _once(shared, (x_iv, m_key), lambda: _x_matrix(plate.m, x_iv))
            if y_iv not in y_mats:
                yw = wq if y_iv is None else wq * _in_intervals(y, y_iv)
                y_mats[y_iv] = (profs * yw) @ profs.T
            mat = mat + coeff * (x_mat * y_mats[y_iv])

    if not np.all(np.isfinite(mat)):
        raise QuadratureFailure("non-finite mass matrix entries")
    return np.triu(mat) + np.triu(mat, 1).T


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _scaled_eig(w: Weight, spectrum: HomSpectrum, parity: str, n: int, vectors: bool,
                shared: dict | None = None):
    """Eigenvalues lam(p) ascending for one parity, from the transformed
    symmetric problem M b = (1/lam) b with M = D^{-1/2} C D^{-1/2}, solved by
    LAPACK's symmetric eigensolver (``sym_eig``). shared goes to
    assemble_mass.

    Returns (lam, the columns b in lam's order or None without vectors,
    D^{-1/2}, C). SingularMass unless M is positive definite.
    """
    d_isqrt = _plate_tables(spectrum, parity, n).d_isqrt
    c = assemble_mass(w, spectrum, parity, n, _shared=shared)
    evals, vecs = sym_eig(d_isqrt[:, None] * c * d_isqrt[None, :], vectors=vectors)
    if evals[0] <= 0.0:
        raise SingularMass(f"weighted mass matrix not positive definite "
                           f"(smallest eigenvalue {evals[0]:.3e})")
    return 1.0 / evals[::-1], None if vecs is None else vecs[:, ::-1], d_isqrt, c


def solve_parity(w: Weight, spectrum: HomSpectrum, parity: str, n: int):
    """Eigenvalues, coefficient columns and the weighted mass matrix C for one
    parity: the only solve that computes eigenvectors.

    The coefficient columns are the transformed problem's eigenvectors
    (_scaled_eig) rescaled to be orthonormal in the weighted inner product,
    a_i^T C a_j = delta_ij, so reconstructed eigenfunctions have unit
    weighted norm.
    """
    lam, vecs, d_isqrt, c = _scaled_eig(w, spectrum, parity, n, vectors=True)
    coeffs = (d_isqrt[:, None] * vecs) * np.sqrt(lam)[None, :]
    return lam, coeffs, c


def solve_weighted(w: Weight, spectrum: HomSpectrum, n: int | None = None) -> GalerkinSpectrum:
    """Weighted eigenvalues mu_n(p), nu_n(p) at truncation n (both parities),
    from one assembly and one values-only eigensolve per parity; the two
    assemblies share the weight's parity-independent work (assemble_mass).
    They can differ from solve_parity's in the last bits (``sym_eig``)."""
    if n is None:
        n = spectrum.config.n_modes
    shared = {}
    mu_p = _scaled_eig(w, spectrum, EVEN, n, vectors=False, shared=shared)[0]
    nu_p = _scaled_eig(w, spectrum, ODD, n, vectors=False, shared=shared)[0]
    return GalerkinSpectrum(mu_p=mu_p, nu_p=nu_p, truncation=n)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def expand_field(spectrum: HomSpectrum, parity: str, coeffs: np.ndarray,
                 grid: tuple[int, int] = (600, 31)) -> GridField:
    """Evaluate sum coeffs_n * basis_n on a cell grid for one parity.

    The sines and y profiles come from the spectrum's grid tables for
    coeffs.size and grid (grid_basis).
    """
    tables = grid_basis(spectrum, coeffs.size, *grid).parity(parity)
    return GridField((coeffs[:, None] * tables.sines).T @ tables.profiles, tables.ell, parity)


def reconstruct(w: Weight, spectrum: HomSpectrum, which: tuple[str, int],
                grid: tuple[int, int] = (600, 31)) -> GridField:
    """Evaluate the truncated eigenfunction (parity, index) of the weight w on
    a cell grid, at the truncation spectrum.config.n_modes.

    index is 1-based within its parity. Only that parity is solved, with
    eigenvectors (solve_parity). The output field carries the parity of the
    reconstructed eigenfunction (exact on the symmetric grid).
    """
    parity, index = which
    n = spectrum.config.n_modes
    if not 1 <= index <= n:
        raise ValueError(f"index {index} outside 1..{n}")
    coeffs = solve_parity(w, spectrum, parity, n)[1][:, index - 1]
    return expand_field(spectrum, parity, coeffs, grid)


# ---------------------------------------------------------------------------
# asymptotic-law diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WeylReport:
    h: np.ndarray
    lam: np.ndarray
    ratio: np.ndarray        # lam_h (int sqrt p)^2 / (16 pi^2 h^2)
    median_ratio: float
    top_half_spread: float   # (max - min)/median over the upper half of the window


def merged_eigenvalues(spectrum: HomSpectrum) -> np.ndarray:
    """Both parities merged ascending, truncated where completeness is certain
    (no eigenvalue beyond min(last mu, last nu) can be ranked)."""
    lams = np.sort(np.concatenate([[p.lam for p in spectrum.mu],
                                   [p.lam for p in spectrum.nu]]))
    valid_up_to = min(spectrum.mu[-1].lam, spectrum.nu[-1].lam)
    return lams[lams <= valid_up_to]


def weyl_diagnostic(w: Weight, merged: np.ndarray, h_window: tuple[int, int],
                    cfg: PlateConfig) -> WeylReport:
    """Normalized growth ratios r_h over the window; r_h -> 1 asymptotically."""
    h_lo, h_hi = h_window
    if not 1 <= h_lo < h_hi:
        raise ValueError(f"bad window {h_window}")
    if h_hi > merged.size:
        raise ValueError(f"window reaches h={h_hi} but only {merged.size} "
                         "merged eigenvalues are available")
    h = np.arange(h_lo, h_hi + 1)
    lam = merged[h - 1]
    s = sqrt_mass_integral(w, cfg)
    ratio = lam * s * s / (16.0 * math.pi ** 2 * h.astype(float) ** 2)
    top = ratio[ratio.size // 2:]
    med_top = float(np.median(top))
    return WeylReport(
        h=h, lam=lam, ratio=ratio,
        median_ratio=float(np.median(ratio)),
        top_half_spread=float((top.max() - top.min()) / med_top),
    )
