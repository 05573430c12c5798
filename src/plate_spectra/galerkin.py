"""Weighted eigenproblem in the homogeneous eigenbasis.

Expanding u = sum_m [a_m z_m + b_m theta_m] in the L2-orthonormal eigenbasis
of the uniform plate turns the weighted weak eigenproblem into, per parity,
D a = lam(p) C a with D = diag of unweighted eigenvalues and C the weighted
mass matrix C_{nm} = int_Omega p z_n z_m. The symmetric form
M = D^{-1/2} C D^{-1/2} has eigenvalues 1/lam(p).

Band weights integrate in x in closed form. A sublevel weight lives on a cell
grid, and sin(a x) sin(b x) = (cos((a-b) x) - cos((a+b) x)) / 2 reduces its x
sums to the cosine moments sum_i cos(k x_i) p(x_i, y_j) for k = 0..2 max m: one
matrix product, after which each y column adds an (n, n) gather. Fields on a
grid are one matrix product of the scaled sines with the y profiles.

A density search solves one parity on one cell grid in every round, so the
grid data of its basis is fixed for the whole search: a GridBasis holds the
cell centres, the x sines, the y profiles, the cosine table and the index
arrays of the moment gather. assemble_mass, solve_parity and expand_field take
one through basis=; without it they build what they need for the one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PlateConfig
from .numerics import QuadratureRule, SymMatrix, sym_eig
from .spectrum import EVEN, ODD, HomEigenpair, HomSpectrum, profile_raw
from .weights import GridField, Sublevel, Weight, _in_intervals, sqrt_mass_integral


class GalerkinError(Exception):
    pass


class QuadratureFailure(GalerkinError):
    pass


class SingularMass(GalerkinError):
    pass


@dataclass(frozen=True, eq=False)
class GalerkinSpectrum:
    """Weighted eigenvalues and eigenvector coefficients, per parity.

    Coefficient columns are orthonormal in the weighted L2 inner product:
    a_i^T C a_j = delta_ij, so reconstructed eigenfunctions have unit
    weighted norm.
    """

    mu_p: np.ndarray
    nu_p: np.ndarray
    a_coeffs: np.ndarray  # (N, N), column i = i-th longitudinal eigenvector
    b_coeffs: np.ndarray
    truncation: int


# ---------------------------------------------------------------------------
# closed-form x integrals
# ---------------------------------------------------------------------------

def _x_matrix(freqs: list[int], intervals) -> np.ndarray:
    """Matrix of int sin(m_n x) sin(m_m x) over the union of intervals,
    or over all of (0, pi) when intervals is None (then exactly (pi/2) delta)."""
    f = np.asarray(freqs, dtype=float)
    same = f[:, None] == f[None, :]
    if intervals is None:
        return np.where(same, math.pi / 2.0, 0.0)
    diff = f[:, None] - f[None, :]
    tot = f[:, None] + f[None, :]
    diff_or_1 = np.where(same, 1.0, diff)  # the diagonal formula serves equal frequencies
    out = np.zeros(same.shape)
    for a, b in intervals:
        sum_part = (np.sin(tot * b) - np.sin(tot * a)) / (2.0 * tot)
        off = (np.sin(diff * b) - np.sin(diff * a)) / (2.0 * diff_or_1) - sum_part
        out += np.where(same, 0.5 * (b - a) - sum_part, off)
    return out


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
# grid basis
# ---------------------------------------------------------------------------

def _sines_on(pairs: list[HomEigenpair], x: np.ndarray) -> np.ndarray:
    return np.array([np.sin(p.mode.m * x) for p in pairs])


def _moment_tables(pairs: list[HomEigenpair], xs: np.ndarray):
    """Frequencies m, the cosine table cos(k x_i) for k = 0..2 max m, and the
    index arrays |m_a - m_b| and m_a + m_b of the moment gather."""
    m = np.array([p.mode.m for p in pairs])
    k = np.arange(2 * int(m.max()) + 1)
    return (m, np.cos(np.outer(xs, k)),
            np.abs(m[:, None] - m[None, :]), m[:, None] + m[None, :])


def _pairs(spectrum: HomSpectrum, parity: str, n: int) -> list[HomEigenpair]:
    pairs = list((spectrum.mu if parity == EVEN else spectrum.nu)[:n])
    if len(pairs) < n:
        raise ValueError(f"spectrum holds {len(pairs)} {parity} modes, need {n}")
    return pairs


@dataclass(frozen=True, eq=False)
class GridBasis:
    """Grid data of the first n modes of one parity on one cell grid.

    A density search builds it once and passes it to every solve and
    expansion on its grid. Each array is built by the same expression as the
    per-call path, so results with and without a basis are bitwise equal.
    """

    spectrum: HomSpectrum
    parity: str
    n: int
    ell: float
    xs: np.ndarray         # (nx,) cell centres
    ys: np.ndarray         # (ny,)
    m: np.ndarray          # (n,) x frequencies
    sines: np.ndarray      # (n, nx) sin(m x_i)
    profiles: np.ndarray   # (n, ny) y profiles at the cell centres
    cos_table: np.ndarray  # (nx, 2 max m + 1) cos(k x_i)
    diff: np.ndarray       # (n, n) |m_a - m_b|
    tot: np.ndarray        # (n, n) m_a + m_b

    @classmethod
    def build(cls, spectrum: HomSpectrum, parity: str, n: int,
              grid: tuple[int, int]) -> GridBasis:
        pairs = _pairs(spectrum, parity, n)
        ell = spectrum.config.ell
        shell = GridField(np.zeros(grid), ell)
        xs, ys = shell.xs, shell.ys
        m, cos_table, diff, tot = _moment_tables(pairs, xs)
        return cls(spectrum, parity, n, ell, xs, ys, m, _sines_on(pairs, xs),
                   _profiles_on(pairs, ys), cos_table, diff, tot)

    def check(self, spectrum: HomSpectrum, parity: str, n: int, nx: int, ny: int,
              ell: float) -> None:
        """Raise ValueError unless the basis was built for this call."""
        if spectrum is not self.spectrum:
            raise ValueError("grid basis was built from another spectrum")
        want = (parity, n, nx, ny, ell)
        have = (self.parity, self.n, self.xs.size, self.ys.size, self.ell)
        if want != have:
            raise ValueError(f"grid basis (parity, n, nx, ny, ell) = {have} "
                             f"does not match the call's {want}")


def assemble_mass(w: Weight, spectrum: HomSpectrum, parity: str, n: int,
                  basis: GridBasis | None = None) -> SymMatrix:
    """Weighted mass matrix C_{nm} = int_Omega p z_n z_m for one parity.

    Band weights use closed-form x integrals with the band edges as quadrature
    breakpoints in y; they ignore basis. Sublevel weights are integrated with
    the midpoint rule on their own grid through cosine moments:
    sum_i sin(m_a x_i) sin(m_b x_i) w_ij = (Mom[|m_a - m_b|, j] - Mom[m_a + m_b, j]) / 2
    with Mom = cos(k x) @ (cell area * weight) for k = 0..2 max m, so the x
    sums cost one (K, nx) @ (nx, ny) product. The y columns are added one at a
    time, which holds no (n, n, ny) or (n, nx * ny) array. The cosine table,
    the y profiles and the gather indices come from basis, a GridBasis of
    this parity, n and grid (ValueError if it is another), or are built here.
    """
    pairs = _pairs(spectrum, parity, n)
    cfg = spectrum.config
    v = w.variant

    if isinstance(v, Sublevel):
        f = v.field
        if basis is None:
            _, cos_table, diff, tot = _moment_tables(pairs, f.xs)
            profs = _profiles_on(pairs, f.ys)                        # (n, ny)
        else:
            basis.check(spectrum, parity, n, f.nx, f.ny, f.ell)
            cos_table, diff, tot, profs = basis.cos_table, basis.diff, basis.tot, basis.profiles
        cell_w = (0.5 * f.cell_area) * v.node_values()               # (nx, ny)
        mom = cell_w.T @ cos_table                                   # (ny, K), halved
        mat = np.zeros((n, n))
        for j in range(f.ny):
            mat += np.outer(profs[:, j], profs[:, j]) * (mom[j, diff] - mom[j, tot])
    else:
        freqs = [p.mode.m for p in pairs]
        rule = _y_rule(pairs, cfg, sorted(set(_inner_edges(v.y_intervals, -cfg.ell, cfg.ell))))
        y, wq = rule.nodes_weights()
        profs = _profiles_on(pairs, y)
        mat = np.zeros((n, n))
        for coeff, x_iv, y_iv in v.terms():
            if coeff == 0.0:
                continue
            xm = _x_matrix(freqs, x_iv)
            yw = wq if y_iv is None else wq * _in_intervals(y, y_iv)
            ym = (profs * yw) @ profs.T
            mat = mat + coeff * (xm * ym)

    if not np.all(np.isfinite(mat)):
        raise QuadratureFailure("non-finite mass matrix entries")
    return SymMatrix(mat)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def solve_parity(w: Weight, spectrum: HomSpectrum, parity: str, n: int,
                 basis: GridBasis | None = None):
    """Eigenvalues, coefficient columns and the weighted mass matrix C for one
    parity. basis is passed on to assemble_mass.

    The transformed symmetric problem M b = (1/lam) b with
    M = D^{-1/2} C D^{-1/2} is solved by LAPACK's symmetric eigensolver
    (``sym_eig``); coefficient columns are rescaled to be orthonormal in the
    weighted inner product.
    """
    pairs = (spectrum.mu if parity == EVEN else spectrum.nu)[:n]
    d = np.array([p.lam for p in pairs])
    c = assemble_mass(w, spectrum, parity, n, basis=basis)
    d_isqrt = 1.0 / np.sqrt(d)
    m = SymMatrix(d_isqrt[:, None] * c.a * d_isqrt[None, :])
    evals, vecs = sym_eig(m)
    if evals[0] <= 0.0:
        raise SingularMass(f"weighted mass matrix not positive definite "
                           f"(smallest eigenvalue {evals[0]:.3e})")
    lam = 1.0 / evals[::-1]
    coeffs = (d_isqrt[:, None] * vecs[:, ::-1]) * np.sqrt(lam)[None, :]
    return lam, coeffs, c


def solve_weighted(w: Weight, spectrum: HomSpectrum, n: int | None = None) -> GalerkinSpectrum:
    """Weighted eigenvalues mu_n(p), nu_n(p) at truncation n (both parities)."""
    if n is None:
        n = spectrum.config.n_modes
    mu_p, a, _ = solve_parity(w, spectrum, EVEN, n)
    nu_p, b, _ = solve_parity(w, spectrum, ODD, n)
    return GalerkinSpectrum(mu_p=mu_p, nu_p=nu_p, a_coeffs=a, b_coeffs=b, truncation=n)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def expand_field(spectrum: HomSpectrum, parity: str, coeffs: np.ndarray,
                 grid: tuple[int, int] = (600, 31),
                 basis: GridBasis | None = None) -> GridField:
    """Evaluate sum coeffs_n * basis_n on a cell grid for one parity.

    The sines and y profiles come from basis, a GridBasis of this parity,
    coeffs.size and grid (ValueError if it is another), or are built here.
    """
    cfg = spectrum.config
    if basis is None:
        pairs = _pairs(spectrum, parity, coeffs.size)
        shell = GridField(np.zeros(grid), cfg.ell)
        sines, profs = _sines_on(pairs, shell.xs), _profiles_on(pairs, shell.ys)
    else:
        basis.check(spectrum, parity, coeffs.size, grid[0], grid[1], cfg.ell)
        sines, profs = basis.sines, basis.profiles
    return GridField((coeffs[:, None] * sines).T @ profs, cfg.ell, parity)


def reconstruct(gs: GalerkinSpectrum, spectrum: HomSpectrum, which: tuple[str, int],
                grid: tuple[int, int] = (600, 31)) -> GridField:
    """Evaluate the truncated eigenfunction (parity, index) on a cell grid.

    index is 1-based within its parity. The output field carries the parity
    of the reconstructed eigenfunction (exact on the symmetric grid).
    """
    parity, index = which
    if not 1 <= index <= gs.truncation:
        raise ValueError(f"index {index} outside 1..{gs.truncation}")
    coeffs = (gs.a_coeffs if parity == EVEN else gs.b_coeffs)[:, index - 1]
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
