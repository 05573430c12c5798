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
grid (reconstruction, weighted norms) are one matrix product of the scaled
sines with the y profiles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PlateConfig
from .numerics import QuadratureRule, SymMatrix, sym_eig
from .spectrum import EVEN, ODD, HomEigenpair, HomSpectrum, profile_derivatives, profile_values
from .weights import (GridField, Sublevel, Weight, _in_intervals, eval_weight,
                      sqrt_mass_integral)


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
    return np.array([profile_values(p, y) for p in pairs])


def _inner_edges(intervals, lo: float, hi: float) -> list[float]:
    """Interval end points strictly inside (lo, hi): quadrature breakpoints."""
    return [t for a, b in intervals for t in (a, b) if lo < t < hi]


def assemble_mass(w: Weight, spectrum: HomSpectrum, parity: str, n: int) -> SymMatrix:
    """Weighted mass matrix C_{nm} = int_Omega p z_n z_m for one parity.

    Band weights use closed-form x integrals with the band edges as quadrature
    breakpoints in y. Sublevel weights are integrated with the midpoint rule
    on their own grid through cosine moments:
    sum_i sin(m_a x_i) sin(m_b x_i) w_ij = (Mom[|m_a - m_b|, j] - Mom[m_a + m_b, j]) / 2
    with Mom = cos(k x) @ (cell area * weight) for k = 0..2 max m, so the x
    sums cost one (K, nx) @ (nx, ny) product. The y columns are added one at a
    time, which holds no (n, n, ny) or (n, nx * ny) array.
    """
    pairs = list((spectrum.mu if parity == EVEN else spectrum.nu)[:n])
    if len(pairs) < n:
        raise ValueError(f"spectrum holds {len(pairs)} {parity} modes, need {n}")
    cfg = spectrum.config
    freqs = [p.mode.m for p in pairs]
    v = w.variant

    if isinstance(v, Sublevel):
        f = v.field
        m = np.array(freqs)
        cell_w = (0.5 * f.cell_area) * v.node_values()               # (nx, ny)
        k = np.arange(2 * int(m.max()) + 1)
        mom = cell_w.T @ np.cos(np.outer(f.xs, k))                   # (ny, K), halved
        diff = np.abs(m[:, None] - m[None, :])
        tot = m[:, None] + m[None, :]
        profs = _profiles_on(pairs, f.ys)                            # (n, ny)
        mat = np.zeros((n, n))
        for j in range(f.ny):
            mat += np.outer(profs[:, j], profs[:, j]) * (mom[j, diff] - mom[j, tot])
    else:
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

def solve_parity(w: Weight, spectrum: HomSpectrum, parity: str, n: int):
    """Eigenvalues, coefficient columns and the weighted mass matrix C for one
    parity.

    The transformed symmetric problem M b = (1/lam) b with
    M = D^{-1/2} C D^{-1/2} is solved by LAPACK's symmetric eigensolver
    (``sym_eig``); coefficient columns are rescaled to be orthonormal in the
    weighted inner product.
    """
    pairs = (spectrum.mu if parity == EVEN else spectrum.nu)[:n]
    d = np.array([p.lam for p in pairs])
    c = assemble_mass(w, spectrum, parity, n)
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

def _expand_on(pairs: list[HomEigenpair], coeffs: np.ndarray, xs: np.ndarray,
               ys: np.ndarray) -> np.ndarray:
    """sum_n coeffs_n sin(m_n x_i) profile_n(y_j) as an (x.size, y.size) array."""
    sines = np.array([np.sin(p.mode.m * xs) for p in pairs])
    return (coeffs[:, None] * sines).T @ _profiles_on(pairs, ys)


def expand_field(spectrum: HomSpectrum, parity: str, coeffs: np.ndarray,
                 grid: tuple[int, int] = (600, 31)) -> GridField:
    """Evaluate sum coeffs_n * basis_n on a cell grid for one parity."""
    pairs = list((spectrum.mu if parity == EVEN else spectrum.nu)[:coeffs.size])
    cfg = spectrum.config
    shell = GridField(np.zeros(grid), cfg.ell)
    return GridField(_expand_on(pairs, coeffs, shell.xs, shell.ys), cfg.ell, parity)


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
# quadrature checks (independent of the assembly path)
# ---------------------------------------------------------------------------

def _x_rule_for(freqs: list[int], x_breakpoints=()) -> QuadratureRule:
    # panels small enough that GL24 resolves the fastest sin(m x) products
    fmax = 2 * max(freqs)
    pieces = max(4, int(math.ceil(fmax / 12.0)))
    inner = set(np.linspace(0.0, math.pi, pieces + 1)[1:-1])
    inner.update(t for t in x_breakpoints if 0.0 < t < math.pi)
    return QuadratureRule(0.0, math.pi, order=24, breakpoints=tuple(sorted(inner)))


def weighted_l2_sq(pairs: list[HomEigenpair], coeffs: np.ndarray, w: Weight,
                   cfg: PlateConfig) -> float:
    """|| sqrt(p) u ||_2^2 for u = sum coeffs_n z_n, by direct quadrature."""
    v = w.variant
    if isinstance(v, Sublevel):
        f = v.field
        u = _expand_on(pairs, coeffs, f.xs, f.ys)
        return float(np.sum(v.node_values() * u * u) * f.cell_area)

    freqs = [p.mode.m for p in pairs]
    rx = _x_rule_for(freqs, _inner_edges(v.x_intervals, 0.0, math.pi))
    ry = _y_rule(pairs, cfg, sorted(set(_inner_edges(v.y_intervals, -cfg.ell, cfg.ell))))
    x, wx = rx.nodes_weights()
    y, wy = ry.nodes_weights()
    u = _expand_on(pairs, coeffs, x, y)
    pv = eval_weight(w, x[:, None], y[None, :])
    return float(wx @ (pv * u * u) @ wy)


def h2_energy(pairs: list[HomEigenpair], coeffs: np.ndarray, cfg: PlateConfig) -> float:
    """|| u ||_{H}^2 for u = sum coeffs_n z_n: the plate quadratic form
    int [ (Lap u)^2 + 2(1-sigma)(u_xy^2 - u_xx u_yy) ], by quadrature."""
    freqs = [p.mode.m for p in pairs]
    rx = _x_rule_for(freqs)
    ry = _y_rule(pairs, cfg, ())
    x, wx = rx.nodes_weights()
    y, wy = ry.nodes_weights()
    sin_m = np.array([np.sin(p.mode.m * x) for p in pairs])
    cos_m = np.array([np.cos(p.mode.m * x) for p in pairs])
    f0 = np.empty((len(pairs), y.size))
    f1 = np.empty_like(f0)
    f2 = np.empty_like(f0)
    for i, p in enumerate(pairs):
        f0[i], f1[i], f2[i] = profile_derivatives(p, y)
    m2 = np.array([float(p.mode.m) ** 2 for p in pairs])
    m1 = np.sqrt(m2)
    u_xx = np.einsum("n,ni,nj->ij", -coeffs * m2, sin_m, f0)
    u_yy = np.einsum("n,ni,nj->ij", coeffs, sin_m, f2)
    u_xy = np.einsum("n,ni,nj->ij", coeffs * m1, cos_m, f1)
    lap = u_xx + u_yy
    integrand = lap ** 2 + 2.0 * (1.0 - cfg.sigma) * (u_xy ** 2 - u_xx * u_yy)
    return float(wx @ integrand @ wy)


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
