"""Reference computations the tests check the package against.

Each one takes an independent route (bisection for roots, a composite
midpoint rule, Gauss-Legendre quadrature in x and y, a converged composite
Gauss-Legendre rule per mode for the L2 scales, closed-form profile
derivatives, a direct cell sum, a per-entry or per-column form of an
assembly, or a second form of a closed-form bound), so nothing in the
package calls them.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from plate_spectra.config import PlateConfig
from plate_spectra.galerkin import _inner_edges, _pairs, _profiles_on, _y_rule
from plate_spectra.numerics import NonFinite, NoSignChange, QuadratureRule
from plate_spectra.optimize import OptimizeError, _weighted_sin4_cell, mu_upper_bound
from plate_spectra.spectrum import (EVEN, HomEigenpair, HomSpectrum, _cosh_ratio,
                                    _profile_terms, _sinh_ratio, profile_raw, profile_values)
from plate_spectra.weights import GridField, Sublevel, Weight, _in_intervals, eval_weight


def bisect_roots(f: Callable[[np.ndarray], np.ndarray], lo, hi,
                 tol_rel: float = 1e-12) -> np.ndarray:
    """Bisection on every bracket [lo[i], hi[i]] at once, with numerics.find_roots'
    stopping rule: until hi - lo <= tol_rel * max(1, |lo|, |hi|) of the given
    bracket, then the midpoint; f is called once per step on all midpoints."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    flo, fhi = f(lo), f(hi)
    if not (np.all(np.isfinite(flo)) and np.all(np.isfinite(fhi))):
        raise NonFinite("f non-finite at bracket endpoints")
    neg = flo < 0.0
    if np.any((flo != 0.0) & (fhi != 0.0) & (neg == (fhi < 0.0))):
        raise NoSignChange("an endpoint pair has the same sign")
    tol = tol_rel * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    hi = np.where(flo == 0.0, lo, hi)
    lo = np.where(fhi == 0.0, hi, lo)
    while True:
        mid = 0.5 * (lo + hi)
        active = (hi - lo > tol) & (lo < mid) & (mid < hi)
        if not active.any():
            return mid
        fmid = f(mid)
        if not np.all(np.isfinite(fmid) | ~active):
            raise NonFinite("non-finite f sample inside a bracket")
        below, zero = fmid < 0.0, fmid == 0.0
        lo = np.where(active & ((below == neg) | zero), mid, lo)
        hi = np.where(active & ((below != neg) | zero), mid, hi)


class MidpointRule(QuadratureRule):
    """Composite midpoint rule: order equal cells on each piece."""

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        xs, ws = [], []
        for a, b in self.pieces():
            h = (b - a) / self.order
            xs.append(a + h * (np.arange(self.order) + 0.5))
            ws.append(np.full(self.order, h))
        return np.concatenate(xs), np.concatenate(ws)


def integrate_1d(f: Callable[[np.ndarray], np.ndarray], rule: QuadratureRule) -> float:
    """Integrate f over the rule's interval. f must accept ndarray input."""
    x, w = rule.nodes_weights()
    vals = np.asarray(f(x), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonFinite("non-finite integrand sample in integrate_1d")
    return float(w @ vals)


def gauss_legendre(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                   pieces: int, order: int = 24) -> float:
    """Integral of f over (a, b) by a composite Gauss-Legendre rule of
    `order` nodes on each of `pieces` equal pieces, summed exactly."""
    t, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, pieces + 1)
    half = 0.5 * np.diff(edges)[:, None]
    vals = np.asarray(f((0.5 * (edges[1:] + edges[:-1])[:, None] + half * t).ravel()),
                      dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonFinite("non-finite integrand sample in gauss_legendre")
    return math.fsum((half * w).ravel() * vals)


def normalization(m: int, lam: float, parity: str, cfg: PlateConfig) -> float:
    """Profile scale so that || profile(y) sin(mx) ||_L2(Omega) = 1, by a
    converged composite Gauss-Legendre rule: each piece spans at most 2 / c_bar
    and 2 / c, so it holds at most a factor e^4 of the boundary layer and
    2 radians of the cos/sin factor, which 24 nodes integrate to rounding."""
    _, _, c_bar, c, _ = _profile_terms(m, lam, cfg.sigma)
    pieces = int(math.ceil(max(c_bar, c) * cfg.ell)) + 1
    val = gauss_legendre(
        lambda y: profile_raw(m, lam, parity, cfg.sigma, cfg.ell, y) ** 2,
        -cfg.ell, cfg.ell, pieces)
    # x-factor contributes int_0^pi sin^2(mx) dx = pi/2
    return math.sqrt(val * (math.pi / 2.0))


def profile_square_helpers(t: float) -> dict[str, float]:
    """The one-argument functions of the closed-form L2 scale, as integrals
    over (-1, 1) of the odd profile parts at wavenumber t:
    S(t) = int sinh^2(t y) / sinh^2 t,  T(t) = int sin^2(t y) / sin^2 t,
    G(t) = (t^2 / 2) int y sinh(t y) / sinh t  (= t coth t - 1),
    K(t) = (t^2 / 2) int y sin(t y) / sin t    (= 1 - t cot t)."""
    pieces = int(math.ceil(t)) + 1
    sh, sn = math.sinh(t), math.sin(t)
    return {
        "S": gauss_legendre(lambda y: (np.sinh(t * y) / sh) ** 2, -1.0, 1.0, pieces),
        "T": gauss_legendre(lambda y: (np.sin(t * y) / sn) ** 2, -1.0, 1.0, pieces),
        "G": 0.5 * t * t * gauss_legendre(lambda y: y * np.sinh(t * y) / sh, -1.0, 1.0, pieces),
        "K": 0.5 * t * t * gauss_legendre(lambda y: y * np.sin(t * y) / sn, -1.0, 1.0, pieces),
    }


def integrate_2d(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 rule_x: QuadratureRule, rule_y: QuadratureRule) -> float:
    """Tensor-product integral of f(x, y). f must broadcast over ndarrays."""
    x, wx = rule_x.nodes_weights()
    y, wy = rule_y.nodes_weights()
    vals = np.asarray(f(x[:, None], y[None, :]), dtype=float)
    if vals.shape != (x.size, y.size):
        vals = np.broadcast_to(vals, (x.size, y.size))
    if not np.all(np.isfinite(vals)):
        raise NonFinite("non-finite integrand sample in integrate_2d")
    return float(wx @ vals @ wy)


def _x_rule_for(freqs: list[int], x_breakpoints=()) -> QuadratureRule:
    # panels small enough that GL24 resolves the fastest sin(m x) products
    fmax = 2 * max(freqs)
    pieces = max(4, int(math.ceil(fmax / 12.0)))
    inner = set(np.linspace(0.0, math.pi, pieces + 1)[1:-1])
    inner.update(t for t in x_breakpoints if 0.0 < t < math.pi)
    return QuadratureRule(0.0, math.pi, order=24, breakpoints=tuple(sorted(inner)))


def _expand(pairs: list[HomEigenpair], coeffs: np.ndarray, x: np.ndarray,
            y: np.ndarray) -> np.ndarray:
    """sum_n coeffs_n sin(m_n x_i) profile_n(y_j) as an (x.size, y.size) array."""
    sines = np.array([np.sin(p.mode.m * x) for p in pairs])
    profiles = np.array([profile_values(p, y) for p in pairs])
    return (coeffs[:, None] * sines).T @ profiles


def weighted_l2_sq(pairs: list[HomEigenpair], coeffs: np.ndarray, w: Weight,
                   cfg: PlateConfig) -> float:
    """|| sqrt(p) u ||_2^2 for u = sum coeffs_n z_n, by direct quadrature."""
    v = w.variant
    if isinstance(v, Sublevel):
        f = v.field
        u = _expand(pairs, coeffs, f.xs, f.ys)
        return float(np.sum(v.node_values() * u * u) * f.cell_area)

    freqs = [p.mode.m for p in pairs]
    rx = _x_rule_for(freqs, _inner_edges(v.x_intervals, 0.0, math.pi))
    ry = _y_rule(pairs, cfg, sorted(set(_inner_edges(v.y_intervals, -cfg.ell, cfg.ell))))
    x, wx = rx.nodes_weights()
    y, wy = ry.nodes_weights()
    u = _expand(pairs, coeffs, x, y)
    pv = eval_weight(w, x[:, None], y[None, :])
    return float(wx @ (pv * u * u) @ wy)


def _sinh_over_cosh(y: np.ndarray, a: float, ell: float) -> np.ndarray:
    """sinh(a y)/cosh(a ell)."""
    ay = np.abs(y)
    return (np.sign(y) * np.exp((ay - ell) * a) * (1.0 - np.exp(-2.0 * a * ay))
            / (1.0 + math.exp(-2.0 * a * ell)))


def _cosh_over_sinh(y: np.ndarray, a: float, ell: float) -> np.ndarray:
    """cosh(a y)/sinh(a ell)."""
    ay = np.abs(y)
    den = -math.expm1(-2.0 * a * ell)
    return np.exp((ay - ell) * a) * (1.0 + np.exp(-2.0 * a * ay)) / den


def profile_derivatives(pair: HomEigenpair, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(profile, profile', profile'') of the normalized y-profile."""
    m, lam = pair.mode.m, pair.lam
    sigma, ell = pair.sigma, pair.ell
    q_amp, p_amp, c_bar, c, high = _profile_terms(m, lam, sigma)
    y = np.asarray(y, dtype=float)
    f0 = profile_raw(m, lam, pair.mode.parity, sigma, ell, y)
    if pair.mode.parity == EVEN:
        f1 = q_amp * c_bar * _sinh_over_cosh(y, c_bar, ell)
        f2 = q_amp * c_bar ** 2 * _cosh_ratio(y, c_bar, ell)
        if high:
            cos_l = math.cos(c * ell)
            f1 = f1 - p_amp * c * np.sin(c * y) / cos_l
            f2 = f2 - p_amp * c ** 2 * np.cos(c * y) / cos_l
        else:
            f1 = f1 + p_amp * c * _sinh_over_cosh(y, c, ell)
            f2 = f2 + p_amp * c ** 2 * _cosh_ratio(y, c, ell)
    else:
        f1 = q_amp * c_bar * _cosh_over_sinh(y, c_bar, ell)
        f2 = q_amp * c_bar ** 2 * _sinh_ratio(y, c_bar, ell)
        if high:
            sin_l = math.sin(c * ell)
            f1 = f1 + p_amp * c * np.cos(c * y) / sin_l
            f2 = f2 - p_amp * c ** 2 * np.sin(c * y) / sin_l
        else:
            f1 = f1 + p_amp * c * _cosh_over_sinh(y, c, ell)
            f2 = f2 + p_amp * c ** 2 * _sinh_ratio(y, c, ell)
    n = pair.norm_const
    return f0 / n, f1 / n, f2 / n


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


def rearrangement_value(w: Weight, fld: GridField) -> float:
    """J(p) = int p u^2 in the field's grid measure (p sampled at cell centers)."""
    pv = eval_weight(w, fld.xs[:, None], fld.ys[None, :])
    return float(np.sum(pv * fld.values) * fld.cell_area)


def mu_upper_bound_forms(w: Weight, j: int, cfg: PlateConfig,
                         periodic: bool = False) -> tuple[float, float | None]:
    """(general bound, periodic-form bound or None).

    For pi/j-periodic weights the two expressions agree: the total trial norm
    splits evenly over the period cells.
    """
    general = mu_upper_bound(w, j, cfg)
    if not periodic:
        return general, None
    total = _weighted_sin4_cell(w, j, 0.0, math.pi, cfg)
    per = float(j) ** 4 * cfg.area / total
    if abs(per - general) > 1e-10 * max(abs(per), abs(general)):
        raise OptimizeError(
            f"periodic-form bound {per!r} disagrees with the general bound "
            f"{general!r}; weight is not pi/{j}-periodic")
    return general, per


def x_matrix_per_entry(freqs: list[int], intervals) -> np.ndarray:
    """int sin(m_n x) sin(m_m x) over the union of intervals (all of (0, pi)
    when None), with four sines per entry and interval."""
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


def mass_matrix_by_columns(w: Weight, spectrum: HomSpectrum, parity: str,
                           n: int) -> np.ndarray:
    """C = int p z_a z_b for one parity: band weights term by term with
    per-entry x integrals, sublevel weights one y column at a time from
    np.cos(k x_i) moments."""
    pairs = _pairs(spectrum, parity, n)
    cfg = spectrum.config
    v = w.variant
    mat = np.zeros((n, n))
    if isinstance(v, Sublevel):
        f = v.field
        m = np.array([p.mode.m for p in pairs])
        cos_table = np.cos(np.outer(f.xs, np.arange(2 * int(m.max()) + 1)))
        diff, tot = np.abs(m[:, None] - m[None, :]), m[:, None] + m[None, :]
        profs = _profiles_on(pairs, f.ys)
        mom = ((0.5 * f.cell_area) * v.node_values()).T @ cos_table
        for j in range(f.ny):
            mat += np.outer(profs[:, j], profs[:, j]) * (mom[j, diff] - mom[j, tot])
        return mat
    freqs = [p.mode.m for p in pairs]
    rule = _y_rule(pairs, cfg, sorted(set(_inner_edges(v.y_intervals, -cfg.ell, cfg.ell))))
    y, wq = rule.nodes_weights()
    profs = _profiles_on(pairs, y)
    for coeff, x_iv, y_iv in v.terms():
        yw = wq if y_iv is None else wq * _in_intervals(y, y_iv)
        mat += coeff * (x_matrix_per_entry(freqs, x_iv) * ((profs * yw) @ profs.T))
    return mat


def parity_residual(v: np.ndarray, parity: str) -> float:
    """max |v - (+-v[:, ::-1])| over the whole grid, + for even, - for odd."""
    flipped = v[:, ::-1]
    target = flipped if parity == "even" else -flipped
    return float(np.max(np.abs(v - target)))


def parity_violated(v: np.ndarray, parity: str) -> bool:
    """The full-width form of GridField's parity check: whether the residual
    exceeds 1e-10 max(1, max |v|)."""
    return parity_residual(v, parity) > 1e-10 * max(1.0, float(np.max(np.abs(v))))
