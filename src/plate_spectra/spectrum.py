"""Spectrum of the homogeneous partially hinged plate.

Separated solutions u = profile(y) * sin(m x) of the clamped-free biharmonic
eigenproblem satisfy profile'''' - 2 m^2 profile'' + m^4 profile = lam * profile
together with the free-edge conditions at y = +-ell. Imposing those conditions
on the two-parameter even (resp. odd) solution family yields, per branch, a
2x2 determinant whose zeros are the eigenvalues. Longitudinal modes are the
y-even family, torsional modes the y-odd family.

Every eigenvalue has an a-priori bracket in s = sqrt(lam) (the torsional one
below m^4 shares the longitudinal Lambda_(m,1)'s), or, torsional above m^4, a
band that a fixed grid scans for sign changes (a grid zero ends the one
bracket it bounds); determinants, brackets and scans take arrays of modes.
build_spectrum takes each parity's candidates from one window builder over
the brackets and solves all of them in one batched ITP solve
(numerics.find_roots, about a dozen determinant calls for all brackets,
against 45 for bisection); find_hom_eigenvalue takes one mode's determinant
and bracket from the same builders and solves it with numerics.find_root,
the same ITP on a one-bracket array.

Eigenfunction profiles come from one array kernel, profile_raw, whose m, lam
and y broadcast: it evaluates many modes of one parity at many points, each
element on its own mode's branch.  The L2 scales need no quadrature: each
profile is two cosh/cos (even) or sinh/sin (odd) terms, so its square has an
elementary integral over (-ell, ell), which _norm_consts evaluates for all
modes of a parity in one array pass.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
import numpy as np

from .config import PlateConfig, _mode_numbers
from .numerics import _BLOCK_BYTES, Bracket, NoSignChange, NonFinite, find_root, find_roots


class SpectrumError(Exception):
    pass


class BranchMismatch(SpectrumError):
    """lam lies on the wrong side of m^4 for the requested branch."""


class NotAdmissible(SpectrumError):
    """The requested mode does not exist for these parameters."""


class RootIsolationFailure(SpectrumError):
    """No sign change found where the bracket guarantees one."""


class C0Violated(SpectrumError):
    """The non-degeneracy condition fails (resonant integer solution)."""


EVEN = "even"
ODD = "odd"

# branch names for the characteristic determinant
EVEN_LOW = "even-low"    # lam < m^4, cosh/cosh profile
EVEN_HIGH = "even-high"  # lam > m^4, cosh/cos profile
ODD_BRANCH = "odd"       # sinh/sin above m^4, sinh/sinh below


@dataclass(frozen=True)
class Mode:
    m: int
    k: int
    parity: str

    def __post_init__(self) -> None:
        if not (type(self.m) is int and type(self.k) is int and self.m >= 1 and self.k >= 1):
            for name, x in zip("mk", _mode_numbers(m=self.m, k=self.k)):
                object.__setattr__(self, name, x)
        if self.parity not in (EVEN, ODD):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")


@dataclass(frozen=True)
class HomEigenpair:
    """One eigenvalue of the homogeneous plate with its y-profile data.

    c and c_bar are the profile wavenumbers sqrt(|sqrt(lam) - m^2|) and
    sqrt(sqrt(lam) + m^2); norm_const scales the profile so the full
    eigenfunction has unit L2 norm on Omega.
    """

    mode: Mode
    lam: float
    c: float
    c_bar: float
    norm_const: float
    sigma: float
    ell: float

    @property
    def high_branch(self) -> bool:
        return self.lam > float(self.mode.m) ** 4


@dataclass(frozen=True, eq=False)
class HomSpectrum:
    """Ordered longitudinal (mu) and torsional (nu) eigenpairs, plus j0, and
    the memo of galerkin.grid_basis."""

    mu: tuple[HomEigenpair, ...]
    nu: tuple[HomEigenpair, ...]
    j0: int
    config: PlateConfig
    grid_tables: dict = field(default_factory=dict, init=False, repr=False)


# ---------------------------------------------------------------------------
# characteristic determinants
# ---------------------------------------------------------------------------
# All determinants are scaled by the positive factor 1/(cosh(c_bar ell) *
# cosh(c ell)) (hyperbolic parts only), which keeps them finite for any lam
# while preserving zeros and sign changes.  s = sqrt(lam) and m may be scalars
# or broadcastable arrays.

def _terms(s, m, sigma: float):
    """(c_bar, c, p, q) at s = sqrt(lam): the wavenumbers sqrt(s + m^2) and
    sqrt(|s - m^2|) and the amplitudes s +- (1 - sigma) m^2."""
    a = (1.0 - sigma) * m * m
    return np.sqrt(s + m * m), np.sqrt(np.abs(s - m * m)), s + a, s - a


def _det_even_low(s, m, sigma: float, ell: float):
    cbar, c, p, q = _terms(s, m, sigma)
    return cbar * q * q * np.tanh(cbar * ell) - c * p * p * np.tanh(c * ell)


def _det_even_high(s, m, sigma: float, ell: float):
    cbar, c, p, q = _terms(s, m, sigma)
    return (cbar * q * q * np.tanh(cbar * ell) * np.cos(c * ell)
            + c * p * p * np.sin(c * ell))


def _det_odd_low(s, m, sigma: float, ell: float):
    cbar, c, p, q = _terms(s, m, sigma)
    return cbar * q * q * np.tanh(c * ell) - c * p * p * np.tanh(cbar * ell)


def _det_odd_high(s, m, sigma: float, ell: float):
    cbar, c, p, q = _terms(s, m, sigma)
    return (cbar * q * q * np.sin(c * ell)
            - c * p * p * np.tanh(cbar * ell) * np.cos(c * ell))


def characteristic_det(lam: float, m: int, branch: str, cfg: PlateConfig) -> float:
    """Free-edge boundary determinant at trial eigenvalue lam.

    branch selects the solution family: 'even-low' (lam < m^4), 'even-high'
    (lam > m^4) or 'odd' (either side of m^4, dispatched on lam).
    """
    (m,) = _mode_numbers(m=m)
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    m4 = float(m) ** 4
    if lam == m4:
        raise BranchMismatch(f"lam = m^4 = {m4} is a branch point")
    if branch == EVEN_LOW:
        if lam > m4:
            raise BranchMismatch(f"lam={lam} > m^4={m4} on the even-low branch")
        det = _det_even_low
    elif branch == EVEN_HIGH:
        if lam < m4:
            raise BranchMismatch(f"lam={lam} < m^4={m4} on the even-high branch")
        det = _det_even_high
    elif branch == ODD_BRANCH:
        det = _det_odd_low if lam < m4 else _det_odd_high
    else:
        raise ValueError(f"unknown branch {branch!r}")
    return float(det(math.sqrt(lam), m, cfg.sigma, cfg.ell))


# ---------------------------------------------------------------------------
# existence conditions
# ---------------------------------------------------------------------------

def torsional_first_exists(m: int, cfg: PlateConfig) -> bool:
    """Whether the first torsional branch (k=1, eigenvalue below m^4) exists:
    ell*m*sqrt(2)*coth(ell*m*sqrt(2)) > ((2-sigma)/sigma)^2.
    """
    (m,) = _mode_numbers(m=m)
    return bool(_first_exists(m, cfg))


def _first_exists(m, cfg: PlateConfig):
    """torsional_first_exists for a scalar or an array of m >= 1."""
    x = cfg.ell * m * math.sqrt(2.0)
    return x / np.tanh(x) > ((2.0 - cfg.sigma) / cfg.sigma) ** 2


def check_c0(cfg: PlateConfig) -> tuple[bool, float]:
    """Solve tanh(sqrt(2) s ell) = (sigma/(2-sigma))^2 sqrt(2) s ell for s > 0.

    Returns (holds, s_star): holds is True when s_star is finite and not an
    integer (within 1e-9); an integer s_star is the degenerate resonant case.
    """
    q = (cfg.sigma / (2.0 - cfg.sigma)) ** 2
    if q == 0.0:  # sigma so small that q underflows: s* is out of range
        return False, math.inf
    # in z = sqrt(2) s ell: tanh(z) = q z has one positive root, above 8.9 as
    # q <= 1/9; there z -> tanh(z) / q contracts by sech(z)^2 / q < 1e-6, so
    # three steps from 1/q reach it to rounding
    z = 1.0 / q
    for _ in range(3):
        z = math.tanh(z) / q
    s_star = z / (math.sqrt(2.0) * cfg.ell)
    holds = math.isfinite(s_star) and abs(s_star - round(s_star)) > 1e-9
    return holds, s_star


def _require_c0(cfg: PlateConfig) -> None:
    """Raise C0Violated in the degenerate resonant case excluded by the theory."""
    holds, s_star = check_c0(cfg)
    if not holds:
        why = "is an integer" if math.isfinite(s_star) else "is out of floating point range"
        raise C0Violated(f"degenerate parameters: s* = {s_star} {why}")


# ---------------------------------------------------------------------------
# profile evaluation (stable ratio forms)
# ---------------------------------------------------------------------------
# _cosh_ratio and _sinh_ratio take the wavenumber a as a scalar or as an array
# that broadcasts against y, so one profile_raw call serves many modes.

def _cosh_ratio(y: np.ndarray, a, ell: float) -> np.ndarray:
    """cosh(a y)/cosh(a ell) without overflow for large a*ell."""
    ay = np.abs(y)
    return np.exp((ay - ell) * a) * (1.0 + np.exp(-2.0 * a * ay)) / (1.0 + np.exp(-2.0 * a * ell))


def _sinh_ratio(y: np.ndarray, a, ell: float) -> np.ndarray:
    """sinh(a y)/sinh(a ell), stable for both tiny and large a*ell."""
    ay = np.abs(y)
    den = -np.expm1(-2.0 * a * ell)
    return np.sign(y) * np.exp((ay - ell) * a) * (-np.expm1(-2.0 * a * ay)) / den


def _profile_terms(m, lam, sigma: float):
    """Amplitudes and wavenumbers (q_amp, p_amp, c_bar, c, high) of modes
    (m, lam), given as scalars or broadcastable arrays."""
    m = np.asarray(m, dtype=float)
    c_bar, c, p_amp, q_amp = _terms(np.sqrt(lam), m, sigma)
    return q_amp, p_amp, c_bar, c, lam > (m * m) ** 2


def profile_raw(m, lam, parity: str, sigma: float, ell: float, y) -> np.ndarray:
    """Un-normalized y-profiles of the eigenfunctions profile(y) * sin(m x).

    m, lam and y broadcast against each other, so one call evaluates many
    modes of one parity at many points. Each element takes the branch of its
    own mode, cos (even) or sin (odd) above m^4 and the cosh or sinh ratio
    below, and each branch is evaluated only on its own elements.
    """
    q_amp, p_amp, c_bar, c, high = _profile_terms(m, lam, sigma)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(high.shape, y.shape)
    q_amp, p_amp, c_bar, c, high, y = (np.broadcast_to(v, shape).ravel()
                                       for v in (q_amp, p_amp, c_bar, c, high, y))
    ratio, trig = (_cosh_ratio, np.cos) if parity == EVEN else (_sinh_ratio, np.sin)
    out = q_amp * ratio(y, c_bar, ell)
    low = ~high
    out[low] += p_amp[low] * ratio(y[low], c[low], ell)
    c, y = c[high], y[high]
    out[high] += p_amp[high] * trig(c * y) / trig(c * ell)
    return out.reshape(shape)[()]


def profile_values(pair: HomEigenpair, y) -> np.ndarray:
    """Normalized y-profile at the given y values (array or scalar)."""
    raw = profile_raw(pair.mode.m, pair.lam, pair.mode.parity,
                      pair.sigma, pair.ell, y)
    return raw / pair.norm_const


def eval_eigenfunction(pair: HomEigenpair, x, y):
    """Eigenfunction value profile(y) * sin(m x); accepts scalars or arrays."""
    return profile_values(pair, y) * np.sin(pair.mode.m * np.asarray(x, dtype=float))


# _norm_consts integrates the square of each profile in closed form.  For the
# odd family it takes four functions of one argument:
#   G(t) = t coth t - 1,  K(t) = 1 - t cot t,
#   S(t) = G'(t) / t = (sinh 2t - 2t) / (2t sinh^2 t),
#   T(t) = K'(t) / t = (2t - sin 2t) / (2t sin^2 t).
# Each loses digits as t -> 0, so below _SERIES_CUT they come from their
# Taylor series: G(t) = sum g_n t^2n with g_n = 4^n B_2n / (2n)!, K has the
# coefficients |g_n|, and S and T take 2n g_n and 2n |g_n| at t^(2n-2).  The
# series converge for t < pi; at t < 1, 18 terms leave a relative truncation
# error below 2e-16.

_SERIES_CUT = 1.0
_SERIES_TERMS = 18


def _series_table(terms: int) -> np.ndarray:
    """Columns of Taylor coefficients in u = t^2 of G/u, K/u, S and T.

    g_n comes from t coth t = 1 + sum g_n t^2n as the quotient of the series
    of cosh t and sinh t / t, whose coefficients 1/(2n)! and 1/(2n+1)! give
    each g_n from the ones before it (to a few ulps)."""
    g = [1.0]
    for n in range(1, terms + 1):
        g.append(1.0 / math.factorial(2 * n)
                 - sum(g[n - k] / math.factorial(2 * k + 1) for k in range(1, n + 1)))
    g = np.array(g[1:])
    n2 = 2.0 * np.arange(1, terms + 1)
    return np.column_stack([g, np.abs(g), n2 * g, n2 * np.abs(g)])


_SERIES = _series_table(_SERIES_TERMS)[::-1, :, None]   # highest power first


def _odd_parts(t: np.ndarray):
    """(G, K, S, T) at the entries t > 0 of a 1-d array: each from its series
    below _SERIES_CUT and its direct form at and above it; each form sees
    only arguments on its own side of the cut."""
    small = t < _SERIES_CUT
    u = np.minimum(t, _SERIES_CUT) ** 2
    # Horner's rule on the four series at once: elementwise operations only,
    # so the bits do not depend on how a BLAS sums a product
    acc = np.zeros((4, u.size))
    for coef in _SERIES:
        acc *= u
        acc += coef
    g_u, k_u, s, tt = acc
    w = np.maximum(t, _SERIES_CUT)
    coth, cot = 1.0 / np.tanh(w), 1.0 / np.tan(w)
    e = np.exp(-2.0 * w)
    csch2 = 4.0 * e / (1.0 - e) ** 2
    return (np.where(small, u * g_u, w * coth - 1.0),
            np.where(small, u * k_u, 1.0 - w * cot),
            np.where(small, s, (coth - w * csch2) / w),
            np.where(small, tt, (2.0 * w - np.sin(2.0 * w)) / (2.0 * w * np.sin(w) ** 2)))


def _sech2(t):
    e = np.exp(-2.0 * t)
    return 4.0 * e / (1.0 + e) ** 2


def _norm_consts(m: np.ndarray, lam: np.ndarray, parity: str, cfg: PlateConfig) -> np.ndarray:
    """Profile scales so that every || profile(y) sin(m x) ||_L2(Omega) = 1,
    for the modes (m[i], lam[i]) of one parity, in closed form.

    With x = c_bar ell, z = c ell and x^2 -+ z^2 = 2 sqrt(lam) ell^2 on the
    low (high) branch, int profile^2 dy = ell (q^2 A + 2 q p B + p^2 C):
      even: A = sech^2 x + tanh(x)/x,
            C = sech^2 z + tanh(z)/z        or  sec^2 z + tan(z)/z,
            B = 2 (x tanh x - z tanh z) / (x^2 - z^2)
                                            or  2 (x tanh x + z tan z) / (x^2 + z^2);
      odd:  A = S(x),  C = S(z)  or  T(z),
            B = 2 (G(x) - G(z)) / (x^2 - z^2)  or  2 (G(x) + K(z)) / (x^2 + z^2).
    """
    ell = cfg.ell
    q, p, c_bar, c, high = _profile_terms(m, lam, cfg.sigma)
    x, z = c_bar * ell, c * ell
    d = 2.0 * np.sqrt(lam) * ell * ell
    if parity == EVEN:
        th_x, th_z, tn_z = np.tanh(x), np.tanh(z), np.tan(z)
        a = _sech2(x) + th_x / x
        c_low = _sech2(z) + th_z / z
        c_high = 1.0 / np.cos(z) ** 2 + tn_z / z
        b = 2.0 * (x * th_x + np.where(high, z * tn_z, -z * th_z)) / d
    else:
        n = x.size
        g, k, s, t = _odd_parts(np.concatenate([x, z]))
        a, c_low, c_high = s[:n], s[n:], t[n:]
        b = 2.0 * (g[:n] + np.where(high, k[n:], -g[n:])) / d
    sq = ell * (q * q * a + 2.0 * q * p * b + p * p * np.where(high, c_high, c_low))
    # x-factor contributes int_0^pi sin^2(mx) dx = pi/2
    norm = np.sqrt(sq * (math.pi / 2.0))
    if not np.all(np.isfinite(norm) & (sq > 0.0)):
        raise NonFinite("non-finite or non-positive L2 scale of a uniform-plate profile")
    return norm


# ---------------------------------------------------------------------------
# eigenvalue location
# ---------------------------------------------------------------------------
# Each eigenvalue is lam = s^2 for a root s = sqrt(lam) of one determinant in
# an a-priori bracket: below m^4, both parities in Lambda_(m,1)'s interval
# s in (sqrt(1 - sigma^2) m^2, m^2); above m^4, the even ones in one interval
# of c ell each and the odd ones at the sign changes of a scan over bands of
# c ell.  The bracket and scan builders take scalars or arrays of mode
# indices: build_spectrum sets up the brackets of every mode of both parities
# and solves them in one batched ITP solve (find_roots), while
# find_hom_eigenvalue runs the same builders for one mode and solves its one
# bracket with find_root, which is find_roots on a one-bracket array.  A
# bracket stops once it is at most _TOL_REL * max(1, |lo|, |hi|) wide (in
# s = sqrt(lam)), returning its midpoint, so a mode gets the same root either
# way; no bracket takes more than five steps over bisection's count, and the
# determinants' simple roots take about a dozen.

_SCAN_POINTS = 65
_EDGE = 1e-9
_TOL_REL = 1e-13
# Largest m a window may reach; the torsional window's grows like pi / (2 ell),
# so a plate narrower than about ell = 1.6e-6 is refused before any allocation.
_MAX_TORSIONAL_M = 10 ** 6


def _even_bracket(m, k, cfg: PlateConfig):
    """Bracket in s of the longitudinal eigenvalue Lambda_(m,k).

    k = 1: between sqrt(1 - sigma^2) m^2 and m^2 (even-low determinant);
    k >= 2: c ell in ((k - 3/2) pi, (k - 1) pi) (even-high determinant).
    """
    sigma, ell, mm = cfg.sigma, cfg.ell, m * m
    c_lo = (k - 1.5) * math.pi / ell
    c_hi = (k - 1.0) * math.pi / ell
    first = np.equal(k, 1)
    s_lo = np.where(first, math.sqrt(1.0 - sigma * sigma) * m * m, mm + c_lo * c_lo)
    s_hi = np.where(first, mm, mm + c_hi * c_hi)
    pad = (s_hi - s_lo) * _EDGE
    return s_lo + pad, s_hi - pad


def _band(j):
    """The band c ell in (j pi, j pi + pi/2), pulled in by _EDGE of its width:
    torsional roots above m^4 lie only in these bands."""
    lo, hi = j * math.pi, j * math.pi + 0.5 * math.pi
    return lo + (hi - lo) * _EDGE, hi - (hi - lo) * _EDGE


def _band_bracket(m, j, cfg: PlateConfig):
    """Bracket in s of the band j of m.  Squares are products: x ** 2 on a
    numpy scalar calls pow, which can round differently from an array's x * x."""
    c_lo, c_hi = (c / cfg.ell for c in _band(j))
    return m * m + c_lo * c_lo, m * m + c_hi * c_hi


def _odd_high_grid(m: np.ndarray, j: np.ndarray, cfg: PlateConfig) -> np.ndarray:
    """Scan points in s, one row per (m, j), over the band j of m; scanning
    the bands finds the occasional double root near the k = 1 existence
    threshold."""
    ell = cfg.ell
    lo, hi = _band(j)
    # keep the scan clear of the trivial determinant zero at c = 0: the
    # offset must shift s = m^2 + c^2 by well over its rounding resolution
    lo = np.maximum(np.maximum(lo, 1e-7), 3e-6 * m * ell)
    cl = np.linspace(lo, hi, _SCAN_POINTS, axis=-1)
    return (m * m)[:, None] + (cl / ell) ** 2


def _hits(s: np.ndarray, vals: np.ndarray):
    """Sign changes of vals along scan rows s, in row-major order, as
    (row, lo, hi): [lo, hi] brackets a sign change.  A grid zero counts as
    positive, so a simple root on it ends exactly one bracket, which the
    root finders return exactly."""
    row, col = np.nonzero((vals[:, :-1] < 0.0) != (vals[:, 1:] < 0.0))
    return row, s[row, col], s[row, col + 1]


def _high_scan(m, j, cfg: PlateConfig):
    """_hits of the odd-high determinant on the band grids of (m, j), scanned
    in blocks of rows whose (rows, _SCAN_POINTS) temporaries stay within
    _BLOCK_BYTES."""
    m, j = np.broadcast_arrays(m, j)
    step, parts = _BLOCK_BYTES // (8 * _SCAN_POINTS), []
    for i in range(0, m.size, step):
        mb = m[i:i + step]
        s = _odd_high_grid(mb, j[i:i + step], cfg)
        row, lo, hi = _hits(s, _det_odd_high(s, mb[:, None], cfg.sigma, cfg.ell))
        parts.append((row + i, lo, hi))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _low_bracket(m, cfg: PlateConfig):
    """Bracket in s of the torsional eigenvalue below m^4, in Lambda_(m,1)'s
    interval above it: the odd-low determinant is the even-low one less
    (tanh(c_bar ell) - tanh(c ell)) (c_bar q^2 + c p^2) > 0, so it is negative
    at _even_bracket(m, 1)'s lower end, and positive at the largest float below
    m^2 (the root nears m^2 at the threshold) iff torsional_first_exists."""
    return _even_bracket(m, 1, cfg)[0], np.nextafter(m * m, 0.0)


def _mode_lam(m: int, k: int, parity: str, cfg: PlateConfig) -> float:
    """Eigenvalue of the mode (m, k) of one parity, from the bracket and the
    determinant that build_spectrum batches, solved by find_root."""
    if parity == EVEN:
        det = _det_even_low if k == 1 else _det_even_high
        lo, hi = _even_bracket(m, k, cfg)
    elif k == 1:
        if not torsional_first_exists(m, cfg):
            raise NotAdmissible(
                f"torsional k=1 mode does not exist for m={m} at these parameters")
        # just above the existence threshold, where s* nears m, the determinant
        # is rounding noise at m^2: refuse the plate as degenerate there
        _require_c0(cfg)
        det = _det_odd_low
        lo, hi = _low_bracket(m, cfg)
    else:
        # a band holds one root except near the k = 1 existence threshold, so
        # blocks of k - 1 bands are scanned until k - 1 roots have shown up
        det, want = _det_odd_high, k - 1
        for j in range(0, 100000, k - 1):
            _, lo, hi = _high_scan(m, np.arange(j, j + k - 1), cfg)
            if lo.size >= want:
                lo, hi = lo[want - 1], hi[want - 1]
                break
            want -= lo.size
        else:
            raise RootIsolationFailure(f"could not isolate torsional ({m},{k})")
    try:
        s = find_root(lambda s: det(s, m, cfg.sigma, cfg.ell),
                      Bracket(float(lo), float(hi)), tol_rel=_TOL_REL)
    except NoSignChange as exc:
        raise RootIsolationFailure(f"no sign change for the {parity} mode ({m},{k})") from exc
    return s * s


def find_hom_eigenvalue(mode: Mode, cfg: PlateConfig) -> HomEigenpair:
    """Locate one eigenvalue of the homogeneous plate and build its profile.
    A torsional k = 1 mode raises C0Violated in the degenerate resonant case,
    as build_spectrum does."""
    lam = _mode_lam(mode.m, mode.k, mode.parity, cfg)
    (pair,) = _make_pairs(np.array([mode.m]), np.array([mode.k]), np.array([lam]),
                          mode.parity, cfg)
    return pair


def _make_pairs(m: np.ndarray, k: np.ndarray, lam: np.ndarray, parity: str,
                cfg: PlateConfig) -> list[HomEigenpair]:
    """Eigenpair records of located eigenvalues of one parity: wavenumbers and
    L2 scales."""
    _, _, c_bar, c, _ = _profile_terms(m, lam, cfg.sigma)
    norm = _norm_consts(m, lam, parity, cfg)
    return [HomEigenpair(Mode(mi, ki, parity), li, ci, cbi, ni, cfg.sigma, cfg.ell)
            for mi, ki, li, ci, cbi, ni in zip(m.tolist(), k.tolist(), lam.tolist(),
                                               c.tolist(), c_bar.tolist(), norm.tolist())]


# ---------------------------------------------------------------------------
# full spectrum
# ---------------------------------------------------------------------------

def _window(n: int, bracket, i_first: int, cfg: PlateConfig):
    """Modes that can be among the n lowest of one bracket family: bracket(m,
    i, cfg) gives (s_lo, s_hi) of the mode (m, i >= i_first), each holding an
    eigenvalue, both ends increasing in m and i.  The candidates are the
    brackets that start at or below the n-th smallest end.  Returns the m
    whose Lambda_(m,1) bracket starts there too (the candidates for a
    torsional eigenvalue below m^4, which shares that bracket's lower end),
    and the (m, i) of the candidates, m-major."""
    m, i = np.arange(1, n + 1), np.arange(i_first, i_first + n)
    col, (row_lo, row) = bracket(m, i_first, cfg)[1], bracket(1, i, cfg)
    # the cutoff is at most the corner end of a block of a x b >= n brackets:
    # the first block whose column and row ends all lie at or below one level
    level = np.sort(np.concatenate([col, row]))
    a, b = np.searchsorted(col, level, "right"), np.searchsorted(row, level, "right")
    first = np.argmax(a * b >= n)
    bound = bracket(a[first], i[b[first] - 1], cfg)[1]
    ends = bracket(m[col <= bound, None], i[row <= bound], cfg)[1]
    cutoff = np.partition(ends, n - 1, axis=None)[n - 1]
    # no bracket of m starts below sqrt(1 - sigma^2) m^2, where Lambda_(m,1)'s
    # does, and the brackets of m = 1 are disjoint, so no candidate has i > i[-1]
    root = math.sqrt(cutoff / math.sqrt(1.0 - cfg.sigma ** 2))
    if root > _MAX_TORSIONAL_M:
        raise ValueError(f"ell = {cfg.ell} is too small: the torsional window would hold "
                         f"about {root:.3g} mode numbers m, more than {_MAX_TORSIONAL_M}")
    m = np.arange(1, int(root) + 2)
    m = m[_even_bracket(m, 1, cfg)[0] <= cutoff]
    i = i[row_lo <= cutoff]
    rows, cols = np.nonzero(bracket(m[:, None], i, cfg)[0] <= cutoff)
    return m, m[rows], i[cols]


def _solve(groups, cfg: PlateConfig) -> list[np.ndarray]:
    """Roots s of (det, m, lo, hi) bracket groups, by one batched ITP solve:
    f evaluates every group's determinant on its slice of the trial points,
    so each step costs one determinant call per group."""
    edges = np.cumsum([0] + [g[1].size for g in groups])
    parts = list(zip(groups, edges[:-1], edges[1:]))

    def f(s: np.ndarray) -> np.ndarray:
        return np.concatenate([det(s[a:b], m, cfg.sigma, cfg.ell)
                               for (det, m, _, _), a, b in parts if b > a])

    try:
        s = find_roots(f, np.concatenate([g[2] for g in groups]),
                       np.concatenate([g[3] for g in groups]), tol_rel=_TOL_REL)
    except NoSignChange as exc:
        raise RootIsolationFailure(f"no sign change in an eigenvalue bracket: {exc}") from exc
    return [s[a:b] for _, a, b in parts]


def _lowest(n: int, m: np.ndarray, k: np.ndarray, lam: np.ndarray, parity: str,
            cfg: PlateConfig) -> list[HomEigenpair]:
    """Eigenpairs of the n smallest lam; ties keep (m, k) order."""
    order = np.lexsort((k, m, lam))[:n]
    return _make_pairs(m[order], k[order], lam[order], parity, cfg)


def build_spectrum(cfg: PlateConfig, cap: int = 200) -> HomSpectrum:
    """First cfg.n_modes longitudinal and torsional eigenpairs, ascending.

    The (m, k) scan window is derived from the a-priori eigenvalue brackets,
    so no eigenvalue below the returned ones can be missed. Raises C0Violated
    in the degenerate resonant case excluded by the theory.
    """
    n = cfg.n_modes
    if n > cap:
        raise ValueError(f"n_modes={n} exceeds the safety cap {cap}")
    # the torsional window refuses a plate too narrow for it, before c0 (whose
    # s* is then too large to tell an integer from a fraction)
    m_t, m_b, j_b = _window(n, _band_bracket, 0, cfg)
    _require_c0(cfg)

    _, m_e, k_e = _window(n, _even_bracket, 1, cfg)
    m_low = m_t[_first_exists(m_t, cfg)]
    first = k_e == 1
    m1, m2, k2 = m_e[first], m_e[~first], k_e[~first]
    row, lo, hi = _high_scan(m_b, j_b, cfg)
    m_high = m_b[row]
    s1, s2, s_low, s_high = _solve([(_det_even_low, m1, *_even_bracket(m1, 1, cfg)),
                                    (_det_even_high, m2, *_even_bracket(m2, k2, cfg)),
                                    (_det_odd_low, m_low, *_low_bracket(m_low, cfg)),
                                    (_det_odd_high, m_high, lo, hi)],
                                   cfg)
    lam_e = np.empty(m_e.size)
    lam_e[first], lam_e[~first] = s1 * s1, s2 * s2

    k_high = 2 + np.arange(row.size) - np.searchsorted(m_high, m_high)
    m_o, k_o = np.concatenate([m_low, m_high]), np.concatenate([np.ones_like(m_low), k_high])
    s_o = np.concatenate([s_low, s_high])

    mu = _lowest(n, m_e, k_e, lam_e, EVEN, cfg)
    nu = _lowest(n, m_o, k_o, s_o * s_o, ODD, cfg)

    for seq, label in ((mu, "longitudinal"), (nu, "torsional")):
        for a, b in zip(seq, seq[1:]):
            if abs(b.lam - a.lam) <= 1e-9 * max(abs(a.lam), 1.0):
                warnings.warn(
                    f"nearly coincident {label} eigenvalues at {a.lam:.12e} "
                    f"({a.mode} vs {b.mode})", RuntimeWarning, stacklevel=2)

    nu1 = nu[0].lam
    j0 = bisect_left([p.lam for p in mu], nu1)
    return HomSpectrum(mu=tuple(mu), nu=tuple(nu), j0=j0, config=cfg)


def known_j0(spec: HomSpectrum) -> int:
    """spec.j0; ValueError when nu_1 lies above every computed mu, since j0 is
    then only a lower bound."""
    if spec.j0 == len(spec.mu):
        raise ValueError(f"nu_1 lies above all {spec.j0} computed mu, so j0 is unknown; "
                         "raise n_modes (--n-modes)")
    return spec.j0
