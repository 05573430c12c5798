"""Spectrum of the homogeneous partially hinged plate.

Separated solutions u = profile(y) * sin(m x) of the clamped-free biharmonic
eigenproblem satisfy profile'''' - 2 m^2 profile'' + m^4 profile = lam * profile
together with the free-edge conditions at y = +-ell. Imposing those conditions
on the two-parameter even (resp. odd) solution family yields, per branch, a
2x2 determinant whose zeros are the eigenvalues. Longitudinal modes are the
y-even family, torsional modes the y-odd family.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
import numpy as np

from .config import PlateConfig
from .numerics import Bracket, NoSignChange, QuadratureRule, find_root, integrate_1d


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
        if self.m < 1 or self.k < 1:
            raise ValueError(f"mode indices must be >= 1, got m={self.m}, k={self.k}")
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
    """Ordered longitudinal (mu) and torsional (nu) eigenpairs, plus j0."""

    mu: tuple[HomEigenpair, ...]
    nu: tuple[HomEigenpair, ...]
    j0: int
    config: PlateConfig


# ---------------------------------------------------------------------------
# characteristic determinants
# ---------------------------------------------------------------------------
# All determinants are scaled by the positive factor 1/(cosh(c_bar ell) *
# cosh(c ell)) (hyperbolic parts only), which keeps them finite for any lam
# while preserving zeros and sign changes.

def _pq(s: float, m: int, sigma: float) -> tuple[float, float]:
    return s + (1.0 - sigma) * m * m, s - (1.0 - sigma) * m * m


def _det_even_low(s: float, m: int, sigma: float, ell: float) -> float:
    cbar = math.sqrt(s + m * m)
    c = math.sqrt(m * m - s)
    p, q = _pq(s, m, sigma)
    return cbar * q * q * math.tanh(cbar * ell) - c * p * p * math.tanh(c * ell)


def _det_even_high(s: float, m: int, sigma: float, ell: float) -> float:
    cbar = math.sqrt(s + m * m)
    c = math.sqrt(s - m * m)
    p, q = _pq(s, m, sigma)
    return (cbar * q * q * math.tanh(cbar * ell) * math.cos(c * ell)
            + c * p * p * math.sin(c * ell))


def _det_odd_low(s: float, m: int, sigma: float, ell: float) -> float:
    cbar = math.sqrt(s + m * m)
    c = math.sqrt(m * m - s)
    p, q = _pq(s, m, sigma)
    return cbar * q * q * math.tanh(c * ell) - c * p * p * math.tanh(cbar * ell)


def _det_odd_high(s: float, m: int, sigma: float, ell: float) -> float:
    cbar = math.sqrt(s + m * m)
    c = math.sqrt(s - m * m)
    p, q = _pq(s, m, sigma)
    return (cbar * q * q * math.sin(c * ell)
            - c * p * p * math.tanh(cbar * ell) * math.cos(c * ell))


def characteristic_det(lam: float, m: int, branch: str, cfg: PlateConfig) -> float:
    """Free-edge boundary determinant at trial eigenvalue lam.

    branch selects the solution family: 'even-low' (lam < m^4), 'even-high'
    (lam > m^4) or 'odd' (either side of m^4, dispatched on lam).
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    m4 = float(m) ** 4
    if lam == m4:
        raise BranchMismatch(f"lam = m^4 = {m4} is a branch point")
    s = math.sqrt(lam)
    if branch == EVEN_LOW:
        if lam > m4:
            raise BranchMismatch(f"lam={lam} > m^4={m4} on the even-low branch")
        return _det_even_low(s, m, cfg.sigma, cfg.ell)
    if branch == EVEN_HIGH:
        if lam < m4:
            raise BranchMismatch(f"lam={lam} < m^4={m4} on the even-high branch")
        return _det_even_high(s, m, cfg.sigma, cfg.ell)
    if branch == ODD_BRANCH:
        if lam < m4:
            return _det_odd_low(s, m, cfg.sigma, cfg.ell)
        return _det_odd_high(s, m, cfg.sigma, cfg.ell)
    raise ValueError(f"unknown branch {branch!r}")


# ---------------------------------------------------------------------------
# existence conditions
# ---------------------------------------------------------------------------

def torsional_first_exists(m: int, cfg: PlateConfig) -> bool:
    """Whether the first torsional branch (k=1, eigenvalue below m^4) exists:
    ell*m*sqrt(2)*coth(ell*m*sqrt(2)) > ((2-sigma)/sigma)^2.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    x = cfg.ell * m * math.sqrt(2.0)
    return x / math.tanh(x) > ((2.0 - cfg.sigma) / cfg.sigma) ** 2


def check_c0(cfg: PlateConfig) -> tuple[bool, float]:
    """Solve tanh(sqrt(2) s ell) = (sigma/(2-sigma))^2 sqrt(2) s ell for s > 0.

    Returns (holds, s_star): holds is True when s_star is not an integer
    (within 1e-9); an integer s_star is the degenerate resonant case.
    """
    q = (cfg.sigma / (2.0 - cfg.sigma)) ** 2
    # in z = sqrt(2) s ell: tanh(z) = q z, unique positive root since q < 1
    z0 = find_root(lambda z: math.tanh(z) - q * z, Bracket(1e-8, 2.0 / q), tol_rel=1e-14)
    s_star = z0 / (math.sqrt(2.0) * cfg.ell)
    holds = abs(s_star - round(s_star)) > 1e-9
    return holds, s_star


# ---------------------------------------------------------------------------
# profile evaluation (stable ratio forms)
# ---------------------------------------------------------------------------

def _cosh_ratio(y: np.ndarray, a: float, ell: float) -> np.ndarray:
    """cosh(a y)/cosh(a ell) without overflow for large a*ell."""
    ay = np.abs(y)
    return np.exp((ay - ell) * a) * (1.0 + np.exp(-2.0 * a * ay)) / (1.0 + math.exp(-2.0 * a * ell))


def _sinh_ratio(y: np.ndarray, a: float, ell: float) -> np.ndarray:
    """sinh(a y)/sinh(a ell), stable for both tiny and large a*ell."""
    ay = np.abs(y)
    den = -math.expm1(-2.0 * a * ell)
    return np.sign(y) * np.exp((ay - ell) * a) * (-np.expm1(-2.0 * a * ay)) / den


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


def _profile_terms(m: int, lam: float, sigma: float):
    """Amplitudes and wavenumbers (q_amp, p_amp, c_bar, c, high) for a mode."""
    s = math.sqrt(lam)
    p_amp = s + (1.0 - sigma) * m * m
    q_amp = s - (1.0 - sigma) * m * m
    c_bar = math.sqrt(s + m * m)
    c = math.sqrt(abs(s - m * m))
    return q_amp, p_amp, c_bar, c, lam > float(m) ** 4


def profile_raw(m: int, lam: float, parity: str, sigma: float, ell: float,
                y: np.ndarray) -> np.ndarray:
    """Un-normalized y-profile of the eigenfunction profile(y) * sin(m x)."""
    q_amp, p_amp, c_bar, c, high = _profile_terms(m, lam, sigma)
    y = np.asarray(y, dtype=float)
    if parity == EVEN:
        lead = q_amp * _cosh_ratio(y, c_bar, ell)
        if high:
            return lead + p_amp * np.cos(c * y) / math.cos(c * ell)
        return lead + p_amp * _cosh_ratio(y, c, ell)
    lead = q_amp * _sinh_ratio(y, c_bar, ell)
    if high:
        return lead + p_amp * np.sin(c * y) / math.sin(c * ell)
    return lead + p_amp * _sinh_ratio(y, c, ell)


def profile_values(pair: HomEigenpair, y) -> np.ndarray:
    """Normalized y-profile at the given y values (array or scalar)."""
    raw = profile_raw(pair.mode.m, pair.lam, pair.mode.parity,
                      pair.sigma, pair.ell, np.asarray(y, dtype=float))
    return raw / pair.norm_const


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


def eval_eigenfunction(pair: HomEigenpair, x, y):
    """Eigenfunction value profile(y) * sin(m x); accepts scalars or arrays."""
    return profile_values(pair, y) * np.sin(pair.mode.m * np.asarray(x, dtype=float))


def _norm_quadrature_order(c: float, ell: float) -> int:
    # resolve the oscillatory cos/sin factor: about one GL point per half cycle
    # of c*y over (-ell, ell), plus safety margin
    return min(200, max(24, int(math.ceil(2.0 * c * ell)) + 16))


def _normalization(m: int, lam: float, parity: str, cfg: PlateConfig) -> float:
    """Profile scale so that || profile(y) sin(mx) ||_L2(Omega) = 1."""
    _, _, _, c, high = _profile_terms(m, lam, cfg.sigma)
    order = _norm_quadrature_order(c if high else 0.0, cfg.ell)
    rule = QuadratureRule(-cfg.ell, cfg.ell, order=order)
    val = integrate_1d(
        lambda y: profile_raw(m, lam, parity, cfg.sigma, cfg.ell, y) ** 2, rule)
    # x-factor contributes int_0^pi sin^2(mx) dx = pi/2
    return math.sqrt(val * (math.pi / 2.0))


# ---------------------------------------------------------------------------
# eigenvalue location
# ---------------------------------------------------------------------------

_SCAN_POINTS = 65
_EDGE = 1e-9


def _bisect_s(det, s_lo: float, s_hi: float) -> float:
    return find_root(det, Bracket(s_lo, s_hi), tol_rel=1e-13)


def _even_lam(m: int, k: int, cfg: PlateConfig) -> float:
    sigma, ell = cfg.sigma, cfg.ell
    if k == 1:
        s_lo = math.sqrt(1.0 - sigma * sigma) * m * m
        s_hi = float(m * m)
        pad = (s_hi - s_lo) * _EDGE
        det = lambda s: _det_even_low(s, m, sigma, ell)
        try:
            s = _bisect_s(det, s_lo + pad, s_hi - pad)
        except NoSignChange as exc:
            raise RootIsolationFailure(
                f"no sign change for Lambda_({m},1) in (({1-sigma**2})m^4, m^4)") from exc
        return s * s
    c_lo = (k - 1.5) * math.pi / ell
    c_hi = (k - 1.0) * math.pi / ell
    s_lo = m * m + c_lo * c_lo
    s_hi = m * m + c_hi * c_hi
    pad = (s_hi - s_lo) * _EDGE
    det = lambda s: _det_even_high(s, m, sigma, ell)
    try:
        s = _bisect_s(det, s_lo + pad, s_hi - pad)
    except NoSignChange as exc:
        raise RootIsolationFailure(f"no sign change for Lambda_({m},{k})") from exc
    return s * s


def _odd_low_lam(m: int, cfg: PlateConfig) -> float:
    """The torsional eigenvalue below m^4 (requires the existence inequality)."""
    sigma, ell = cfg.sigma, cfg.ell
    lam_m1 = _even_lam(m, 1, cfg)
    s_lo, s_hi = math.sqrt(lam_m1), float(m * m)
    det = lambda s: _det_odd_low(s, m, sigma, ell)
    pad = (s_hi - s_lo) * _EDGE
    grid = np.linspace(s_lo + pad, s_hi - pad, _SCAN_POINTS)
    vals = [det(s) for s in grid]
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            return float(grid[i]) ** 2
        if (vals[i] < 0.0) != (vals[i + 1] < 0.0):
            s = _bisect_s(det, float(grid[i]), float(grid[i + 1]))
            return s * s
    raise RootIsolationFailure(f"no torsional root below m^4 for m={m}")


def _odd_high_lams(m: int, cfg: PlateConfig, count: int | None = None,
                   lam_cutoff: float | None = None) -> list[float]:
    """Torsional eigenvalues above m^4, ascending.

    Roots of the odd determinant live only in the bands c*ell in
    (j pi, j pi + pi/2); each band is scanned for sign changes so that the
    occasional double root (near the k=1 existence threshold) is not missed.
    Stops after `count` roots or once a band lies beyond `lam_cutoff`.
    """
    sigma, ell = cfg.sigma, cfg.ell
    det = lambda s: _det_odd_high(s, m, sigma, ell)
    roots: list[float] = []
    j = 0
    while True:
        cl_lo = j * math.pi
        cl_hi = j * math.pi + 0.5 * math.pi
        band_floor = (m * m + (cl_lo / ell) ** 2) ** 2
        if lam_cutoff is not None and band_floor > lam_cutoff:
            break
        if count is not None and len(roots) >= count:
            break
        # keep the scan clear of the trivial determinant zero at c = 0: the
        # offset must shift s = m^2 + c^2 by well over its rounding resolution
        lo = max(cl_lo + (cl_hi - cl_lo) * _EDGE, 1e-7, 3e-6 * m * ell)
        hi = cl_hi - (cl_hi - cl_lo) * _EDGE
        grid = np.linspace(lo, hi, _SCAN_POINTS)
        s_grid = [m * m + (cl / ell) ** 2 for cl in grid]
        vals = [det(s) for s in s_grid]
        for i in range(len(grid) - 1):
            if vals[i] == 0.0:
                if s_grid[i] > m * m:
                    roots.append(s_grid[i] ** 2)
            elif (vals[i] < 0.0) != (vals[i + 1] < 0.0):
                s = _bisect_s(det, s_grid[i], s_grid[i + 1])
                roots.append(s * s)
        j += 1
        if j > 100000:
            raise RootIsolationFailure("torsional band scan did not terminate")
    return sorted(roots)


def find_hom_eigenvalue(mode: Mode, cfg: PlateConfig) -> HomEigenpair:
    """Locate one eigenvalue of the homogeneous plate and build its profile."""
    m, k = mode.m, mode.k
    if mode.parity == EVEN:
        lam = _even_lam(m, k, cfg)
    else:
        exists_low = torsional_first_exists(m, cfg)
        if k == 1:
            if not exists_low:
                raise NotAdmissible(
                    f"torsional k=1 mode does not exist for m={m} at these parameters")
            lam = _odd_low_lam(m, cfg)
        else:
            highs = _odd_high_lams(m, cfg, count=k - 1)
            if len(highs) < k - 1:
                raise RootIsolationFailure(f"could not isolate torsional ({m},{k})")
            lam = highs[k - 2]
    return _make_pair(mode, lam, cfg)


def _make_pair(mode: Mode, lam: float, cfg: PlateConfig) -> HomEigenpair:
    """Eigenpair record for a located eigenvalue: wavenumbers and L2 scale."""
    m = mode.m
    s = math.sqrt(lam)
    return HomEigenpair(
        mode=mode,
        lam=lam,
        c=math.sqrt(abs(s - m * m)),
        c_bar=math.sqrt(s + m * m),
        norm_const=_normalization(m, lam, mode.parity, cfg),
        sigma=cfg.sigma,
        ell=cfg.ell,
    )


# ---------------------------------------------------------------------------
# full spectrum
# ---------------------------------------------------------------------------

def _nth_upper_cutoff(n: int, upper, i_first: int) -> float:
    """n-th smallest value of upper(m, i), which increases in both m and i."""
    vals: list[float] = []
    m = 1
    while True:
        if len(vals) >= n:
            vals.sort()
            if vals[n - 1] <= upper(m, i_first):
                return vals[n - 1]
        i = i_first
        while True:
            u = upper(m, i)
            vals.append(u)
            if len(vals) >= n:
                nth = sorted(vals)[n - 1]
                if u > nth:
                    break
            i += 1
            if i - i_first > 10 ** 6:
                raise RuntimeError("cutoff scan stuck in i")
        m += 1
        if m > 10 ** 6:
            raise RuntimeError("cutoff scan stuck in m")


def _longitudinal_pairs(n: int, cfg: PlateConfig) -> list[HomEigenpair]:
    sigma, ell = cfg.sigma, cfg.ell
    om = (math.pi / ell) ** 2

    def upper(m: int, k: int) -> float:
        return float(m) ** 4 if k == 1 else (m * m + om * (k - 1.0) ** 2) ** 2

    def lower(m: int, k: int) -> float:
        if k == 1:
            return (1.0 - sigma * sigma) * float(m) ** 4
        return (m * m + om * (k - 1.5) ** 2) ** 2

    cutoff = _nth_upper_cutoff(n, upper, 1)
    candidates: list[Mode] = []
    m = 1
    while lower(m, 1) <= cutoff:
        k = 1
        while lower(m, k) <= cutoff:
            candidates.append(Mode(m, k, EVEN))
            k += 1
        m += 1
    pairs = [find_hom_eigenvalue(mode, cfg) for mode in candidates]
    pairs.sort(key=lambda p: p.lam)
    return pairs[:n]


def _torsional_pairs(n: int, cfg: PlateConfig) -> list[HomEigenpair]:
    sigma, ell = cfg.sigma, cfg.ell
    om = (math.pi / ell) ** 2

    def upper(m: int, j: int) -> float:
        # root in band j satisfies lam < (m^2 + (pi/ell)^2 (j + 1/2)^2)^2
        return (m * m + om * (j + 0.5) ** 2) ** 2

    cutoff = _nth_upper_cutoff(n, upper, 0)

    def modes_for_m(m: int) -> list[tuple[float, Mode]]:
        out: list[tuple[float, Mode]] = []
        if torsional_first_exists(m, cfg):
            out.append((_odd_low_lam(m, cfg), Mode(m, 1, ODD)))
        for k, lam in enumerate(_odd_high_lams(m, cfg, lam_cutoff=cutoff), start=2):
            out.append((lam, Mode(m, k, ODD)))
        return out

    flat: list[tuple[float, Mode]] = []
    m = 1
    while (1.0 - sigma * sigma) * float(m) ** 4 <= cutoff:
        flat.extend(modes_for_m(m))
        m += 1
    flat.sort(key=lambda t: t[0])
    return [_make_pair(mode, lam, cfg) for lam, mode in flat[:n]]


def build_spectrum(cfg: PlateConfig, cap: int = 200) -> HomSpectrum:
    """First cfg.n_modes longitudinal and torsional eigenpairs, ascending.

    The (m, k) scan window is derived from the a-priori eigenvalue brackets,
    so no eigenvalue below the returned ones can be missed. Raises C0Violated
    in the degenerate resonant case excluded by the theory.
    """
    n = cfg.n_modes
    if n > cap:
        raise ValueError(f"n_modes={n} exceeds the safety cap {cap}")
    holds, s_star = check_c0(cfg)
    if not holds:
        raise C0Violated(f"degenerate parameters: s* = {s_star} is an integer")

    mu = _longitudinal_pairs(n, cfg)
    nu = _torsional_pairs(n, cfg)

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
