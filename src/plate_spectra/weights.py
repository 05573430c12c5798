"""Admissible plate densities: bounded between alpha and beta, even in y,
with total mass |Omega|. Covers the closed-form banded bang-bang weights and
grid-discretized sublevel-set weights.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .config import PlateConfig
from .numerics import Bracket, find_root


class WeightError(Exception):
    pass


Interval = tuple[float, float]


def _check_intervals(intervals: Sequence[Interval], lo: float, hi: float) -> tuple[Interval, ...]:
    ivs = tuple((float(a), float(b)) for a, b in intervals)
    for a, b in ivs:
        if not (lo <= a < b <= hi):
            raise ValueError(f"interval ({a}, {b}) not inside [{lo}, {hi}]")
    for (_, b1), (a2, _) in zip(ivs, ivs[1:]):
        if b1 > a2:
            raise ValueError(f"intervals overlap or are unsorted: {ivs}")
    return ivs


def _length(intervals: tuple[Interval, ...]) -> float:
    return sum(b - a for a, b in intervals)


# ---------------------------------------------------------------------------
# grid fields (cell-center sampling, midpoint measure)
# ---------------------------------------------------------------------------

def cell_xs(nx: int) -> np.ndarray:
    """x of the centres of nx equal cells across (0, pi)."""
    return (np.arange(nx) + 0.5) * (math.pi / nx)


def cell_ys(ny: int, ell: float) -> np.ndarray:
    """y of the centres of ny equal cells across (-ell, ell), exactly
    antisymmetric: ys[::-1] == -ys bit for bit."""
    return (np.arange(ny) - (ny - 1) / 2) * (2.0 * ell / ny)


@dataclass(frozen=True, eq=False)
class GridField:
    """Scalar field sampled at cell centers of a uniform grid on Omega.

    The grid has nx * ny cells; ny must be odd so the row of cells straddling
    y = 0 is centered on it, making y-parity exact on samples. The associated
    measure is the midpoint rule (every cell has the same area).
    """

    values: np.ndarray  # shape (nx, ny)
    ell: float
    parity: str | None = None  # "even" | "odd" | None

    def __post_init__(self) -> None:
        if self.parity not in (None, "even", "odd"):
            raise ValueError(f"parity must be 'even', 'odd' or None, got {self.parity!r}")
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"values must be 2D, got shape {v.shape}")
        if v.shape[0] < 1:
            raise ValueError(f"nx must be >= 1, got {v.shape[0]}")
        if v.shape[1] % 2 == 0:
            raise ValueError(f"ny must be odd, got {v.shape[1]}")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite field samples")
        object.__setattr__(self, "values", v)
        if self.parity is not None:
            _check_parity(v, self.parity)

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    @property
    def xs(self) -> np.ndarray:
        return cell_xs(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return cell_ys(self.ny, self.ell)

    @property
    def cell_area(self) -> float:
        return (math.pi / self.nx) * (2.0 * self.ell / self.ny)


def _parity_residual(v: np.ndarray, parity: str) -> float:
    """max |v[:, j] - v[:, ny - 1 - j]| (even) or |v[:, j] + v[:, ny - 1 - j]|
    (odd). Only the columns j <= ny // 2 are compared: the rest mirror them,
    and the middle column is its own mirror image."""
    h = v.shape[1] // 2 + 1
    left, right = v[:, :h], v[:, :-h - 1:-1]
    d = left - right if parity == "even" else left + right
    return float(np.abs(d, out=d).max())


def _check_parity(v: np.ndarray, parity: str) -> None:
    """Raise ValueError unless v has the parity in y to 1e-10 relative."""
    resid = _parity_residual(v, parity)
    if resid > 1e-10 * max(1.0, float(v.max()), -float(v.min())):
        raise ValueError(f"declared {parity} parity violated (residual {resid:.3e})")


def sample_field(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 cfg: PlateConfig, nx: int = 600, ny: int = 31,
                 parity: str | None = None) -> GridField:
    """Sample fn(x, y) on the cell-center grid."""
    vals = np.asarray(fn(cell_xs(nx)[:, None], cell_ys(ny, cfg.ell)[None, :]), dtype=float)
    return GridField(np.broadcast_to(vals, (nx, ny)).copy(), cfg.ell, parity)


# ---------------------------------------------------------------------------
# weight variants
# ---------------------------------------------------------------------------

BandTerm = tuple[float, tuple[Interval, ...] | None, tuple[Interval, ...] | None]


@dataclass(frozen=True)
class Bands:
    """Two-phase band weight: inside where x lies in x_intervals OR y lies in
    y_intervals (intervals half-open [a, b)), outside elsewhere.

    ell is the plate half-width the y-intervals were declared for. It only
    bounds the intervals, goes into the JSON spec and is checked against the
    plate (plate_mismatch) in validate and in the mass assembly; all
    arithmetic takes its geometry from the PlateConfig. Weights without
    y-intervals declare no geometry.
    """

    x_intervals: tuple[Interval, ...]
    y_intervals: tuple[Interval, ...]
    inside: float
    outside: float
    ell: float | None = None

    def __post_init__(self) -> None:
        if self.y_intervals and self.ell is None:
            raise ValueError("y-intervals need the declared plate half-width ell")
        half = 0.0 if self.ell is None else self.ell
        object.__setattr__(self, "x_intervals",
                           _check_intervals(self.x_intervals, 0.0, math.pi))
        object.__setattr__(self, "y_intervals",
                           _check_intervals(self.y_intervals, -half, half))

    def terms(self) -> list[BandTerm]:
        """The density as a sum of coeff * chi_X(x) * chi_Y(y) terms, in the
        order outside, X, Y, X-and-Y; None stands for the constant-one factor
        and terms on an empty interval set are dropped."""
        d = self.inside - self.outside
        xs, ys = self.x_intervals or None, self.y_intervals or None
        out: list[BandTerm] = [(self.outside, None, None)]
        if xs:
            out.append((d, xs, None))
        if ys:
            out.append((d, None, ys))
        if xs and ys:
            out.append((-d, xs, ys))
        return out

    def union_fraction(self, ell: float) -> float:
        """Area fraction of {x in X or y in Y} on the plate of half-width ell."""
        fx = _length(self.x_intervals) / math.pi
        fy = _length(self.y_intervals) / (2.0 * ell)
        return fx + fy - fx * fy


class Uniform(Bands):
    """The constant density value."""

    def __init__(self, value: float = 1.0) -> None:
        super().__init__((), (), value, value)


class XBands(Bands):
    """inside on the x-intervals, outside elsewhere."""

    def __init__(self, intervals: Sequence[Interval], inside: float, outside: float) -> None:
        super().__init__(intervals, (), inside, outside)


class YBands(Bands):
    """inside on the y-intervals, which must be symmetric about y = 0."""

    def __init__(self, intervals: Sequence[Interval], inside: float, outside: float,
                 ell: float) -> None:
        super().__init__((), intervals, inside, outside, ell)


class Cross(Bands):
    """inside where x lies in x_intervals OR y lies in y_intervals."""


@dataclass(frozen=True, eq=False)
class Sublevel:
    """inside on {field <= threshold}, outside elsewhere.

    Cells exactly at the threshold level carry the mixed value
    outside + tie_fraction * (inside - outside), the discrete analogue of
    splitting the level set to hit the target measure exactly.
    """

    field: GridField
    threshold: float
    inside: float
    outside: float
    tie_fraction: float = 1.0
    degenerate: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.tie_fraction <= 1.0:
            raise ValueError(f"tie_fraction must be in [0, 1], got {self.tie_fraction}")

    def node_values(self) -> np.ndarray:
        v = self.field.values
        out = np.where(v <= self.threshold, self.inside, self.outside)
        tie = v == self.threshold
        if np.any(tie):
            out[tie] = self.outside + self.tie_fraction * (self.inside - self.outside)
        return out

    def inside_mask(self) -> np.ndarray:
        return self.field.values <= self.threshold


Variant = Union[Bands, Sublevel]


@dataclass(frozen=True, eq=False)
class Weight:
    """A density in the admissible class, with its bounds for validation."""

    variant: Variant
    alpha: float
    beta: float


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _in_intervals(x: np.ndarray, intervals: tuple[Interval, ...]) -> np.ndarray:
    hit = np.zeros(np.shape(x), dtype=bool)
    for a, b in intervals:
        hit |= (x >= a) & (x < b)
    return hit


def eval_weight(w: Weight, x, y):
    """Pointwise density value; intervals are closed on the left."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v = w.variant
    if isinstance(v, Bands):
        hit = _in_intervals(x, v.x_intervals) | _in_intervals(y, v.y_intervals)
        return np.where(hit, v.inside, v.outside)
    f = v.field
    i = np.clip((x / math.pi * f.nx).astype(int), 0, f.nx - 1)
    j = np.clip(((y + f.ell) / (2.0 * f.ell) * f.ny).astype(int), 0, f.ny - 1)
    return v.node_values()[i, j]


# ---------------------------------------------------------------------------
# mass, symmetry, bounds
# ---------------------------------------------------------------------------

def mean_density(w: Weight, cfg: PlateConfig) -> float:
    """Integral of the density over Omega divided by |Omega|."""
    v = w.variant
    if isinstance(v, Bands):
        return v.outside + (v.inside - v.outside) * v.union_fraction(cfg.ell)
    return float(np.mean(v.node_values()))


def sqrt_mass_integral(w: Weight, cfg: PlateConfig) -> float:
    """Integral of sqrt(density) over Omega (enters the asymptotic eigenvalue law)."""
    v = w.variant
    if isinstance(v, Bands):
        frac = v.union_fraction(cfg.ell)
        return cfg.area * (math.sqrt(v.inside) * frac + math.sqrt(v.outside) * (1.0 - frac))
    return float(np.sum(np.sqrt(v.node_values()))) * v.field.cell_area


def plate_mismatch(v: Variant, ell: float) -> str:
    """Why the variant does not fit the plate of half-width ell, or "" when
    its declared ell is within 1e-9 ell of it or it declares none."""
    declared = v.ell if isinstance(v, Bands) else v.field.ell
    if declared is None or abs(declared - ell) <= 1e-9 * ell:
        return ""
    return f"declared ell {declared!r} differs from the plate's ell {ell!r}"


@dataclass(frozen=True)
class MembershipReport:
    bounds_violation: float
    symmetry_residual: float
    mass_error: float  # relative
    passed: bool
    detail: str = ""


def validate(w: Weight, cfg: PlateConfig) -> MembershipReport:
    """Check the declared plate geometry, that the declared bounds and the
    weight's values are finite, the bounds of both the weight and the plate
    configuration, y-evenness, and total mass |Omega|."""
    v = w.variant
    declared = (("alpha", w.alpha), ("beta", w.beta), ("inside", v.inside), ("outside", v.outside))
    nonfinite = [name for name, x in declared if not math.isfinite(x)]
    if isinstance(v, Bands):
        values = [v.inside, v.outside]
        ivs = sorted(v.y_intervals)
        mirrored = sorted((-b, -a) for a, b in ivs)
        sym = max((max(abs(a1 - a2), abs(b1 - b2))
                   for (a1, b1), (a2, b2) in zip(ivs, mirrored)), default=0.0)
    else:
        nv = v.node_values()
        values = [float(nv.min()), float(nv.max())]
        sym = _parity_residual(nv, "even")
    lo, hi = min(values), max(values)
    bounds = max(0.0, w.alpha - lo, cfg.alpha - lo, hi - w.beta, hi - cfg.beta)
    geometry = plate_mismatch(v, cfg.ell)

    mass = mean_density(w, cfg) - 1.0

    passed = (not geometry and not nonfinite and bounds <= 1e-12 and sym <= 1e-10
              and abs(mass) <= 1e-6)
    detail = [geometry] if geometry else []
    if nonfinite:
        detail.append("non-finite " + ", ".join(nonfinite))
    if bounds > 1e-12:
        detail.append(f"bounds violated by {bounds:.3e}")
    if sym > 1e-10:
        detail.append(f"y-symmetry residual {sym:.3e}")
    if abs(mass) > 1e-6:
        detail.append(f"relative mass error {mass:.3e}")
    return MembershipReport(bounds, sym, mass, passed, "; ".join(detail))


# ---------------------------------------------------------------------------
# sublevel thresholding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdResult:
    threshold: float
    degenerate: bool


def threshold_for_area(field: GridField, target_area: float) -> ThresholdResult:
    """Smallest level t with |{field <= t}| >= target_area in the grid measure.

    Cells at the boundary level are meant to count fractionally (see Sublevel);
    the returned t is the exact sample quantile. Flags a constant field as
    degenerate (any level works).
    """
    area = math.pi * 2.0 * field.ell
    if not 0.0 < target_area < area:
        raise ValueError(f"target_area must lie in (0, |Omega|), got {target_area}")
    v = field.values.ravel()
    if float(v.max()) == float(v.min()):
        return ThresholdResult(float(v[0]), True)
    need = int(math.ceil(target_area / field.cell_area - 1e-9))
    need = max(1, min(need, v.size))
    t = float(np.partition(v, need - 1)[need - 1])
    return ThresholdResult(t, False)


def sublevel_split(field: GridField, target_area: float, inside: float,
                   outside: float) -> tuple[float, float, bool]:
    """(threshold, tie_fraction, degenerate) so that the sublevel weight built
    from them has inside-measure exactly target_area on the grid."""
    res = threshold_for_area(field, target_area)
    v = field.values
    a = field.cell_area
    if res.degenerate:
        frac = target_area / (v.size * a)
        return res.threshold, frac, True
    below = float(np.count_nonzero(v < res.threshold)) * a
    ties = float(np.count_nonzero(v == res.threshold)) * a
    theta = (target_area - below) / ties if ties > 0 else 1.0
    return res.threshold, min(1.0, max(0.0, theta)), False


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _band_centers(j: int) -> list[float]:
    return [(2 * h - 1) * math.pi / (2 * j) for h in range(1, j + 1)]


def make_pbar_j(j: int, cfg: PlateConfig) -> Weight:
    """j equal bands of the dense phase centered on the antinodes of sin(jx).

    Band widths follow from the mass constraint, so membership is exact. For
    j >= 2 this is also the bang-bang weight with alpha on {sin^4(jx) <= t_j}
    and beta elsewhere: the sublevel set at the mass-balancing level is exactly
    the union of the gaps between the bands, and the closed-form edges avoid
    the quantization of the grid threshold (see pj_sin4_threshold).
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    hw = (math.pi / j) * (1.0 - cfg.alpha) / (2.0 * (cfg.beta - cfg.alpha))
    bands = tuple((c - hw, c + hw) for c in _band_centers(j))
    return Weight(XBands(bands, inside=cfg.beta, outside=cfg.alpha),
                  cfg.alpha, cfg.beta)


def pj_sin4_threshold(j: int, cfg: PlateConfig, nx_per_band: int = 8192) -> float:
    """Level t_j with |{sin^4(jx) <= t_j}| = (beta-1)/(beta-alpha) |Omega|,
    located through the grid threshold machinery on a fine sample."""
    if j < 2:
        raise ValueError(f"j must be >= 2, got {j}")
    nx = nx_per_band * j + 1
    field = sample_field(lambda x, y: np.sin(j * x) ** 4 + 0.0 * y, cfg,
                         nx=nx, ny=3, parity="even")
    target = (cfg.beta - 1.0) / (cfg.beta - cfg.alpha) * cfg.area
    return threshold_for_area(field, target).threshold


def sin4_level_exact(cfg: PlateConfig) -> float:
    """Closed-form t_j (independent of j): sin^4 at the band edge."""
    return math.sin(0.5 * math.pi * (cfg.beta - 1.0) / (cfg.beta - cfg.alpha)) ** 4


def make_breve_p(cfg: PlateConfig) -> Weight:
    """Dense phase concentrated in a band around the mid-line y = 0."""
    hw = cfg.ell * (1.0 - cfg.alpha) / (cfg.beta - cfg.alpha)
    return Weight(YBands(((-hw, hw),), inside=cfg.beta, outside=cfg.alpha, ell=cfg.ell),
                  cfg.alpha, cfg.beta)


def make_doublebar_p(cfg: PlateConfig) -> Weight:
    """Dense phase concentrated near the short edges (light central x-band)."""
    hw = math.pi * (cfg.beta - 1.0) / (2.0 * (cfg.beta - cfg.alpha))
    band = ((math.pi / 2.0 - hw, math.pi / 2.0 + hw),)
    return Weight(XBands(band, inside=cfg.alpha, outside=cfg.beta),
                  cfg.alpha, cfg.beta)


# Fraction of the mid-line band width retained when combining it with the
# x-band system; calibrated once against the benchmark spectrum of the
# combined weight (its exact geometry is only published as a small image).
TILDE_Y_RETENTION = 0.96


def make_tilde_p(cfg: PlateConfig, j: int = 10) -> Weight:
    """Cross-type weight: mid-line y-band combined with j x-bands.

    The y-band keeps TILDE_Y_RETENTION of the stand-alone band width and the
    x-bands absorb the remaining dense-phase budget; their width is solved
    from the union-mass identity by find_root so the total mass is exactly
    |Omega|.
    """
    frac = (1.0 - cfg.alpha) / (cfg.beta - cfg.alpha)
    fy = TILDE_Y_RETENTION * frac
    # solve fx + fy - fx*fy = frac for the x fraction
    fx = find_root(lambda t: t + fy - t * fy - frac, Bracket(0.0, frac), tol_rel=1e-14)
    y_hw = fy * cfg.ell
    x_hw = fx * math.pi / (2 * j)
    bands = tuple((c - x_hw, c + x_hw) for c in _band_centers(j))
    return Weight(Cross(bands, ((-y_hw, y_hw),), inside=cfg.beta,
                        outside=cfg.alpha, ell=cfg.ell),
                  cfg.alpha, cfg.beta)


def make_uniform(cfg: PlateConfig) -> Weight:
    return Weight(Uniform(1.0), cfg.alpha, cfg.beta)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

# JSON variant name -> band subclass and its (JSON key, Bands field) pairs;
# the keys are also the subclass constructor's parameter names.
_BAND_FORMATS = {
    "uniform": (Uniform, (("value", "outside"),)),
    "x_bands": (XBands, (("intervals", "x_intervals"), ("inside", "inside"),
                         ("outside", "outside"))),
    "y_bands": (YBands, (("intervals", "y_intervals"), ("inside", "inside"),
                         ("outside", "outside"), ("ell", "ell"))),
    "cross": (Cross, (("x_intervals", "x_intervals"), ("y_intervals", "y_intervals"),
                      ("inside", "inside"), ("outside", "outside"), ("ell", "ell"))),
}
_BAND_NAMES = {cls: name for name, (cls, _) in _BAND_FORMATS.items()}


def _phase_map(v: Sublevel) -> Sublevel:
    """v on the map of its cells' phases: the code 0 where the field lies below
    the threshold, 1 where it equals it and 2 above it, with threshold 1. Node
    values and the inside mask are v's, bit for bit. ValueError if the map
    breaks the field's declared parity."""
    f = v.field
    codes = (f.values >= v.threshold).astype(float) + (f.values > v.threshold)
    return Sublevel(GridField(codes, f.ell, f.parity), 1.0, v.inside, v.outside,
                    v.tie_fraction, v.degenerate)


def weight_to_dict(w: Weight, values: bool = True) -> dict:
    """The JSON object of a weight. A sublevel weight is written as its phase
    map: the field's "values" are the integer codes 0, 1 and 2 of _phase_map
    and "threshold" is 1.0. With values=False the field's "values" is None
    and "threshold" is the true level: trace.jsonl records each iterate's
    parameters this way."""
    v = w.variant
    base = {"alpha": w.alpha, "beta": w.beta}
    if isinstance(v, Bands):
        if type(v) not in _BAND_NAMES:
            raise TypeError(f"no JSON variant name for {type(v).__name__}")
        name = _BAND_NAMES[type(v)]
        params = {}
        for key, attr in _BAND_FORMATS[name][1]:
            value = getattr(v, attr)
            params[key] = [list(t) for t in value] if attr.endswith("intervals") else value
        return {**base, "variant": name, "parameters": params}
    codes = None
    if values:
        v = _phase_map(v)
        codes = v.field.values.astype(np.int8).ravel().tolist()
    f = v.field
    return {**base, "variant": "sublevel",
            "parameters": {"threshold": v.threshold, "inside": v.inside,
                           "outside": v.outside, "tie_fraction": v.tie_fraction,
                           "degenerate": v.degenerate,
                           "field": {"nx": f.nx, "ny": f.ny, "ell": f.ell,
                                     "parity": f.parity, "values": codes}}}


def weight_from_dict(data: dict) -> Weight:
    try:
        variant = data["variant"]
        p = data["parameters"]
        alpha, beta = float(data["alpha"]), float(data["beta"])
        if variant in _BAND_FORMATS:
            cls, fields = _BAND_FORMATS[variant]
            v: Variant = cls(**{key: tuple(tuple(t) for t in p[key])
                                if key.endswith("intervals") else float(p[key])
                                for key, _ in fields if key in p})
        elif variant == "sublevel":
            f = p["field"]
            for key in ("nx", "ny"):
                if type(f[key]) is not int or f[key] < 1:
                    raise WeightError(f"field {key} must be a positive integer, got {f[key]!r}")
            vals = np.asarray(f["values"], dtype=float).reshape(f["nx"], f["ny"])
            v = Sublevel(GridField(vals, float(f["ell"]), f.get("parity")),
                         float(p["threshold"]), float(p["inside"]), float(p["outside"]),
                         float(p.get("tie_fraction", 1.0)), bool(p.get("degenerate", False)))
        else:
            raise WeightError(f"unknown weight variant {variant!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise WeightError(f"malformed weight spec: {exc}") from exc
    return Weight(v, alpha, beta)


# one line of a phase map's "values" list per code, indented as indent=2 lays
# out a list at that depth
_CODE_LINES = np.array([b"        0,\n", b"        1,\n", b"        2,\n"])


def weight_to_json(w: Weight) -> str:
    """json.dumps(weight_to_dict(w), indent=2), byte for byte.

    The indented encoder is pure Python, so a sublevel field's codes are
    written from _CODE_LINES instead, into the "values" slot of the phase
    map's spec.
    """
    v = w.variant
    if not isinstance(v, Sublevel):
        return json.dumps(weight_to_dict(w), indent=2)
    phases = _phase_map(v)
    text = json.dumps(weight_to_dict(Weight(phases, w.alpha, w.beta), values=False), indent=2)
    head, tail = text.split('"values": null', 1)
    codes = phases.field.values.astype(np.intp).ravel()
    values = "[]" if codes.size == 0 else "".join(
        ("[\n", _CODE_LINES.take(codes).tobytes()[:-2].decode("ascii"), "\n      ]"))
    return "".join((head, '"values": ', values, tail))


def weight_from_json(text: str) -> Weight:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WeightError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise WeightError("weight spec must be a JSON object")
    return weight_from_dict(data)
