"""Density optimization: rearrangement steps, one rearrangement loop with two
targets (descent on mu_j and the torsional fixed point), the closed-form upper
bound on longitudinal eigenvalues, and the ratio study."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import PlateConfig
from .galerkin import expand_field, solve_parity, solve_weighted
from .spectrum import EVEN, ODD, HomSpectrum, build_spectrum, eval_eigenfunction, known_j0
from .weights import (GridField, Sublevel, Weight, _parity_residual, make_breve_p,
                      make_doublebar_p, make_pbar_j, make_tilde_p, make_uniform,
                      sample_field, sublevel_split, validate, weight_to_dict)


class OptimizeError(Exception):
    pass


CONVERGED = "converged"
MAX_ITERS = "max_iters"
DEGENERATE = "degenerate"

# Share of the newest u^2 in the field the descent on mu_j thresholds. The
# undamped map flips large parts of the domain per iteration and can hang up
# short of the optimum from rough starting weights.
RELAXATION = 0.5
# Rounds without a new best value after which the descent on mu_j stops.
PATIENCE = 8
# Consecutive torsional dense sets count as settled below this share of |Omega|.
AREA_TOL = 0.01


@dataclass(frozen=True, eq=False)
class OptimizationTrace:
    """Accepted iterates of a density optimization run.

    The descent on mu_j records only new best values, so its sequence is
    non-increasing; the torsional fixed point records every round.
    """

    target: str
    iterates: tuple[tuple[Weight, float], ...]
    stop_reason: str
    epsilon: float
    resorted: bool = False  # mode re-identification fired at least once

    @property
    def eigenvalues(self) -> list[float]:
        return [v for _, v in self.iterates]

    @property
    def final_weight(self) -> Weight:
        return self.iterates[-1][0]

    @property
    def final_value(self) -> float:
        return self.iterates[-1][1]


# ---------------------------------------------------------------------------
# rearrangement (bang-bang alignment with the level sets of u^2)
# ---------------------------------------------------------------------------

def _rearrange_field(fld: GridField) -> GridField:
    """fld, checked nonnegative and y-even to 1e-10, made y-even to the last
    bit: each value becomes the mean of itself and its mirror image.  The cell
    centres of the grid, and so a reconstructed u^2, are y-even only up to
    rounding; exact mirror ties keep the threshold from taking a cell without
    its mirror, which would leave the weight y-uneven."""
    v = fld.values
    if float(v.min()) < -1e-12 * max(1.0, float(np.max(np.abs(v)))):
        raise ValueError("rearrangement field must be nonnegative")
    if fld.parity != "even":   # GridField checked "even" on construction, to the same tolerance
        resid = _parity_residual(v, "even")
        if resid > 1e-10 * max(1.0, float(np.max(np.abs(v)))):
            raise ValueError(f"rearrangement field must be y-even (residual {resid:.3e})")
    return GridField(0.5 * (v + v[:, ::-1]), fld.ell, fld.parity)


def rearrange_min(fld: GridField, cfg: PlateConfig) -> Weight:
    """Weight minimizing int p u^2 over the admissible class: the dense phase
    sits on the sublevel set {u^2 <= t} of measure (1-alpha)/(beta-alpha)|Omega|."""
    fld = _rearrange_field(fld)
    target = (1.0 - cfg.alpha) / (cfg.beta - cfg.alpha) * cfg.area
    t, theta, degenerate = sublevel_split(fld, target, cfg.beta, cfg.alpha)
    return Weight(Sublevel(fld, t, cfg.beta, cfg.alpha, theta, degenerate),
                  cfg.alpha, cfg.beta)


def rearrange_max(fld: GridField, cfg: PlateConfig) -> Weight:
    """Weight maximizing int p u^2: the light phase sits on the sublevel set
    {u^2 <= t} of measure (beta-1)/(beta-alpha)|Omega|, the dense phase where
    u^2 is large."""
    fld = _rearrange_field(fld)
    target = (cfg.beta - 1.0) / (cfg.beta - cfg.alpha) * cfg.area
    t, theta, degenerate = sublevel_split(fld, target, cfg.alpha, cfg.beta)
    return Weight(Sublevel(fld, t, cfg.alpha, cfg.beta, theta, degenerate),
                  cfg.alpha, cfg.beta)


def _same_sublevel(a: Weight, b: Weight) -> bool:
    """Same dense set, threshold and tie fraction (symmetric in a and b)."""
    va, vb = a.variant, b.variant
    if not (isinstance(va, Sublevel) and isinstance(vb, Sublevel)):
        return False
    return (va.threshold == vb.threshold
            and va.tie_fraction == vb.tie_fraction
            and np.array_equal(va.inside_mask(), vb.inside_mask()))


# ---------------------------------------------------------------------------
# the rearrangement loop and its two targets
# ---------------------------------------------------------------------------

def _search(target: str, cfg: PlateConfig, spectrum: HomSpectrum, parity: str,
            n: int, j: int, w: Weight, grid: tuple[int, int], rearrange,
            relaxation: float, epsilon: float, max_iters: int, record,
            settled) -> OptimizationTrace:
    """Bang-bang rearrangement iteration shared by the density searches.

    Each round solves the weighted problem of one parity, follows the j-th
    eigenvector by weighted overlap, and rearranges against a relaxed running
    average of the eigenfunction's square. record(iterates, w, value) gets the
    weight's own j-th eigenvalue, decides which values become iterates and
    returns a stop reason or None; settled(w, w_next) says when two
    consecutive dense sets count as equal. Every expansion and every solve of
    a weight on the search grid reads the same grid tables, which the
    spectrum keeps from the first of them (galerkin.grid_basis).
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    iterates: list[tuple[Weight, float]] = []
    resorted = False
    prev_vec: np.ndarray | None = None
    g_field: np.ndarray | None = None

    for _ in range(max_iters):
        lam, coeffs, mass = solve_parity(w, spectrum, parity, n)
        idx = j - 1
        if prev_vec is not None and j > 1:
            overlaps = np.abs(prev_vec @ mass.a @ coeffs)
            closest = int(np.argmax(overlaps))
            norm_sq = float(prev_vec @ mass.a @ prev_vec)
            proj_sq = float(np.sum(overlaps[: j - 1] ** 2))
            residual = math.sqrt(max(0.0, 1.0 - proj_sq / norm_sq))
            if residual < 1e-6 or closest != idx:
                # tracked mode slid into the lower block: follow it
                idx = closest
                resorted = True
        stop = record(iterates, w, float(lam[j - 1]))
        if stop:
            break

        prev_vec = coeffs[:, idx]
        u = expand_field(spectrum, parity, prev_vec, grid)
        u_sq = u.values ** 2
        g_field = u_sq if g_field is None else (
            (1.0 - relaxation) * g_field + relaxation * u_sq)
        w_next = rearrange(GridField(g_field, cfg.ell, "even"), cfg)
        stop = (DEGENERATE if w_next.variant.degenerate
                else CONVERGED if settled(w, w_next) else None)
        if stop:
            break
        w = w_next
    else:
        stop = MAX_ITERS

    return OptimizationTrace(target=target, iterates=tuple(iterates),
                             stop_reason=stop, epsilon=epsilon, resorted=resorted)


def minimize_mu_j(j: int, cfg: PlateConfig, epsilon: float = 1e-4,
                  max_iters: int = 100, initial: Weight | None = None,
                  spectrum: HomSpectrum | None = None,
                  grid: tuple[int, int] = (2400, 31)) -> OptimizationTrace:
    """Alternating descent on the j-th longitudinal eigenvalue.

    Each round re-aligns the dense phase with the superlevel set of a relaxed
    running average (RELAXATION) of the j-th longitudinal eigenfunction
    squared. The trace records the improving iterates (non-increasing by
    construction); the loop keeps going through transient up-steps and stops
    once a new best improves by less than epsilon, the weight repeats, or no
    improvement arrives within PATIENCE rounds.

    The working grid is finer than the general sublevel default: the iteration
    can lock onto self-consistent band systems whose edges sit a cell or two
    off the optimum, and the residual spread scales with the cell width.
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    if spectrum is None:
        spectrum = build_spectrum(cfg)
    n = min(spectrum.config.n_modes, len(spectrum.mu))
    if j > n:
        raise ValueError(f"j={j} exceeds the truncation {n}")
    best, rounds_since_best = math.inf, 0

    def record(iterates, w, value):
        nonlocal best, rounds_since_best
        if value < best * (1.0 - 1e-12):
            improvement = (best - value) / value
            iterates.append((w, value))
            best, rounds_since_best = value, 0
            return CONVERGED if improvement < epsilon else None
        rounds_since_best += 1
        return CONVERGED if rounds_since_best >= PATIENCE else None

    return _search(f"min_mu_{j}", cfg, spectrum, EVEN, n, j,
                   initial if initial is not None else make_uniform(cfg), grid,
                   rearrange_max, RELAXATION, epsilon, max_iters, record, _same_sublevel)


def make_pstar(cfg: PlateConfig, spectrum: HomSpectrum | None = None,
               grid: tuple[int, int] = (600, 31)) -> Weight:
    """Dense phase on the sublevel set of the first torsional eigenfunction
    squared of the uniform plate (the trial weight of the fixed point)."""
    if spectrum is None:
        spectrum = build_spectrum(cfg)
    theta1 = spectrum.nu[0]
    fld = sample_field(lambda x, y: eval_eigenfunction(theta1, x, y) ** 2,
                       cfg, grid[0], grid[1], parity="even")
    return rearrange_min(fld, cfg)


def symmetric_difference_area(a: Weight, b: Weight) -> float:
    """Grid measure of the symmetric difference of two sublevel dense-phase sets."""
    va, vb = a.variant, b.variant
    if not (isinstance(va, Sublevel) and isinstance(vb, Sublevel)):
        raise TypeError("both weights must be sublevel weights")
    if va.field.values.shape != vb.field.values.shape:
        raise ValueError("sublevel weights live on different grids")
    return float(np.count_nonzero(va.inside_mask() ^ vb.inside_mask())) * va.field.cell_area


def maximize_nu1_fixed_point(cfg: PlateConfig, max_iters: int = 100,
                             spectrum: HomSpectrum | None = None,
                             grid: tuple[int, int] = (600, 31)) -> OptimizationTrace:
    """Fixed-point iteration for the first torsional eigenvalue.

    Starts from the trial weight built on the uniform plate's first torsional
    eigenfunction; each round re-thresholds the current first torsional
    eigenfunction squared and records its eigenvalue. Stops when consecutive
    dense-phase sets differ by less than AREA_TOL * |Omega|.
    """
    if spectrum is None:
        spectrum = build_spectrum(cfg)
    n = min(spectrum.config.n_modes, len(spectrum.nu))

    def record(iterates, w, value):
        iterates.append((w, value))

    def settled(w, w_next):
        return symmetric_difference_area(w, w_next) < AREA_TOL * cfg.area

    return _search("max_nu1", cfg, spectrum, ODD, n, 1, make_pstar(cfg, spectrum, grid),
                   grid, rearrange_min, 1.0, AREA_TOL, max_iters, record, settled)


# ---------------------------------------------------------------------------
# closed-form upper bound on mu_j
# ---------------------------------------------------------------------------

def _sin4_antiderivative(u: float) -> float:
    return 0.375 * u - 0.25 * math.sin(2.0 * u) + math.sin(4.0 * u) / 32.0


def _sin4_integral(j: int, a: float, b: float) -> float:
    """int_a^b sin^4(j x) dx."""
    return (_sin4_antiderivative(j * b) - _sin4_antiderivative(j * a)) / j


def _clip_intervals(intervals, lo: float, hi: float):
    out = []
    for a, b in intervals:
        a2, b2 = max(a, lo), min(b, hi)
        if a2 < b2:
            out.append((a2, b2))
    return out


def _weighted_sin4_cell(w: Weight, j: int, x_lo: float, x_hi: float,
                        cfg: PlateConfig) -> float:
    """|| sqrt(p) sin^2(jx) ||^2 over (x_lo, x_hi) x (-ell, ell)."""
    v = w.variant
    if isinstance(v, Sublevel):
        f = v.field
        xs = f.xs
        cols = (xs >= x_lo) & (xs < x_hi)
        pv = v.node_values()
        sin4 = np.sin(j * xs[cols]) ** 4
        return float(np.sum(pv[cols, :] * sin4[:, None]) * f.cell_area)

    total = 0.0
    for coeff, x_iv, y_iv in v.terms():
        if coeff == 0.0:
            continue
        xs = _clip_intervals(x_iv, x_lo, x_hi) if x_iv is not None else [(x_lo, x_hi)]
        x_part = sum(_sin4_integral(j, a, b) for a, b in xs)
        y_part = (sum(b - a for a, b in y_iv) if y_iv is not None else 2.0 * cfg.ell)
        total += coeff * x_part * y_part
    return total


def mu_upper_bound(w: Weight, j: int, cfg: PlateConfig) -> float:
    """Upper bound on mu_j(p) from disjointly supported sin^2(jx) trial
    functions: max over the j period cells of j^3 |Omega| / ||sqrt(p) w_m||^2."""
    if j < 2:
        raise ValueError(f"j must be >= 2, got {j}")
    cells = [(m * math.pi / j, (m + 1) * math.pi / j) for m in range(j)]
    norms = [_weighted_sin4_cell(w, j, a, b, cfg) for a, b in cells]
    if min(norms) <= 0.0:
        raise OptimizeError("degenerate weighted trial norm")
    return max(float(j) ** 3 * cfg.area / v for v in norms)


# ---------------------------------------------------------------------------
# ratio study
# ---------------------------------------------------------------------------

# printf format of every float in the CSV outputs
FLOAT_FMT = "%.6e"
# Row order of the ratio table (ratio_table.csv and its deviation file).
RATIO_QUANTITIES = tuple(f"mu_{i}" for i in range(1, 13)) + ("nu_1", "nu_2", "R")


@dataclass(frozen=True)
class RatioRow:
    label: str
    mu: tuple[float, ...]  # first 12 longitudinal eigenvalues
    nu1: float
    nu2: float
    ratio: float           # nu1 / mu_{j0}

    def values(self) -> tuple[float, ...]:
        """The row's numbers in RATIO_QUANTITIES order."""
        return (*self.mu, self.nu1, self.nu2, self.ratio)


@dataclass(frozen=True)
class RatioReport:
    rows: tuple[RatioRow, ...]
    j0: int


def default_study_weights(cfg: PlateConfig, spectrum: HomSpectrum,
                          grid: tuple[int, int] = (600, 31)) -> list[tuple[str, Weight]]:
    """The six benchmark densities: uniform, banded, torsional-optimal trial,
    mid-line band, edge-loaded band, and the cross combination."""
    j0 = spectrum.j0
    return [
        ("uniform", make_uniform(cfg)),
        (f"pbar{j0}", make_pbar_j(j0, cfg)),
        ("pstar", make_pstar(cfg, spectrum, grid)),
        ("pbreve", make_breve_p(cfg)),
        ("pdoublebar", make_doublebar_p(cfg)),
        ("ptilde", make_tilde_p(cfg, j=j0)),
    ]


def ratio_study(weights: list[tuple[str, Weight]], cfg: PlateConfig,
                spectrum: HomSpectrum | None = None, n: int = 30) -> RatioReport:
    """Tabulate mu_1..mu_12, nu_1, nu_2 and the ratio nu_1/mu_j0 per weight."""
    if spectrum is None:
        spectrum = build_spectrum(cfg.with_(n_modes=max(cfg.n_modes, n)))
    j0 = known_j0(spectrum)
    if n < 12 or j0 > n:
        raise ValueError(f"need truncation >= max(12, j0={j0}), got {n}")
    rows = []
    for label, w in weights:
        rep = validate(w, cfg)
        if not rep.passed:
            raise OptimizeError(f"weight {label!r} fails validation: {rep.detail}")
        gs = solve_weighted(w, spectrum, n)
        rows.append(RatioRow(
            label=label,
            mu=tuple(float(v) for v in gs.mu_p[:12]),
            nu1=float(gs.nu_p[0]),
            nu2=float(gs.nu_p[1]),
            ratio=float(gs.nu_p[0] / gs.mu_p[j0 - 1]),
        ))
    return RatioReport(rows=tuple(rows), j0=j0)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def trace_to_jsonl(trace: OptimizationTrace) -> str:
    """One iterate per line: iteration index, eigenvalue and the weight's
    parameters. A sublevel field's "values" is null and its "threshold" the
    true level; final_weight.json holds the final weight's phase map."""
    return "".join(json.dumps({"iteration": i, "eigenvalue": v,
                               "weight": weight_to_dict(w, values=False)}) + "\n"
                   for i, (w, v) in enumerate(trace.iterates))


def ratio_csv(labels: list[str], columns: list) -> str:
    """One row per RATIO_QUANTITIES entry, one column per label. A column holds
    numbers in that order; a None column is left empty."""
    lines = ["quantity," + ",".join(labels)]
    for i, q in enumerate(RATIO_QUANTITIES):
        lines.append(q + "," + ",".join("" if c is None else FLOAT_FMT % c[i] for c in columns))
    return "\n".join(lines) + "\n"


def ratio_report_to_csv(report: RatioReport) -> str:
    """Rows mu_1..mu_12, nu_1, nu_2, R; one column per weight."""
    return ratio_csv([r.label for r in report.rows], [r.values() for r in report.rows])
