"""Density optimization: rearrangement steps, one damped rearrangement driver
with two objectives (descent on mu_j and ascent on nu_1), the closed-form
upper bound on longitudinal eigenvalues, and the ratio study."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import PlateConfig
from .galerkin import expand_field, solve_parity, solve_weighted
from .spectrum import EVEN, ODD, HomSpectrum, build_spectrum, eval_eigenfunction, known_j0
from .weights import (GridField, Sublevel, Weight, _parity_residual, eval_weight,
                      make_breve_p, make_doublebar_p, make_pbar_j, make_tilde_p,
                      make_uniform, sample_field, sublevel_split, validate,
                      weight_to_dict)


class OptimizeError(Exception):
    pass


CONVERGED = "converged"
MAX_ITERS = "max_iters"
DEGENERATE = "degenerate"

# Smallest nonzero damping of the rearrangement step.
C_MIN = 1.0 / 64.0


@dataclass(frozen=True, eq=False)
class OptimizationTrace:
    """Accepted iterates of a density optimization run, each strictly better
    than the one before, and the first-order gap of the final weight."""

    target: str
    iterates: tuple[tuple[Weight, float], ...]
    stop_reason: str
    gap: float

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


def _grid_values(w: Weight, grid: tuple[int, int]) -> np.ndarray | None:
    """The node values of a sublevel weight on the search grid, else None: a
    band weight, or a sublevel weight on another grid, is never what a step
    returns."""
    v = w.variant
    if isinstance(v, Sublevel) and (v.field.nx, v.field.ny) == tuple(grid):
        return v.node_values()
    return None


# ---------------------------------------------------------------------------
# the damped rearrangement driver and its two objectives
# ---------------------------------------------------------------------------

def _search(target: str, spectrum: HomSpectrum, parity: str, j: int, w: Weight,
            grid: tuple[int, int], sign: float, max_iters: int) -> OptimizationTrace:
    """Damped bang-bang rearrangement on the j-th eigenvalue of one parity:
    descent for sign = +1 (min-mu), ascent for sign = -1 (max-nu1).

    A step rearranges f = g + sign c s, with g = u_j^2 / max u_j^2 of the
    current weight and s its dense share (p - alpha)/(beta - alpha) on the
    grid: rearrange_max of f for sign = +1, rearrange_min for sign = -1. A
    step is accepted only if it strictly improves the weight's own j-th
    eigenvalue. The damping c starts at 0, becomes max(2c, C_MIN) after a
    rejection and c/2 (0 below C_MIN) after an acceptance; c is 0 or a power
    of two, so (sign c) s rounds like sign c (p - alpha)/(beta - alpha).

    The search has converged when a step returns the current weight: raising
    c adds to f at least as much on the dense cells as on the tie cells, and
    there at least as much as on the light cells, so every level set of f
    stays one and every larger c returns the current weight too. It has also
    converged once c passes 1 with every step since the last acceptance
    rejected. A step that returns the weight solved last is rejected without
    a solve; max_iters bounds the solves. g, s and the node values of the
    current and the last solved weight are built once per weight. Every
    expansion and every solve of a weight on the search grid reads the same
    grid tables, which the spectrum keeps from the first of them
    (galerkin.grid_basis). The plate is spectrum.config.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    cfg = spectrum.config
    n = min(cfg.n_modes, len(spectrum.mu if parity == EVEN else spectrum.nu))
    if j > n:
        raise ValueError(f"j={j} exceeds the truncation {n}")
    rearrange = rearrange_max if sign > 0 else rearrange_min
    lam, coeffs, _ = solve_parity(w, spectrum, parity, n)
    iterates = [(w, float(lam[j - 1]))]
    cur = last = _grid_values(w, grid)   # node values of w and of the last weight solved
    solves, c, stop, u_sq = 1, 0.0, CONVERGED, None
    while c <= 1.0:
        if u_sq is None:   # a new weight: expand its u_j, take p on the grid
            u_sq = expand_field(spectrum, parity, coeffs[:, j - 1], grid).values ** 2
            g = u_sq / u_sq.max()
            p = cur if cur is not None else sample_field(
                lambda x, y: eval_weight(w, x, y), cfg, *grid).values
            s = (p - cfg.alpha) / (cfg.beta - cfg.alpha)
        f = g + (sign * c) * s
        w_next = rearrange(GridField(f - f.min(), cfg.ell), cfg)
        if w_next.variant.degenerate:
            stop = DEGENERATE
            break
        vals = w_next.variant.node_values()
        if cur is not None and np.array_equal(cur, vals):
            break   # a fixed point: every larger c returns w too
        better = False
        if last is None or not np.array_equal(last, vals):
            if solves == max_iters:
                stop = MAX_ITERS
                break
            lam, coeffs_next, _ = solve_parity(w_next, spectrum, parity, n)
            solves, last = solves + 1, vals
            better = sign * (iterates[-1][1] - lam[j - 1]) > 0.0
        if better:
            w, coeffs, cur, u_sq = w_next, coeffs_next, vals, None
            iterates.append((w, float(lam[j - 1])))
            c = c / 2.0 if c / 2.0 >= C_MIN else 0.0
        else:
            c = max(2.0 * c, C_MIN)
    # first-order gap: the relative change of lam_j, to first order, that the
    # full rearrangement on the final u_j^2 would bring (int p u_j^2 = 1);
    # + 0.0 writes an exact zero times -1 as 0.0, not -0.0
    full = rearrange(GridField(u_sq, cfg.ell), cfg).variant
    gap = sign * float(np.sum((full.node_values() - p) * u_sq)) * full.field.cell_area + 0.0
    return OptimizationTrace(target, tuple(iterates), stop, gap)


def minimize_mu_j(j: int, cfg: PlateConfig, max_iters: int = 100,
                  initial: Weight | None = None,
                  grid: tuple[int, int] = (2400, 31)) -> OptimizationTrace:
    """Damped rearrangement descent on the j-th longitudinal eigenvalue of
    the plate cfg, from the uniform weight unless initial is given (see _search).

    The working grid is finer than the general sublevel default: the optimal
    dense set is a band system whose edges the grid resolves to a cell.
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    return _search(f"min_mu_{j}", build_spectrum(cfg), EVEN, j,
                   initial if initial is not None else make_uniform(cfg), grid, 1.0,
                   max_iters)


def make_pstar(spectrum: HomSpectrum, grid: tuple[int, int] = (600, 31)) -> Weight:
    """Dense phase on the sublevel set of the first torsional eigenfunction
    squared of the uniform plate (the start of the torsional ascent)."""
    cfg, theta1 = spectrum.config, spectrum.nu[0]
    fld = sample_field(lambda x, y: eval_eigenfunction(theta1, x, y) ** 2,
                       cfg, grid[0], grid[1], parity="even")
    return rearrange_min(fld, cfg)


def maximize_nu1_fixed_point(cfg: PlateConfig, max_iters: int = 100,
                             grid: tuple[int, int] = (600, 31)) -> OptimizationTrace:
    """Damped rearrangement ascent on the first torsional eigenvalue of the
    plate cfg, from the trial weight built on the uniform plate's first
    torsional eigenfunction (see _search)."""
    spectrum = build_spectrum(cfg)
    return _search("max_nu1", spectrum, ODD, 1, make_pstar(spectrum, grid),
                   grid, -1.0, max_iters)


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
    mid-line band, edge-loaded band, and the cross combination. ValueError
    unless spectrum was built for the plate cfg, at any truncation."""
    if cfg != spectrum.config.with_(n_modes=cfg.n_modes):
        raise ValueError(f"the spectrum's plate {spectrum.config} differs from {cfg}")
    j0 = spectrum.j0
    return [
        ("uniform", make_uniform(cfg)),
        (f"pbar{j0}", make_pbar_j(j0, cfg)),
        ("pstar", make_pstar(spectrum, grid)),
        ("pbreve", make_breve_p(cfg)),
        ("pdoublebar", make_doublebar_p(cfg)),
        ("ptilde", make_tilde_p(cfg, j=j0)),
    ]


def ratio_study(weights: list[tuple[str, Weight]], spectrum: HomSpectrum,
                n: int = 30) -> RatioReport:
    """Tabulate mu_1..mu_12, nu_1, nu_2 and nu_1/mu_j0 per weight on spectrum.config."""
    cfg, j0 = spectrum.config, known_j0(spectrum)
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
