import json
import math

import numpy as np
import pytest

from conftest import random_band_weight, random_grid_weight
from oracles import mu_upper_bound_forms, rearrangement_value
from plate_spectra import PlateConfig, build_spectrum
from plate_spectra.galerkin import expand_field, solve_parity
from plate_spectra.optimize import (OptimizationTrace, OptimizeError,
                                    default_study_weights, make_pstar,
                                    maximize_nu1_fixed_point, minimize_mu_j,
                                    mu_upper_bound, ratio_report_to_csv, ratio_study,
                                    rearrange_max, rearrange_min, trace_to_jsonl)
from plate_spectra.weights import (GridField, Sublevel, Weight, eval_weight,
                                   make_doublebar_p, make_pbar_j, make_uniform,
                                   sample_field, sin4_level_exact, validate,
                                   weight_from_dict, weight_from_json, weight_to_dict,
                                   weight_to_json)


# ---------------------------------------------------------------------------
# rearrangement
# ---------------------------------------------------------------------------

def test_rearrange_constant_field_degenerate(ref_cfg):
    fld = GridField(np.ones((60, 5)), ref_cfg.ell, parity="even")
    for rearr in (rearrange_min, rearrange_max):
        w = rearr(fld, ref_cfg)
        assert isinstance(w.variant, Sublevel) and w.variant.degenerate
        # mass constraint forces J(p) = |Omega| for every admissible p
        assert rearrangement_value(w, fld) == pytest.approx(ref_cfg.area, rel=1e-12)
        assert validate(w, ref_cfg).passed


@pytest.mark.parametrize("rearr", [rearrange_min, rearrange_max])
def test_rearrange_rejects_negative_or_uneven_field(ref_cfg, rearr):
    vals = np.random.default_rng(5).random((40, 7))
    even = vals + vals[:, ::-1]
    assert validate(rearr(GridField(even, ref_cfg.ell), ref_cfg), ref_cfg).passed
    for parity in (None, "even"):
        with pytest.raises(ValueError, match="nonnegative"):
            rearr(GridField(even - 0.5 * even.max(), ref_cfg.ell, parity), ref_cfg)
    with pytest.raises(ValueError, match="y-even"):
        rearr(GridField(vals, ref_cfg.ell), ref_cfg)


@pytest.mark.parametrize("rearr", [rearrange_min, rearrange_max])
def test_rearrange_weight_is_exactly_y_even(ref_cfg, rearr):
    # a field y-even only to rounding, as u^2 on the cell centres is: mirror
    # cells one ulp apart must still enter the sublevel set together. Half
    # of the 15 cells is 7.5: the threshold falls inside the fourth pair
    rows = np.arange(5.0)
    vals = np.stack([np.nextafter(1.0 + 0.1 * rows, 2.0), 10.0 + rows, 1.0 + 0.1 * rows], 1)
    w = rearr(GridField(vals, ref_cfg.ell, "even"), ref_cfg)
    nv = w.variant.node_values()
    assert np.array_equal(nv, nv[:, ::-1])
    assert validate(w, ref_cfg).passed


def test_rearrange_orientation(ref_cfg):
    fld = sample_field(lambda x, y: np.sin(x) ** 2 + 0.0 * y, ref_cfg, 301, 11,
                       parity="even")
    peak = (fld.nx // 2, fld.ny // 2)   # x ~ pi/2, largest field value
    lo = (2, fld.ny // 2)               # x ~ 0, smallest
    w_min = rearrange_min(fld, ref_cfg)
    w_max = rearrange_max(fld, ref_cfg)
    assert w_min.variant.node_values()[peak] == ref_cfg.alpha
    assert w_min.variant.node_values()[lo] == ref_cfg.beta
    assert w_max.variant.node_values()[peak] == ref_cfg.beta
    assert w_max.variant.node_values()[lo] == ref_cfg.alpha


def test_rearrange_sin4_matches_band_weight(ref_cfg):
    fld = sample_field(lambda x, y: np.sin(5 * x) ** 4 + 0.0 * y, ref_cfg, 600, 31,
                       parity="even")
    w = rearrange_max(fld, ref_cfg)    # dense phase where sin^4 is large
    banded = make_pbar_j(5, ref_cfg)
    xs = fld.xs
    grid_vals = w.variant.node_values()[:, 0]
    band_vals = eval_weight(banded, xs, np.zeros_like(xs))
    mismatch = np.mean(grid_vals != band_vals)
    assert mismatch < 0.02  # only cells straddling the jump lines may differ
    t = sin4_level_exact(ref_cfg)
    inside = np.sin(5 * xs) ** 4 < t - 1e-6
    assert np.all(grid_vals[inside] == ref_cfg.alpha)


def test_rearrangement_optimality_oracle(ref_cfg):
    rng = np.random.default_rng(23)
    fld = sample_field(
        lambda x, y: (np.sin(2 * x) * np.cos(math.pi * y / (2 * ref_cfg.ell))) ** 2
        + 0.25 * np.sin(5 * x) ** 2, ref_cfg, 300, 31, parity="even")
    j_min = rearrangement_value(rearrange_min(fld, ref_cfg), fld)
    j_max = rearrangement_value(rearrange_max(fld, ref_cfg), fld)
    assert j_min < j_max
    for _ in range(20):
        w = random_grid_weight(rng, ref_cfg, shape=(300, 31))
        val = rearrangement_value(w, fld)
        assert val >= j_min - 1e-9 * abs(j_min)
        assert val <= j_max + 1e-9 * abs(j_max)


# ---------------------------------------------------------------------------
# descent on mu_j
# ---------------------------------------------------------------------------

def test_minimize_mu_1(ref_cfg, ref_spectrum):
    tr = minimize_mu_j(1, ref_cfg)
    vals = tr.eigenvalues
    assert tr.stop_reason == "converged"
    assert vals[0] == pytest.approx(ref_spectrum.mu[0].lam, rel=1e-9)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.80 * vals[0]
    # the final dense band sits around the centre, roughly (pi/4, 3*pi/4)
    v = tr.final_weight.variant
    dense_cols = v.node_values()[:, v.field.ny // 2] > 1.0
    xs = v.field.xs[dense_cols]
    assert abs(xs.min() - math.pi / 4) < 0.06
    assert abs(xs.max() - 3 * math.pi / 4) < 0.06
    for w, _ in tr.iterates:
        assert validate(w, ref_cfg).passed


def test_minimize_mu_10_reaches_band_optimum(ref_cfg, ref_spectrum):
    tr = minimize_mu_j(10, ref_cfg)
    assert tr.stop_reason == "converged"
    assert abs(tr.final_value - 7.28e3) / 7.28e3 < 0.02
    vals = tr.eigenvalues
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_minimize_multistart_agreement(ref_cfg, ref_spectrum):
    rng = np.random.default_rng(31)
    inits = [None, random_band_weight(rng, ref_cfg), random_band_weight(rng, ref_cfg)]
    finals = [minimize_mu_j(5, ref_cfg, initial=w).final_value
              for w in inits]
    spread = (max(finals) - min(finals)) / min(finals)
    assert spread < 1e-3


def _count_rounds(monkeypatch, name="solve_parity"):
    """Patch a function of optimize that the search loop calls, by default
    the solver (each call is one round); the list grows by one per call."""
    from plate_spectra import optimize
    rounds = []
    fn = getattr(optimize, name)

    def counted(*args, **kwargs):
        rounds.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(optimize, name, counted)
    return rounds


def test_minimize_random_starts_reach_uniform_start_value(ref_cfg, ref_spectrum):
    # 20 seeded band starts at 600x31 each end within 1% of the search from
    # the uniform start, or below it: a converged search has not stalled
    rng = np.random.default_rng(7)
    starts = [random_band_weight(rng, ref_cfg) for _ in range(20)]
    for j in (10, 12):
        best = minimize_mu_j(j, ref_cfg, grid=(600, 31)).final_value
        for i, start in enumerate(starts):
            tr = minimize_mu_j(j, ref_cfg, initial=start,
                               grid=(600, 31))
            assert tr.stop_reason == "converged"
            assert tr.final_value <= 1.01 * best, (j, i, tr.final_value, best)
            vals = tr.eigenvalues
            assert all(b < a for a, b in zip(vals, vals[1:]))
            assert math.isfinite(tr.gap) and tr.gap >= -1e-12
    # each iterate records its own weight's mu_j: the 17th start is the one
    # whose overlap-tracked mode once slid into the lower block
    tr = minimize_mu_j(12, ref_cfg, initial=starts[16], grid=(600, 31))
    for w, value in tr.iterates:
        assert value == solve_parity(w, ref_spectrum, "even", 30)[0][11]


def _steps_return_final(tr, cfg, spectrum, parity, j, grid):
    """For c = 0, 1/64, ..., 1 in turn: whether the damped step from the
    final weight of a search returns that weight."""
    sign, rearr = (1.0, rearrange_max) if parity == "even" else (-1.0, rearrange_min)
    p = tr.final_weight.variant.node_values()
    coeffs = solve_parity(tr.final_weight, spectrum, parity, 30)[1]
    u_sq = expand_field(spectrum, parity, coeffs[:, j - 1], grid).values ** 2
    g, s = u_sq / u_sq.max(), (p - cfg.alpha) / (cfg.beta - cfg.alpha)
    returned = []
    for c in [0.0, *(2.0 ** -k for k in range(6, -1, -1))]:
        f = g + sign * c * s
        step = rearr(GridField(f - f.min(), cfg.ell), cfg)
        returned.append(np.array_equal(step.variant.node_values(), p))
    return returned


@pytest.mark.parametrize("grid", [(600, 31), (2400, 31)], ids=["600x31", "2400x31"])
def test_reference_searches(ref_cfg, ref_spectrum, grid):
    # the density-search benchmark's 13 targets on one grid, with its checks:
    # no iteration cap, a strictly monotone trace, an admissible final weight
    # that beats the uniform plate, and the two reference values to 2%. The
    # search stops at the first step that returns the current weight, on the
    # premise that every larger damping returns it too: checked here on each
    # final weight over the whole damping schedule
    refs = {10: 7.28e3, None: 1.98e4}
    fixed_points = 0
    for j in [*range(1, 13), None]:
        if j is None:
            tr = maximize_nu1_fixed_point(ref_cfg, grid=grid)
            vals, uniform = [-v for v in tr.eigenvalues], -ref_spectrum.nu[0].lam
        else:
            tr = minimize_mu_j(j, ref_cfg, grid=grid)
            vals, uniform = tr.eigenvalues, ref_spectrum.mu[j - 1].lam
        assert tr.stop_reason != "max_iters", j
        assert all(b < a for a, b in zip(vals, vals[1:])), j
        assert validate(tr.final_weight, ref_cfg).passed, j
        assert vals[-1] < uniform, j
        if j in refs:
            assert abs(tr.final_value - refs[j]) <= 0.02 * refs[j], j
        returned = _steps_return_final(tr, ref_cfg, ref_spectrum,
                                       "odd" if j is None else "even", j or 1, grid)
        if True in returned:
            assert all(returned[returned.index(True):]), (j, returned)
            fixed_points += 1
    # 10 of the 13 searches at 600x31 end at a fixed point, 12 at 2400x31
    assert fixed_points >= 10


@pytest.mark.parametrize("grid", [(600, 31), (2400, 31)], ids=["600x31", "2400x31"])
def test_search_stops_at_fixed_point(ref_cfg, ref_spectrum, grid, monkeypatch):
    # from the uniform start, mu_1's first step is accepted and the next one
    # returns it: two rearrangements in the loop and one for the gap. Running
    # the damping on past 1 instead would take seven more
    calls = _count_rounds(monkeypatch, "rearrange_max")
    tr = minimize_mu_j(1, ref_cfg, grid=grid)
    assert tr.stop_reason == "converged"
    assert len(tr.iterates) == 2
    assert len(calls) == 3


def test_one_grid_basis_per_search(ref_cfg, monkeypatch):
    # every solve and expansion on the search grid reads one memo entry, so a
    # search builds one cosine table and one sine table
    from plate_spectra import galerkin
    bases, shifts = [], []
    grid_basis, trig = galerkin.grid_basis, galerkin._cell_trig

    def counted_basis(spectrum, *key):
        bases.append((key, grid_basis(spectrum, *key)))
        return bases[-1][1]

    def counted_trig(nx, freqs, shift=0):
        shifts.append(shift)
        return trig(nx, freqs, shift)

    monkeypatch.setattr(galerkin, "grid_basis", counted_basis)
    monkeypatch.setattr(galerkin, "_cell_trig", counted_trig)
    # min-mu j = 11 at 600x31 takes 6 solves, the ascent at alpha 0.1, beta 3 takes 5
    cfg = PlateConfig(alpha=0.1, beta=3.0)
    for search, grid in (
            (lambda: minimize_mu_j(11, ref_cfg, grid=(600, 31)), (600, 31)),
            (lambda: maximize_nu1_fixed_point(cfg, grid=(300, 15)), (300, 15))):
        bases.clear(), shifts.clear()
        search()
        # the uniform start of min-mu is a band weight and reads no grid tables
        assert len(bases) > 4
        assert {key for key, _ in bases} == {(30, *grid)}
        assert all(basis is bases[0][1] for _, basis in bases)
        assert sorted(shifts) == [0, 3 * grid[0]]


def test_minimize_from_start_on_another_grid(ref_cfg, ref_spectrum, monkeypatch):
    # the start is solved on its own 600x31 grid, every later round on the
    # 2400x31 grid, whose tables replace the start's; the result matches the
    # path that builds every table per call
    from plate_spectra import galerkin
    start = random_grid_weight(np.random.default_rng(5), ref_cfg, shape=(600, 31))
    tr = minimize_mu_j(4, ref_cfg, initial=start, grid=(2400, 31))
    assert tr.iterates[0][0] is start
    # a local optimum 1e-5 above the uniform start's 186.31198 at 2400x31
    assert tr.final_value == pytest.approx(186.31392230474154, rel=1e-6)
    grid_basis = galerkin.grid_basis

    def fresh_basis(spectrum, *key):
        spectrum.grid_tables.clear()
        return grid_basis(spectrum, *key)

    monkeypatch.setattr(galerkin, "grid_basis", fresh_basis)
    ref = minimize_mu_j(4, ref_cfg, initial=start, grid=(2400, 31))
    assert (tr.stop_reason, tr.eigenvalues) == (ref.stop_reason, ref.eigenvalues)
    assert np.array_equal(tr.final_weight.variant.node_values(),
                          ref.final_weight.variant.node_values())


def test_minimize_validates_arguments(ref_cfg, ref_spectrum):
    with pytest.raises(ValueError):
        minimize_mu_j(0, ref_cfg)
    with pytest.raises(ValueError):
        minimize_mu_j(99, ref_cfg)


# ---------------------------------------------------------------------------
# torsional ascent
# ---------------------------------------------------------------------------

def test_fixed_point_trial_weight_value(ref_cfg, ref_spectrum):
    tr = maximize_nu1_fixed_point(ref_cfg)
    assert tr.stop_reason == "converged"
    # the trial weight already sits within 2% of the benchmark value
    assert abs(tr.eigenvalues[0] - 1.98e4) / 1.98e4 < 0.02
    nu1_uniform = ref_spectrum.nu[0].lam
    assert min(tr.eigenvalues) >= nu1_uniform


def test_fixed_point_records_every_round(monkeypatch):
    # every accepted round is an iterate holding its weight's own nu_1, and
    # max_iters bounds the solves. The final value is pinned to 1e-6 only:
    # it moves by about 1e-9 when mirror-tied cells swap with the last bits
    # of the uniform-plate spectrum
    cfg = PlateConfig(alpha=0.1, beta=3.0)
    spec = build_spectrum(cfg)
    rounds = _count_rounds(monkeypatch)
    tr = maximize_nu1_fixed_point(cfg, grid=(300, 15))
    assert tr.stop_reason == "converged"
    vals = tr.eigenvalues
    assert len(vals) >= 2 and all(b > a for a, b in zip(vals, vals[1:]))
    assert len(rounds) >= len(vals)
    for w, value in tr.iterates:
        assert value == solve_parity(w, spec, "odd", 30)[0][0]
    assert tr.final_value == pytest.approx(84883.476085, rel=1e-6)
    assert 0.0 <= tr.gap < 1e-3
    rounds.clear()
    short = maximize_nu1_fixed_point(cfg, max_iters=2, grid=(300, 15))
    assert (short.stop_reason, len(rounds)) == ("max_iters", 2)
    assert short.eigenvalues == vals[:len(short.iterates)]


def test_fixed_point_first_update_is_close(ref_cfg, ref_spectrum):
    pstar = make_pstar(ref_spectrum)
    nu, coeffs, _ = solve_parity(pstar, ref_spectrum, "odd", 30)
    u = expand_field(ref_spectrum, "odd", coeffs[:, 0], (600, 31))
    w1 = rearrange_min(GridField(u.values ** 2, ref_cfg.ell, "even"), ref_cfg)
    moved = pstar.variant.inside_mask() ^ w1.variant.inside_mask()
    assert np.count_nonzero(moved) < 0.05 * moved.size


# ---------------------------------------------------------------------------
# upper bound
# ---------------------------------------------------------------------------

def test_upper_bound_uniform_closed_form(ref_cfg):
    for j in (2, 5, 10):
        general, periodic = mu_upper_bound_forms(make_uniform(ref_cfg), j, ref_cfg,
                                                 periodic=True)
        assert general == pytest.approx(8.0 * j ** 4 / 3.0, rel=1e-12)
        assert periodic == pytest.approx(general, rel=1e-10)


def test_upper_bound_dominates_uniform_eigenvalues(ref_cfg, ref_spectrum):
    for j in range(2, 11):
        assert ref_spectrum.mu[j - 1].lam <= mu_upper_bound(make_uniform(ref_cfg),
                                                            j, ref_cfg)


def test_banded_weight_tightens_bound(ref_cfg):
    for j in (2, 5, 10):
        uni = mu_upper_bound(make_uniform(ref_cfg), j, ref_cfg)
        banded = mu_upper_bound(make_pbar_j(j, ref_cfg), j, ref_cfg)
        assert banded < uni


def test_periodic_form_rejects_nonperiodic_weight(ref_cfg):
    with pytest.raises(OptimizeError):
        mu_upper_bound_forms(make_doublebar_p(ref_cfg), 4, ref_cfg, periodic=True)


# ---------------------------------------------------------------------------
# ratio study and exports
# ---------------------------------------------------------------------------

def test_ratio_study_uniform_row(ref_cfg, ref_spectrum):
    report = ratio_study([("uniform", make_uniform(ref_cfg))], ref_spectrum)
    assert report.j0 == 10
    row = report.rows[0]
    assert abs(row.ratio - 1.14) / 1.14 < 0.02
    assert row.nu1 == pytest.approx(ref_spectrum.nu[0].lam, rel=1e-10)


def test_ratio_study_rejects_invalid_weight(ref_cfg, ref_spectrum):
    from plate_spectra.weights import Weight, XBands
    bad = Weight(XBands(((0.5, 1.0),), ref_cfg.beta, ref_cfg.alpha),
                 ref_cfg.alpha, ref_cfg.beta)
    with pytest.raises(OptimizeError):
        ratio_study([("bad", bad)], ref_spectrum)


def test_default_study_weights_all_admissible(ref_cfg, ref_spectrum):
    study = default_study_weights(ref_cfg, ref_spectrum)
    assert [label for label, _ in study] == [
        "uniform", "pbar10", "pstar", "pbreve", "pdoublebar", "ptilde"]
    for _, w in study:
        assert validate(w, ref_cfg).passed


def test_study_weights_refuse_another_plates_spectrum(ref_cfg, ref_spectrum):
    # pstar comes from the spectrum and the band weights from the config: with
    # the spectrum of pi/150 and a config at pi/75 they used to describe two
    # plates. Another truncation of the same plate is the same plate
    with pytest.raises(ValueError, match="differs from"):
        default_study_weights(PlateConfig(ell=math.pi / 75), build_spectrum(PlateConfig()))
    with pytest.raises(ValueError, match="differs from"):
        default_study_weights(ref_cfg.with_(sigma=0.3), ref_spectrum)
    study = default_study_weights(ref_cfg, build_spectrum(ref_cfg.with_(n_modes=40)))
    assert all(validate(w, ref_cfg).passed for _, w in study)


def test_one_plate_source_per_function():
    # a public optimize function takes the plate config or the spectrum built
    # from it, never both (default_study_weights checks that the two agree),
    # and the grid tables take their cells from the spectrum's plate
    import inspect
    from plate_spectra import galerkin, optimize
    both = []
    for name, fn in inspect.getmembers(optimize, inspect.isfunction):
        if fn.__module__ != optimize.__name__ or name.startswith("_"):
            continue
        notes = [str(p.annotation) for p in inspect.signature(fn).parameters.values()]
        if any("PlateConfig" in a for a in notes) and any("HomSpectrum" in a for a in notes):
            both.append(name)
    assert both == ["default_study_weights"]
    assert list(inspect.signature(galerkin.grid_basis).parameters) == ["spectrum", "n", "nx", "ny"]


def _without_values(w):
    # weight_to_dict(w) with a sublevel field's codes replaced by null and the
    # true threshold in place of the phase map's 1.0
    d = weight_to_dict(w)
    if "field" in d["parameters"]:
        d["parameters"]["field"]["values"] = None
        d["parameters"]["threshold"] = w.variant.threshold
    return d


def test_trace_jsonl_roundtrip(ref_cfg, ref_spectrum):
    # the last trace line holds the final weight's parameters and
    # final_weight.json (weight_to_json) its phase map: together they give
    # back the final weight's node values and inside mask
    tr = minimize_mu_j(1, ref_cfg)
    records = [json.loads(line) for line in trace_to_jsonl(tr).splitlines()]
    assert [r["eigenvalue"] for r in records] == [v for _, v in tr.iterates]
    assert records[-1]["weight"] == _without_values(tr.final_weight)
    final = tr.final_weight.variant
    text = weight_to_json(tr.final_weight)
    back = weight_from_json(text)
    assert validate(back, ref_cfg).passed
    assert np.array_equal(back.variant.node_values(), final.node_values())
    assert np.array_equal(back.variant.inside_mask(), final.inside_mask())
    assert weight_to_json(back) == text
    spec = records[-1]["weight"]
    written = json.loads(text)["parameters"]
    spec["parameters"]["threshold"] = written["threshold"]
    spec["parameters"]["field"]["values"] = written["field"]["values"]
    assert weight_to_json(weight_from_dict(spec)) == text


def test_trace_jsonl_bytes_match_encoder(ref_cfg, ref_spectrum):
    rng = np.random.default_rng(4)
    fields = []
    for _ in range(3):
        vals = rng.normal(scale=1e3, size=(30, 5))
        vals[rng.integers(30), rng.integers(5)] = -0.0
        vals[rng.integers(30), rng.integers(5)] = 5e-324
        vals[rng.integers(30), rng.integers(5)] = 1e308
        vals[rng.integers(30), rng.integers(5)] = 4.0
        fields.append(GridField(vals, ref_cfg.ell))
    iterates = [(make_uniform(ref_cfg), 9.6e3)] + [
        (Weight(Sublevel(f, 0.0, ref_cfg.beta, ref_cfg.alpha, 0.5), ref_cfg.alpha,
                ref_cfg.beta), 9e3 - i) for i, f in enumerate(fields)]
    tr = OptimizationTrace("min_mu_10", tuple(iterates), "converged", 0.0)
    expected = "".join(json.dumps({"iteration": i, "eigenvalue": v,
                                   "weight": _without_values(w)}) + "\n"
                       for i, (w, v) in enumerate(tr.iterates))
    assert trace_to_jsonl(tr) == expected
    assert trace_to_jsonl(OptimizationTrace("max_nu1", (), "converged", 0.0)) == ""


def test_ratio_csv_layout(ref_cfg, ref_spectrum):
    report = ratio_study([("uniform", make_uniform(ref_cfg)),
                          ("pbar10", make_pbar_j(10, ref_cfg))], ref_spectrum)
    csv = ratio_report_to_csv(report)
    lines = csv.strip().split("\n")
    assert lines[0] == "quantity,uniform,pbar10"
    assert len(lines) == 1 + 12 + 2 + 1
    assert lines[-1].startswith("R,")


def test_cross_effect_ordering(ref_cfg, ref_spectrum):
    # the torsional-optimal trial weight beats both band combinations on the ratio
    study = dict(default_study_weights(ref_cfg, ref_spectrum))
    report = ratio_study([("pstar", study["pstar"]), ("pbar10", study["pbar10"]),
                          ("ptilde", study["ptilde"])], ref_spectrum)
    by_label = {r.label: r.ratio for r in report.rows}
    assert by_label["pstar"] > by_label["pbar10"]
    assert by_label["pstar"] > by_label["ptilde"]


def test_minimize_rejects_zero_iterations(ref_cfg, ref_spectrum):
    with pytest.raises(ValueError):
        minimize_mu_j(1, ref_cfg, max_iters=0)
    with pytest.raises(ValueError):
        maximize_nu1_fixed_point(ref_cfg, max_iters=0)
