"""Property tests (Hypothesis) for invariants the paper proves, on grid weights,
and for the closed-form L2 scales of the uniform-plate eigenfunctions."""
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import normalization, profile_square_helpers
from plate_spectra import PlateConfig, build_spectrum, spectrum
from plate_spectra.galerkin import SingularMass, expand_field, solve_parity, solve_weighted
from plate_spectra.spectrum import Mode, NotAdmissible, find_hom_eigenvalue
from plate_spectra.weights import (GridField, Sublevel, Weight, mean_density, sublevel_split,
                                   validate, weight_from_json, weight_to_dict, weight_to_json)

CFG = PlateConfig(n_modes=100)


@pytest.fixture(scope="module")
def spectrum100():
    return build_spectrum(CFG)


def _y_even_sublevel(rng, shape) -> Weight:
    """Random admissible bang-bang weight on a grid, y-even to the last bit."""
    vals = rng.random(shape)
    vals = vals + vals[:, ::-1]
    frac = float(rng.uniform(0.05, 0.95)) * (1.0 - CFG.alpha) / (CFG.beta - CFG.alpha)
    inside = CFG.beta
    outside = (1.0 - inside * frac) / (1.0 - frac)
    fld = GridField(vals, CFG.ell, "even")
    t, theta, degenerate = sublevel_split(fld, frac * CFG.area, inside, outside)
    return Weight(Sublevel(fld, t, inside, outside, theta, degenerate), CFG.alpha, CFG.beta)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 100),
       extra_nx=st.integers(0, 200), half_ny=st.integers(1, 15))
def test_stability_bounds_random_sublevel(spectrum100, seed, n, extra_nx, half_ny):
    # lambda_n(1)/beta <= lambda_n(p) <= lambda_n(1)/alpha for alpha <= p <= beta.
    # lambda_n(1) is the constant weight on the same grid: the midpoint rule
    # is then the same on both sides, so the bounds hold to rounding.
    freqs = [p.mode.m for p in spectrum100.mu[:n]] + [p.mode.m for p in spectrum100.nu[:n]]
    shape = (max(freqs) + 4 + extra_nx, 2 * half_ny + 1)
    w = _y_even_sublevel(np.random.default_rng(seed), shape)
    assert validate(w, CFG).passed
    one = Weight(Sublevel(GridField(np.zeros(shape), CFG.ell), 0.0, 1.0, 1.0),
                 CFG.alpha, CFG.beta)
    gp = solve_weighted(w, spectrum100, n)
    g1 = solve_weighted(one, spectrum100, n)
    for lam_p, lam_1 in ((gp.mu_p, g1.mu_p), (gp.nu_p, g1.nu_p)):
        assert np.all(lam_p >= lam_1 / CFG.beta * (1 - 1e-10))
        assert np.all(lam_p <= lam_1 / CFG.alpha * (1 + 1e-10))


# the reference plate, and two wider ones whose parities reach different max m
# (9 and 12 at n = 12, 17 and 18 at n = 30)
MEMO_PLATES = (PlateConfig(n_modes=12), PlateConfig(ell=0.3, n_modes=12),
               PlateConfig(ell=0.3, n_modes=30))


def _grid_call(spec, kind, parity, n, w, coeffs, grid):
    """The arrays one grid call returns, or its SingularMass message."""
    try:
        if kind == "solve_weighted":
            gs = solve_weighted(w, spec, n)
            return [gs.mu_p, gs.nu_p]
        if kind == "solve_parity":
            lam, vecs, mass = solve_parity(w, spec, parity, n)
            return [lam, vecs, mass]
        return [expand_field(spec, parity, coeffs, grid).values]
    except SingularMass as exc:
        return str(exc)


@settings(max_examples=25, deadline=None)
@given(plate=st.sampled_from(MEMO_PLATES), seed=st.integers(0, 2 ** 32 - 1),
       grids=st.lists(st.tuples(st.integers(40, 70), st.sampled_from([7, 9, 11])),
                      min_size=2, max_size=2),
       calls=st.lists(st.tuples(st.sampled_from(["solve_weighted", "solve_parity",
                                                 "expand_field"]),
                                st.sampled_from(["even", "odd"]), st.sampled_from([5, 12, 30]),
                                st.integers(0, 1), st.booleans()),
                      min_size=1, max_size=6))
@example(plate=MEMO_PLATES[0], seed=0, grids=[(40, 7), (41, 9)],
         calls=[("solve_parity", "even", 12, 0, False), ("solve_parity", "even", 12, 0, True),
                ("expand_field", "odd", 12, 0, False)])
def test_grid_table_memo_matches_fresh_spectrum(plate, seed, grids, calls):
    # a sequence of calls on one spectrum, each of which keeps or replaces the
    # memoized grid tables, gives the bits of each call on a fresh spectrum;
    # a field ell one part in 1e12 off the plate's is a key of its own
    spec = build_spectrum(plate)
    rng = np.random.default_rng(seed)
    for kind, parity, n, g, off in calls:
        n = min(n, plate.n_modes)
        grid = grids[g]
        vals = rng.random(grid)
        fld = GridField(vals + vals[:, ::-1], plate.ell * (1 + 1e-12 * off), "even")
        w = Weight(Sublevel(fld, float(np.median(fld.values)), 1.5, 0.5),
                   plate.alpha, plate.beta)
        coeffs = rng.normal(size=n)
        got = _grid_call(spec, kind, parity, n, w, coeffs, grid)
        want = _grid_call(build_spectrum(plate), kind, parity, n, w, coeffs, grid)
        if isinstance(want, str):
            assert got == want
        else:
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert len(spec.grid_tables) == 1


@settings(max_examples=30, deadline=None)
@given(log_ell=st.floats(-7.0, -3.0), sigma=st.floats(0.01, 0.49))
@example(log_ell=math.log10(spectrum._narrow_bound(0.2)), sigma=0.2)
def test_narrow_plates_solve_or_are_refused(log_ell, sigma):
    # a plate either solves or, below spectrum._narrow_bound, is refused with
    # the ValueError the CLI turns into exit 2; no root isolation failure
    # (exit 5) is left between
    cfg = PlateConfig(ell=10.0 ** log_ell, sigma=sigma)
    if cfg.ell < spectrum._narrow_bound(sigma):
        with pytest.raises(ValueError, match="is too small"):
            build_spectrum(cfg)
    else:
        assert len(build_spectrum(cfg).mu) == cfg.n_modes


@st.composite
def few_level_fields(draw):
    """nx x ny fields (ny odd) of a few integer levels; the levels force ties."""
    nx, half_ny = draw(st.integers(1, 40)), draw(st.integers(0, 7))
    levels = draw(st.integers(1, 6))
    return draw(arrays(np.float64, (nx, 2 * half_ny + 1),
                       elements=st.integers(0, levels).map(float)))


@settings(max_examples=60, deadline=None)
@given(vals=few_level_fields(), frac=st.floats(0.001, 0.999),
       inside=st.floats(1.0, 4.0), outside=st.floats(0.1, 1.0))
# phases one ulp apart: the dense measure cannot be read back from node values
@example(vals=np.zeros((1, 1)), frac=0.5, inside=1.0, outside=0.9999999999999999)
def test_sublevel_split_exact_grid_mass(vals, frac, inside, outside):
    fld = GridField(vals, CFG.ell)
    target = frac * CFG.area
    t, theta, degenerate = sublevel_split(fld, target, inside, outside)
    assert 0.0 <= theta <= 1.0
    assert degenerate == (vals.min() == vals.max())
    # the dense measure the split decided: cells below t plus the tied share
    cells = theta * vals.size if degenerate else (
        np.count_nonzero(vals < t) + theta * np.count_nonzero(vals == t))
    measure = float(cells) * fld.cell_area
    assert measure == pytest.approx(target, rel=1e-9, abs=1e-9 * fld.cell_area)
    nv = Sublevel(fld, t, inside, outside, theta, degenerate).node_values()
    mass = float(np.sum(nv)) * fld.cell_area
    expected = inside * target + outside * (CFG.area - target)
    assert mass == pytest.approx(expected, rel=1e-9)
    assert math.isfinite(t)


def _assert_phase_map_roundtrip(w: Weight) -> None:
    """w written as its phase map reads back as the same density, bit for bit."""
    text = weight_to_json(w)
    assert text == json.dumps(weight_to_dict(w), indent=2)
    back = weight_from_json(text)
    assert weight_to_json(back) == text
    a, b = w.variant, back.variant
    assert a.node_values().tobytes() == b.node_values().tobytes()
    assert np.array_equal(a.inside_mask(), b.inside_mask())
    assert mean_density(back, CFG) == mean_density(w, CFG)
    assert validate(back, CFG) == validate(w, CFG)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nx=st.integers(1, 300), half_ny=st.integers(0, 15))
def test_phase_map_roundtrip_random_sublevel(seed, nx, half_ny):
    _assert_phase_map_roundtrip(_y_even_sublevel(np.random.default_rng(seed),
                                                 (nx, 2 * half_ny + 1)))


@settings(max_examples=60, deadline=None)
@given(vals=few_level_fields(), frac=st.floats(0.001, 0.999),
       inside=st.floats(1.0, 4.0), outside=st.floats(0.1, 1.0))
@example(vals=np.full((3, 5), 2.0), frac=0.4, inside=1.5, outside=0.5)   # degenerate
def test_phase_map_roundtrip_tied_levels(vals, frac, inside, outside):
    fld = GridField(vals, CFG.ell)
    t, theta, degenerate = sublevel_split(fld, frac * CFG.area, inside, outside)
    _assert_phase_map_roundtrip(Weight(Sublevel(fld, t, inside, outside, theta, degenerate),
                                       CFG.alpha, CFG.beta))



@settings(max_examples=150, deadline=None)
@given(log_ell=st.floats(-4.0, 1.7), sigma=st.floats(0.01, 0.49), m=st.integers(1, 40),
       k=st.integers(1, 40), parity=st.sampled_from(["even", "odd"]))
@example(log_ell=math.log10(50.0), sigma=0.2, m=40, k=40, parity="odd")
@example(log_ell=-4.0, sigma=0.01, m=1, k=1, parity="even")
@example(log_ell=math.log10(50.0), sigma=0.45, m=2, k=1, parity="odd")   # wide plate
def test_norm_const_matches_converged_quadrature(log_ell, sigma, m, k, parity):
    # the closed-form scale against a composite Gauss rule whose pieces
    # resolve both the boundary layer (about 1 / c_bar wide) and the cos/sin
    cfg = PlateConfig(ell=10.0 ** log_ell, sigma=sigma, n_modes=2)
    try:
        pair = find_hom_eigenvalue(Mode(m, k, parity), cfg)
    except NotAdmissible:
        reject()   # a mode that does not exist
    want = normalization(m, pair.lam, parity, cfg)
    assert abs(pair.norm_const - want) <= 1e-14 * want


@settings(max_examples=25, deadline=None)
@given(log_ell=st.floats(-3.5, 1.5), sigma=st.floats(0.02, 0.48), n=st.integers(1, 120))
@example(log_ell=-3.131308919752262, sigma=0.2, n=16)   # pow and x * x round apart
@example(log_ell=math.log10(30.0), sigma=0.48, n=120)   # wide plate
def test_spectrum_window_is_complete(log_ell, sigma, n):
    # the n lowest pairs do not change when more are asked for, and no mode
    # found on its own below the n-th eigenvalue is left out of the list
    cfg = PlateConfig(ell=10.0 ** log_ell, sigma=sigma, n_modes=n)
    spec = build_spectrum(cfg)
    more = build_spectrum(cfg.with_(n_modes=n + 15))
    for seq, longer, parity in ((spec.mu, more.mu, "even"), (spec.nu, more.nu, "odd")):
        assert seq == longer[:n]
        listed, top = {(p.mode.m, p.mode.k) for p in seq}, seq[-1].lam
        for m in range(1, 41):
            for k in range(1, 6):   # eigenvalues of one m increase with k
                try:
                    lam = find_hom_eigenvalue(Mode(m, k, parity), cfg).lam
                except NotAdmissible:
                    continue
                if lam >= top:
                    break
                assert (m, k) in listed, (parity, m, k, lam, top)


_CUT = spectrum._SERIES_CUT


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.99 * _CUT, 1.01 * _CUT))
@example(t=float(np.nextafter(_CUT, 0.0)))
@example(t=_CUT)
@example(t=float(np.nextafter(_CUT, 2.0 * _CUT)))
def test_profile_square_helpers_across_the_series_cut(t):
    # each helper switches from its Taylor series to its direct form at the
    # cut; both forms must match the integral it stands for
    want = profile_square_helpers(t)
    for name, got in zip("GKST", spectrum._odd_parts(np.array([t]))):
        assert abs(float(got[0]) - want[name]) <= 2e-15 * abs(want[name]), name
