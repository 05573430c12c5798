import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_band_weight
from oracles import parity_residual, parity_violated
from plate_spectra import PlateConfig
from plate_spectra import weights as W
from plate_spectra.weights import (TILDE_Y_RETENTION, Cross, GridField, Sublevel,
                                   Uniform, Weight, WeightError, XBands, YBands,
                                   _band_centers, eval_weight,
                                   make_breve_p, make_doublebar_p, make_pbar_j,
                                   make_tilde_p, make_uniform, pj_sin4_threshold,
                                   sample_field, sin4_level_exact, sqrt_mass_integral,
                                   sublevel_split, threshold_for_area, validate,
                                   weight_from_json, weight_to_json)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_uniform(ref_cfg):
    rep = validate(make_uniform(ref_cfg), ref_cfg)
    assert rep.passed and rep.mass_error == 0.0


def test_validate_mass_identity_band(ref_cfg):
    # total band length pi (1 - alpha)/(beta - alpha) balances the mass exactly
    L = math.pi * (1 - ref_cfg.alpha) / (ref_cfg.beta - ref_cfg.alpha)
    w = Weight(XBands(((1.0, 1.0 + L),), ref_cfg.beta, ref_cfg.alpha),
               ref_cfg.alpha, ref_cfg.beta)
    rep = validate(w, ref_cfg)
    assert rep.passed and abs(rep.mass_error) < 1e-15


def test_validate_wrong_band_length_fails(ref_cfg):
    # band of length pi/3 at the extreme values misses mass by -1/6
    w = Weight(XBands(((1.0, 1.0 + math.pi / 3),), ref_cfg.beta, ref_cfg.alpha),
               ref_cfg.alpha, ref_cfg.beta)
    rep = validate(w, ref_cfg)
    assert not rep.passed
    assert rep.mass_error == pytest.approx(-1.0 / 6.0, abs=1e-12)


def test_validate_bound_violation(ref_cfg):
    w = Weight(XBands(((1.0, 2.0),), 2.0, 0.56), ref_cfg.alpha, ref_cfg.beta)
    rep = validate(w, ref_cfg)
    assert not rep.passed and rep.bounds_violation == pytest.approx(0.5)


def test_validate_asymmetric_yband_fails(ref_cfg):
    hw = ref_cfg.ell / 2
    w = Weight(YBands(((-hw * 0.5, hw),), ref_cfg.beta, ref_cfg.alpha, ref_cfg.ell),
               ref_cfg.alpha, ref_cfg.beta)
    rep = validate(w, ref_cfg)
    assert not rep.passed and rep.symmetry_residual > 0


def test_validate_asymmetric_sublevel_fails(ref_cfg):
    vals = np.random.default_rng(8).random((40, 7))
    w = Weight(Sublevel(GridField(vals, ref_cfg.ell), 0.5, 1.5, 0.5), ref_cfg.alpha, ref_cfg.beta)
    rep = validate(w, ref_cfg)
    assert not rep.passed and "y-symmetry residual" in rep.detail
    assert rep.symmetry_residual == parity_residual(w.variant.node_values(), "even") == 1.0


def test_validate_rejects_foreign_band_geometry(ref_cfg):
    # mass-exact on a plate of half-width 1, a full-width band on this one
    w = Weight(YBands(((-0.5, 0.5),), ref_cfg.beta, ref_cfg.alpha, 1.0),
               ref_cfg.alpha, ref_cfg.beta)
    assert validate(w, PlateConfig(ell=1.0)).passed
    rep = validate(w, ref_cfg)
    assert not rep.passed and "declared ell 1.0" in rep.detail


def test_validate_rejects_foreign_sublevel_geometry(ref_cfg):
    cfg5 = PlateConfig(ell=5.0)
    fld = sample_field(lambda x, y: np.sin(x) ** 2 + 0.0 * y, cfg5, 40, 5, parity="even")
    t, theta, _ = sublevel_split(fld, 0.5 * cfg5.area, ref_cfg.beta, ref_cfg.alpha)
    w = Weight(Sublevel(fld, t, ref_cfg.beta, ref_cfg.alpha, theta),
               ref_cfg.alpha, ref_cfg.beta)
    assert validate(w, cfg5).passed
    rep = validate(w, ref_cfg)
    assert not rep.passed and "declared ell 5.0" in rep.detail


def test_validate_checks_plate_bounds(ref_cfg):
    # admissible for its own wider bounds, but denser than the plate's beta
    w = Weight(XBands(((0.0, math.pi / 3),), 2.0, 0.5), 0.4, 2.1)
    rep = validate(w, ref_cfg)
    assert abs(rep.mass_error) < 1e-15
    assert not rep.passed and rep.bounds_violation == pytest.approx(0.5)


def test_random_band_weights_admissible(ref_cfg):
    rng = np.random.default_rng(23)
    xs = np.linspace(0.01, math.pi - 0.01, 41)
    ys = np.linspace(0.0, ref_cfg.ell * 0.999, 17)
    kinds = set()
    for _ in range(40):
        w = random_band_weight(rng, ref_cfg)
        kinds.add(type(w.variant))
        rep = validate(w, ref_cfg)
        assert rep.passed and abs(rep.mass_error) <= 1e-12, rep.detail
        up = eval_weight(w, xs[:, None], ys[None, :])
        assert np.array_equal(up, eval_weight(w, xs[:, None], -ys[None, :]))
    assert kinds == {Uniform, XBands, YBands, Cross}


def test_band_terms_order(ref_cfg):
    xs, ys = ((0.5, 1.0),), ((-0.01, 0.01),)
    assert Uniform(1.0).terms() == [(1.0, None, None)]
    assert XBands(xs, 1.5, 0.5).terms() == [(0.5, None, None), (1.0, xs, None)]
    assert YBands(ys, 1.5, 0.5, ref_cfg.ell).terms() == [(0.5, None, None), (1.0, None, ys)]
    assert Cross(xs, ys, 1.5, 0.5, ref_cfg.ell).terms() == [
        (0.5, None, None), (1.0, xs, None), (1.0, None, ys), (-1.0, xs, ys)]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_uniform(ref_cfg):
    assert eval_weight(make_uniform(ref_cfg), 1.2, 0.001) == 1.0


def test_eval_band_weights(ref_cfg):
    assert eval_weight(make_pbar_j(1, ref_cfg), math.pi / 2, 0.0) == ref_cfg.beta
    # mid-line band weight is light at the long edges
    breve = make_breve_p(ref_cfg)
    assert eval_weight(breve, 1.0, 0.999 * ref_cfg.ell) == ref_cfg.alpha
    assert eval_weight(breve, 1.0, -0.999 * ref_cfg.ell) == ref_cfg.alpha
    assert eval_weight(breve, 1.0, 0.0) == ref_cfg.beta
    # edge-loaded weight is light at the centre
    assert eval_weight(make_doublebar_p(ref_cfg), math.pi / 2, 0.0) == ref_cfg.alpha


def test_eval_half_open_convention(ref_cfg):
    w = Weight(XBands(((1.0, 2.0),), ref_cfg.beta, ref_cfg.alpha),
               ref_cfg.alpha, ref_cfg.beta)
    assert eval_weight(w, 1.0, 0.0) == ref_cfg.beta   # closed on the left
    assert eval_weight(w, 2.0, 0.0) == ref_cfg.alpha  # open on the right


def test_sqrt_mass_integral_grid_weight(ref_cfg):
    # the grid branch: x bands whose edges are cell edges, sampled at the cell
    # centres, give the band weight's closed form, and a uniform grid weight
    # gives |Omega|
    nx, ny = 60, 31
    edges = ((6 * math.pi / nx, 18 * math.pi / nx), (36 * math.pi / nx, 45 * math.pi / nx))
    bands = Weight(XBands(edges, 48.0 / 35.0, 0.8), ref_cfg.alpha, ref_cfg.beta)
    assert validate(bands, ref_cfg).passed
    fld = sample_field(lambda x, y: eval_weight(bands, x, y), ref_cfg, nx, ny, parity="even")
    grid = Weight(Sublevel(fld, 1.0, 0.8, 48.0 / 35.0), ref_cfg.alpha, ref_cfg.beta)
    assert np.array_equal(grid.variant.node_values(), fld.values)
    assert np.count_nonzero(fld.values > 1.0) == 21 * ny
    assert sqrt_mass_integral(grid, ref_cfg) == pytest.approx(
        sqrt_mass_integral(bands, ref_cfg), rel=1e-12, abs=0.0)
    uniform = Weight(Sublevel(GridField(np.ones((nx, ny)), ref_cfg.ell), 0.0, ref_cfg.beta, 1.0),
                     ref_cfg.alpha, ref_cfg.beta)
    assert np.all(uniform.variant.node_values() == 1.0)
    assert sqrt_mass_integral(uniform, ref_cfg) == pytest.approx(ref_cfg.area, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_pbar_1_band(ref_cfg):
    (a, b), = make_pbar_j(1, ref_cfg).variant.x_intervals
    assert a == pytest.approx(math.pi / 4, abs=1e-15)
    assert b == pytest.approx(3 * math.pi / 4, abs=1e-15)


def test_pbar_10_geometry(ref_cfg):
    ivs = make_pbar_j(10, ref_cfg).variant.x_intervals
    assert len(ivs) == 10
    widths = [b - a for a, b in ivs]
    assert all(abs(w - math.pi / 20) < 1e-14 for w in widths)  # pi/10 * 0.5
    centers = [(a + b) / 2 for a, b in ivs]
    expected = [(2 * h - 1) * math.pi / 20 for h in range(1, 11)]
    assert np.allclose(centers, expected, atol=1e-14)
    # bands tile without overlap
    for (_, b1), (a2, _) in zip(ivs, ivs[1:]):
        assert b1 < a2


def test_pbar_mass_exact(ref_cfg):
    for j in (1, 3, 10):
        rep = validate(make_pbar_j(j, ref_cfg), ref_cfg)
        assert rep.passed and abs(rep.mass_error) <= 1e-12


def test_pj_sin4_threshold(ref_cfg):
    # closed form: half-area sublevel of sin^4 sits at level 1/4
    assert sin4_level_exact(ref_cfg) == pytest.approx(0.25, abs=1e-12)
    for j in (2, 5, 10):
        assert pj_sin4_threshold(j, ref_cfg) == pytest.approx(0.25, abs=1e-3)


def test_pj_sin4_threshold_off_reference_bounds():
    cfg = PlateConfig(alpha=0.7, beta=1.6)
    exact = sin4_level_exact(cfg)
    assert pj_sin4_threshold(3, cfg) == pytest.approx(exact, abs=1e-3)


def test_pj_sin4_matches_band_construction(ref_cfg):
    w = make_pbar_j(5, ref_cfg)
    # the dense phase sits exactly on the superlevel set of sin^4
    t = sin4_level_exact(ref_cfg)
    for x in np.linspace(0.01, math.pi - 0.01, 301):
        want = ref_cfg.beta if math.sin(5 * x) ** 4 > t else ref_cfg.alpha
        if abs(math.sin(5 * x) ** 4 - t) < 1e-9:
            continue  # on the jump line
        assert eval_weight(w, x, 0.0) == want


def test_pj_sin4_periodicity(ref_cfg):
    w = make_pbar_j(5, ref_cfg)
    xs = np.linspace(0.01, math.pi - math.pi / 5 - 0.01, 200)
    a = eval_weight(w, xs, 0.0)
    b = eval_weight(w, xs + math.pi / 5, 0.0)
    assert np.array_equal(a, b)


def test_breve_and_doublebar_mass(ref_cfg):
    for w in (make_breve_p(ref_cfg), make_doublebar_p(ref_cfg)):
        rep = validate(w, ref_cfg)
        assert rep.passed and abs(rep.mass_error) <= 1e-12


def test_breve_mass_off_reference_bounds():
    # width must follow the mass constraint also when alpha + beta != 2
    cfg = PlateConfig(alpha=0.6, beta=1.8)
    rep = validate(make_breve_p(cfg), cfg)
    assert rep.passed and abs(rep.mass_error) <= 1e-12


@pytest.mark.parametrize("j", [1, 2, 10])
def test_tilde_x_bands_match_closed_form(ref_cfg, j):
    # the union-mass identity t + fy - t fy = frac is linear in t, so the x
    # fraction is (frac - fy) / (1 - fy); the solved band edges lie within
    # 2 ulp of the edges that fraction gives (bisection left 9-13 ulp)
    frac = (1.0 - ref_cfg.alpha) / (ref_cfg.beta - ref_cfg.alpha)
    fy = TILDE_Y_RETENTION * frac
    hw = (frac - fy) / (1.0 - fy) * math.pi / (2 * j)
    want = np.array([(c - hw, c + hw) for c in _band_centers(j)])
    got = np.array(make_tilde_p(ref_cfg, j).variant.x_intervals)
    assert np.all(np.abs(got - want) <= 2 * np.spacing(want))


def test_tilde_structure(ref_cfg):
    w = make_tilde_p(ref_cfg)
    rep = validate(w, ref_cfg)
    assert rep.passed and abs(rep.mass_error) <= 1e-12
    v = w.variant
    assert isinstance(v, Cross) and len(v.x_intervals) == 10
    # x-band component is pi/10-translation invariant
    centers = [(a + b) / 2 for a, b in v.x_intervals]
    gaps = np.diff(centers)
    assert np.allclose(gaps, math.pi / 10, atol=1e-12)
    # y-even by construction
    ys = np.linspace(-ref_cfg.ell, ref_cfg.ell, 33)
    assert np.array_equal(eval_weight(w, 0.3, ys), eval_weight(w, 0.3, -ys))
    # dense phase where either band is active
    (ya, yb), = v.y_intervals
    assert eval_weight(w, 0.011, 0.0) == ref_cfg.beta        # inside y-band only
    assert eval_weight(w, centers[0], ya * 1.5) == ref_cfg.beta  # inside x-band only
    assert eval_weight(w, 0.011, ya * 1.5) == ref_cfg.alpha  # outside both


# ---------------------------------------------------------------------------
# grid fields and thresholding
# ---------------------------------------------------------------------------

def test_grid_field_requires_odd_ny(ref_cfg):
    with pytest.raises(ValueError):
        GridField(np.zeros((10, 4)), ref_cfg.ell)


@pytest.mark.parametrize("ny", [3, 31, 61, 101])
@pytest.mark.parametrize("ell", [math.pi / 150, 0.1, 1.0, math.pi / 2, 7.3])
def test_cell_ys_exactly_antisymmetric(ny, ell):
    # mirror cells sit at exactly opposite y, so a y-even field sampled there
    # is y-even to the last bit
    ys = W.cell_ys(ny, ell)
    assert np.all(ys + ys[::-1] == 0.0)
    h = 2.0 * ell / ny
    assert np.allclose(ys, -ell + h * (np.arange(ny) + 0.5), rtol=0.0, atol=1e-15 * ell)
    assert np.array_equal(GridField(np.zeros((2, ny)), ell).ys, ys)


@pytest.mark.parametrize("shape", [(0, 1), (0, 5)])
def test_grid_field_rejects_empty_grid(ref_cfg, shape):
    # the weight reader refuses nx = 0, so the field refuses it as well
    with pytest.raises(ValueError, match="nx must be >= 1"):
        GridField(np.empty(shape), ref_cfg.ell)
    text = json.dumps({"variant": "sublevel", "alpha": 0.5, "beta": 1.5, "parameters": {
        "field": {"nx": 0, "ny": shape[1], "ell": ref_cfg.ell, "values": []},
        "threshold": 1.0, "inside": 1.5, "outside": 0.5}})
    with pytest.raises(WeightError, match="nx"):
        weight_from_json(text)


def test_grid_field_parity_check(ref_cfg):
    vals = np.ones((6, 5))
    vals[0, 0] = 2.0
    with pytest.raises(ValueError):
        GridField(vals, ref_cfg.ell, parity="even")


def _half_width_raises(v: np.ndarray, parity: str) -> bool:
    try:
        W._check_parity(v, parity)
    except ValueError as exc:
        assert str(exc).startswith(f"declared {parity} parity violated (residual ")
        return True
    return False


def test_half_width_parity_check_matches_full_width_oracle():
    # the check compares columns 0..ny//2 only; it must raise exactly where
    # the full-width formula does, at the 1e-10 edge and on non-finite input
    rng = np.random.default_rng(17)
    cases, edge = [], []
    for ny in (1, 3, 31):
        base = rng.normal(size=(40, ny))
        exact = {"even": base + base[:, ::-1], "odd": base - base[:, ::-1]}
        for parity, v0 in exact.items():
            for scale in (1e-3, 1.0, 1e5):
                v = scale * v0
                cases.append((parity, v))
                tol = 1e-10 * max(1.0, float(np.abs(v).max()))
                for factor in np.linspace(0.99999, 1.00001, 9):
                    w = v.copy()
                    w[int(rng.integers(40)), int(rng.integers(ny))] += factor * tol
                    edge.append((parity, w))
            for offset in (1e-9, 1.0):
                w = v0.copy()
                w[:, ny // 2] += offset  # the middle column is its own mirror image
                cases.append((parity, w))
            for bad in (np.nan, np.inf):
                w = v0.copy()
                w[3, ny - 1] = bad
                cases.append((parity, w))
    for parity, v in cases + edge:
        with np.errstate(invalid="ignore"):  # inf - inf
            assert _half_width_raises(v, parity) == parity_violated(v, parity), (parity, v.shape)
        if np.all(np.isfinite(v)):
            assert W._parity_residual(v, parity) == parity_residual(v, parity)
    assert {_half_width_raises(v, parity) for parity, v in edge} == {True, False}
    base, middle = rng.normal(size=(40, 31)), np.zeros((40, 31))
    middle[:, 15] = 1.0
    assert not _half_width_raises(base + base[:, ::-1] + middle, "even")
    assert _half_width_raises(base - base[:, ::-1] + 1e-9 * middle, "odd")


@pytest.mark.parametrize("parity", ["sideways", 7, "Even"])
def test_grid_field_rejects_unknown_parity(parity):
    # only "even", "odd" and None are parities; anything else used to pass as odd
    with pytest.raises(ValueError, match="parity must be"):
        GridField(np.zeros((40, 5)), 0.02, parity)


def test_threshold_sin4(ref_cfg):
    fld = sample_field(lambda x, y: np.sin(5 * x) ** 4 + 0.0 * y, ref_cfg,
                       nx=20001, ny=3, parity="even")
    res = threshold_for_area(fld, 0.5 * ref_cfg.area)
    assert not res.degenerate
    assert res.threshold == pytest.approx(0.25, abs=2e-3)


def test_threshold_small_target_hits_minimum(ref_cfg):
    fld = sample_field(lambda x, y: np.sin(x) ** 2 + 0.0 * y, ref_cfg, nx=101, ny=3)
    res = threshold_for_area(fld, 1e-9 * ref_cfg.area)
    assert res.threshold == fld.values.min()


def test_threshold_monotone_in_target(ref_cfg):
    rng = np.random.default_rng(4)
    vals = rng.uniform(size=(40, 7))
    fld = GridField(0.5 * (vals + vals[:, ::-1]), ref_cfg.ell, parity="even")
    targets = np.linspace(0.05, 0.95, 19) * ref_cfg.area
    ts = [threshold_for_area(fld, t).threshold for t in targets]
    assert all(a <= b for a, b in zip(ts, ts[1:]))


def test_threshold_degenerate_field(ref_cfg):
    fld = GridField(np.full((10, 5), 3.25), ref_cfg.ell)
    res = threshold_for_area(fld, 0.3 * ref_cfg.area)
    assert res.degenerate and res.threshold == 3.25


def test_sublevel_weight_exact_mass(ref_cfg, ref_spectrum):
    # dense phase on the sublevel set of the first torsional eigenfunction
    from plate_spectra.spectrum import eval_eigenfunction
    theta1 = ref_spectrum.nu[0]
    fld = sample_field(lambda x, y: eval_eigenfunction(theta1, x, y) ** 2,
                       ref_cfg, 600, 31, parity="even")
    target = (1 - ref_cfg.alpha) / (ref_cfg.beta - ref_cfg.alpha) * ref_cfg.area
    t, theta, dg = sublevel_split(fld, target, ref_cfg.beta, ref_cfg.alpha)
    assert not dg
    w = Weight(Sublevel(fld, t, ref_cfg.beta, ref_cfg.alpha, theta),
               ref_cfg.alpha, ref_cfg.beta)
    rep = validate(w, ref_cfg)
    assert rep.passed and abs(rep.mass_error) <= 1e-12


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

def test_json_roundtrip_analytic(ref_cfg):
    for w in (make_uniform(ref_cfg), make_pbar_j(3, ref_cfg), make_breve_p(ref_cfg),
              make_doublebar_p(ref_cfg), make_tilde_p(ref_cfg)):
        back = weight_from_json(weight_to_json(w))
        assert back.variant == w.variant
        assert back.alpha == w.alpha and back.beta == w.beta


def test_json_roundtrip_sublevel(ref_cfg):
    fld = sample_field(lambda x, y: np.sin(2 * x) ** 2 + 0.0 * y, ref_cfg, 50, 5,
                       parity="even")
    t, theta, _ = sublevel_split(fld, 0.4 * ref_cfg.area, ref_cfg.beta, ref_cfg.alpha)
    w = Weight(Sublevel(fld, t, ref_cfg.beta, ref_cfg.alpha, theta),
               ref_cfg.alpha, ref_cfg.beta)
    back = weight_from_json(weight_to_json(w))
    assert np.array_equal(back.variant.node_values(), w.variant.node_values())
    assert np.array_equal(back.variant.inside_mask(), w.variant.inside_mask())
    assert back.variant.tie_fraction == theta


def test_json_rejects_phase_map_breaking_parity(ref_cfg):
    # codes 0, 1 and 2 cannot be odd in y: the map of an "odd" field with a
    # cell at or above the threshold would not read back, so writing it fails
    fld = sample_field(lambda x, y: np.sin(x) * y, ref_cfg, 8, 5, parity="odd")
    w = Weight(Sublevel(fld, 0.0, ref_cfg.beta, ref_cfg.alpha), ref_cfg.alpha, ref_cfg.beta)
    for write in (weight_to_json, W.weight_to_dict):
        with pytest.raises(ValueError, match="odd parity"):
            write(w)


GOLDEN_JSON = json.loads((Path(__file__).parent / "golden_weight_json.json").read_text())


def test_json_golden_bytes(ref_cfg):
    # one weight per variant name; the expected text is the established format
    fld = GridField(np.array([[2.0, 0.5, 2.0], [1.0, 0.25, 1.0]]), ref_cfg.ell, "even")
    weights = {
        "uniform": make_uniform(ref_cfg),
        "x_bands": make_pbar_j(2, ref_cfg),
        "y_bands": make_breve_p(ref_cfg),
        "cross": make_tilde_p(ref_cfg, j=2),
        "sublevel": Weight(Sublevel(fld, 1.0, ref_cfg.beta, ref_cfg.alpha, 0.25),
                           ref_cfg.alpha, ref_cfg.beta),
    }
    assert weights.keys() == GOLDEN_JSON.keys()
    for name, w in weights.items():
        text = weight_to_json(w)
        assert text == GOLDEN_JSON[name], name
        back = weight_from_json(text)
        assert type(back.variant) is type(w.variant)
        assert weight_to_json(back) == text


def _awkward_sublevel(rng, ell, nx, ny):
    # random values with the float reprs that differ most between encoders'
    # code paths: subnormal, huge, signed zero and integral values
    vals = rng.normal(scale=10.0 ** rng.integers(-300, 300), size=(nx, ny))
    special = [5e-324, -5e-324, 1e308, -1e308, -0.0, 0.0, 3.0, -7.0, 1e16, 2.0 ** 70]
    idx = rng.choice(nx * ny, size=min(nx * ny, len(special)), replace=False)
    vals.ravel()[idx] = special[:idx.size]
    fld = GridField(vals, ell)
    return Weight(Sublevel(fld, float(np.median(vals)), 1.5, 0.5,
                           float(rng.uniform()), bool(rng.integers(2))), 0.5, 1.5)


def test_json_bytes_match_indented_encoder(ref_cfg):
    rng = np.random.default_rng(12)
    for nx, ny in ((1, 1), (2, 3), (7, 5), (40, 9)):
        w = _awkward_sublevel(rng, ref_cfg.ell, nx, ny)
        assert weight_to_json(w) == json.dumps(W.weight_to_dict(w), indent=2)
    for w in (make_uniform(ref_cfg), make_tilde_p(ref_cfg)):
        assert weight_to_json(w) == json.dumps(W.weight_to_dict(w), indent=2)
    with pytest.raises(ValueError, match="nx"):   # no empty grid reaches the writer
        GridField(np.empty((0, 1)), ref_cfg.ell)


def test_json_malformed():
    with pytest.raises(WeightError):
        weight_from_json("{not json")
    with pytest.raises(WeightError):
        weight_from_json(json.dumps({"variant": "moebius", "parameters": {},
                                     "alpha": 0.5, "beta": 1.5}))
    with pytest.raises(WeightError):
        weight_from_json(json.dumps({"variant": "x_bands", "parameters": {},
                                     "alpha": 0.5, "beta": 1.5}))


def test_all_constructors_y_even(ref_cfg):
    xs = np.linspace(0.01, math.pi - 0.01, 50)
    ys = np.linspace(0.0, ref_cfg.ell * 0.999, 21)
    for w in (make_uniform(ref_cfg), make_pbar_j(4, ref_cfg), make_breve_p(ref_cfg),
              make_doublebar_p(ref_cfg), make_tilde_p(ref_cfg)):
        up = eval_weight(w, xs[:, None], ys[None, :])
        down = eval_weight(w, xs[:, None], -ys[None, :])
        assert np.array_equal(up, down)
