import math

import numpy as np
import pytest

from conftest import random_band_weight, random_grid_weight
from plate_spectra import PlateConfig
from oracles import (MidpointRule, h2_energy, integrate_2d, mass_matrix_by_columns,
                     weighted_l2_sq, x_matrix_per_entry)
from plate_spectra.galerkin import (_cell_trig, _contract, _profiles_on, _x_matrix, assemble_mass,
                                    expand_field, grid_basis, merged_eigenvalues, reconstruct,
                                    solve_parity, solve_weighted, weyl_diagnostic)
from plate_spectra.numerics import sym_eig
from plate_spectra.optimize import default_study_weights, make_pstar
from plate_spectra.spectrum import build_spectrum, eval_eigenfunction, profile_values
from plate_spectra.weights import (Cross, GridField, Sublevel, Weight, XBands, YBands,
                                   eval_weight, make_breve_p, make_doublebar_p, make_pbar_j,
                                   make_tilde_p, make_uniform, sqrt_mass_integral)


def sig3(x: float) -> str:
    return f"{x:.2e}"


# ---------------------------------------------------------------------------
# profile tables
# ---------------------------------------------------------------------------

def test_profile_table_rows_match_profile_values():
    # the wide plate has, in each parity, modes below m^4 (k = 1) and above it
    cfg = PlateConfig(ell=math.pi / 2, sigma=0.45, n_modes=40)
    spec = build_spectrum(cfg)
    ys = np.concatenate([[-cfg.ell, 0.0, cfg.ell], np.linspace(-cfg.ell, cfg.ell, 30)])
    for pairs in (spec.mu, spec.nu):
        assert {(p.mode.k == 1, p.high_branch) for p in pairs} == {(True, False), (False, True)}
        table = _profiles_on(list(pairs), ys)
        assert table.shape == (len(pairs), ys.size)
        for row, pair in zip(table, pairs):
            direct = profile_values(pair, ys)
            assert np.all(np.abs(row - direct) <= 1e-14 * np.abs(direct)), pair.mode


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_uniform_mass_is_identity(ref_cfg, ref_spectrum):
    for parity in ("even", "odd"):
        c = assemble_mass(make_uniform(ref_cfg), ref_spectrum, parity, 30)
        assert np.abs(c - np.eye(30)).max() < 1e-8


def test_mass_matrix_symmetric_exactly(ref_cfg, ref_spectrum):
    # a band, a cross and a sublevel weight: each assembly path mirrors once
    for w in (make_pbar_j(10, ref_cfg), make_tilde_p(ref_cfg),
              make_pstar(ref_spectrum)):
        c = assemble_mass(w, ref_spectrum, "even", 20)
        assert type(c) is np.ndarray and np.array_equal(c, c.T)


def test_band_assembly_vs_brute_force(ref_cfg, ref_spectrum):
    # closed-form-in-x entries against midpoint integration on a fine grid
    w = Weight(XBands(((0.4, 1.1), (2.0, 2.9)), 1.3, 0.7), ref_cfg.alpha, ref_cfg.beta)
    n = 6
    c = assemble_mass(w, ref_spectrum, "even", n)
    pairs = ref_spectrum.mu[:n]
    rx = MidpointRule(0.0, math.pi, order=1500,
                      breakpoints=(0.4, 1.1, 2.0, 2.9))
    ry = MidpointRule(-ref_cfg.ell, ref_cfg.ell, order=200)
    for i in (0, 2, 5):
        for j in (0, 3, 5):
            brute = integrate_2d(
                lambda x, y, i=i, j=j: eval_weight(w, x, y)
                * eval_eigenfunction(pairs[i], x, y)
                * eval_eigenfunction(pairs[j], x, y), rx, ry)
            assert abs(c[i, j] - brute) <= 1e-6 * max(1.0, abs(brute))


def test_sublevel_assembly_vs_brute_force(ref_cfg, ref_spectrum):
    # the column-by-column contraction against a direct sum over the field's cells
    w = make_pstar(ref_spectrum, (120, 15))
    f = w.variant.field
    n = 8
    c = assemble_mass(w, ref_spectrum, "even", n)
    x, y = f.xs[:, None], f.ys[None, :]
    pv = eval_weight(w, x, y)
    z = [eval_eigenfunction(p, x, y) for p in ref_spectrum.mu[:n]]
    brute = np.array([[np.sum(pv * zi * zj) * f.cell_area for zj in z] for zi in z])
    assert np.abs(c - brute).max() <= 1e-12 * np.abs(brute).max()


@pytest.mark.parametrize("ell", [math.pi / 2, math.pi / 150])
def test_sublevel_cosine_moments_vs_cell_sum_n100(ell):
    # at n = 100 the wide plate's basis repeats frequencies (k >= 2 modes) and
    # the narrow plate's reaches m = 100; the top mode's diagonal entry needs
    # the top moment 2 max m
    cfg = PlateConfig(ell=ell, n_modes=100)
    spec = build_spectrum(cfg)
    n = 100
    pairs = spec.mu[:n]
    freqs = [p.mode.m for p in pairs]
    if ell > 1.0:
        assert len(set(freqs)) < n and any(p.mode.k >= 2 for p in pairs)
    else:
        assert max(freqs) == n
    w = random_grid_weight(np.random.default_rng(3), cfg, shape=(160, 31))
    f = w.variant.field
    assert f.nx >= max(freqs)
    c = assemble_mass(w, spec, "even", n)
    x, y = f.xs[:, None], f.ys[None, :]
    z = np.array([eval_eigenfunction(p, x, y).ravel() for p in pairs])
    brute = (z * (f.cell_area * eval_weight(w, x, y).ravel())) @ z.T
    assert np.abs(c - brute).max() <= 1e-12 * np.abs(brute).max()
    top = int(np.argmax(freqs))
    assert abs(c[top, top] - brute[top, top]) <= 1e-12 * abs(brute[top, top])
    assert np.array_equal(c, c.T)


@pytest.mark.parametrize("intervals", [[(0.0, 0.3), (1.0, math.pi)], None])
def test_x_matrix_vs_midpoint_quadrature(intervals):
    # repeated frequencies (same m, different k) must take the diagonal formula
    freqs = [1, 1, 2, 5, 5, 30]
    xm = _x_matrix(freqs, intervals)
    f = np.array(freqs, dtype=float)
    brute = np.zeros((6, 6))
    for a, b in intervals or [(0.0, math.pi)]:
        x, w = MidpointRule(a, b, order=100_000).nodes_weights()
        s = np.sin(f[:, None] * x[None, :])
        brute += (s * w) @ s.T
    assert np.abs(xm - brute).max() <= 1e-8
    assert np.abs(xm - x_matrix_per_entry(freqs, intervals)).max() <= 1e-15
    assert np.array_equal(xm, xm.T)
    if intervals is None:
        assert np.array_equal(xm, np.where(f[:, None] == f[None, :], math.pi / 2.0, 0.0))


@pytest.fixture(scope="module")
def wide_spectrum_n100():
    return build_spectrum(PlateConfig(ell=math.pi / 2, n_modes=100))


@pytest.mark.parametrize("plate", ["reference", "wide"])
def test_mass_matrix_vs_per_column_oracle_n100(plate, spectrum_n100, wide_spectrum_n100):
    # exact-angle trig tables, the upper-triangle contraction and the summed
    # x integrals against the per-column loop and the per-entry x integrals
    spec = spectrum_n100 if plate == "reference" else wide_spectrum_n100
    cfg = spec.config
    ws = dict(default_study_weights(cfg, spec))
    ws["pbar10"] = make_pbar_j(10, cfg)
    assert len(ws["pbar10"].variant.x_intervals) == 10
    assert isinstance(ws["ptilde"].variant, Cross)
    for label, w in ws.items():
        for parity in ("even", "odd"):
            got = assemble_mass(w, spec, parity, 100)
            want = mass_matrix_by_columns(w, spec, parity, 100)
            err = np.abs(got - want).max() / np.abs(want).max()
            assert err <= 1e-13, (label, parity, err)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="np.longdouble carries no extra precision here")
def test_cell_trig_tables_vs_long_double(spectrum_n100):
    # cos(k x_i) and sin(m x_i) at nx = 600 for k = 0..200 and m = 1..100;
    # evaluating np.cos(k * x_i) in double is off by up to 1.6e-13 here
    nx = 600
    basis = grid_basis(spectrum_n100, 100, nx, 31)
    k = np.arange(basis.cos_table.shape[1], dtype=np.longdouble)
    m = np.array([p.mode.m for p in spectrum_n100.mu[:100]], dtype=np.longdouble)
    assert k.size == 201 and m.max() == 100
    pi = 4 * np.arctan(np.longdouble(1))
    x = (2 * np.arange(nx, dtype=np.longdouble) + 1) * pi / (2 * nx)
    assert np.abs(basis.cos_table - np.cos(np.multiply.outer(x, k))).max() <= 2e-15
    assert np.abs(basis.parity("even").sines - np.sin(np.multiply.outer(m, x))).max() <= 2e-15


@pytest.mark.parametrize("nx", [16383, 20000])
def test_cell_trig_index_width(nx):
    # (2 nx - 1)(4 nx - 1) + 3 nx passes 2^31 between the two grids, where the
    # index widens to int64; np.cos(f x) of angles up to 2.5e5 is good to ~1e-10
    freqs = np.array([0, 1, 5, 4 * nx - 1])
    x = (np.arange(nx) + 0.5) * (math.pi / nx)
    assert np.abs(_cell_trig(nx, freqs) - np.cos(np.outer(x, freqs))).max() <= 1e-9
    assert np.abs(_cell_trig(nx, freqs, 3 * nx) - np.sin(np.outer(x, freqs))).max() <= 1e-9


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_uniform_solve_echoes_spectrum(ref_cfg, ref_spectrum):
    gs = solve_weighted(make_uniform(ref_cfg), ref_spectrum)
    mu1 = np.array([p.lam for p in ref_spectrum.mu])
    nu1 = np.array([p.lam for p in ref_spectrum.nu])
    assert np.abs(gs.mu_p / mu1 - 1.0).max() < 1e-10
    assert np.abs(gs.nu_p / nu1 - 1.0).max() < 1e-10


def test_weight_declared_on_another_plate_is_refused(ref_cfg, ref_spectrum):
    # the assembly lays a grid weight's cells and a band weight's bands on the
    # spectrum's plate; declared at 2 ell, a uniform grid weight used to give
    # mu_1 = 0.48 and half-width y-bands mu_1 = 0.64, against 0.96, with no error
    wide = 2.0 * ref_cfg.ell
    grid = Sublevel(GridField(np.zeros((600, 31)), wide), 0.0, 1.0, 1.0)
    bands = YBands(((-0.5 * wide, 0.5 * wide),), ref_cfg.beta, ref_cfg.alpha, wide)
    for v in (grid, bands):
        w = Weight(v, ref_cfg.alpha, ref_cfg.beta)
        with pytest.raises(ValueError, match="declared ell"):
            solve_weighted(w, ref_spectrum)
    # within validate's 1e-9 relative tolerance the weight is on the plate
    mu_1 = [solve_weighted(Weight(Sublevel(GridField(np.zeros((600, 31)), ell), 0.0, 1.0, 1.0),
                                  ref_cfg.alpha, ref_cfg.beta), ref_spectrum, n=4).mu_p[0]
            for ell in (ref_cfg.ell, ref_cfg.ell * (1.0 + 1e-10))]
    assert mu_1[1] == pytest.approx(mu_1[0], rel=1e-9)


def test_banded_weight_reference_values(ref_cfg, ref_spectrum):
    gs = solve_weighted(make_pbar_j(10, ref_cfg), ref_spectrum)
    assert sig3(gs.mu_p[9]) == "7.28e+03"
    assert sig3(gs.nu_p[0]) == "1.09e+04"
    gs = solve_weighted(make_breve_p(ref_cfg), ref_spectrum)
    assert sig3(gs.nu_p[0]) == "1.75e+04"
    assert sig3(gs.mu_p[9]) == "9.62e+03"


def test_coefficients_weighted_orthonormal(ref_cfg, ref_spectrum):
    w = make_pbar_j(10, ref_cfg)
    c = assemble_mass(w, ref_spectrum, "even", 30)
    _, a, mass = solve_parity(w, ref_spectrum, "even", 30)
    assert np.array_equal(mass, c)
    gram = a.T @ c @ a
    assert np.abs(gram - np.eye(30)).max() < 1e-8


def test_stability_inequality_random_bands(ref_cfg, ref_spectrum):
    rng = np.random.default_rng(17)
    mu1 = np.array([p.lam for p in ref_spectrum.mu[:12]])
    nu1 = np.array([p.lam for p in ref_spectrum.nu[:12]])
    for _ in range(10):
        w = random_band_weight(rng, ref_cfg)
        gs = solve_weighted(w, ref_spectrum, 12)
        for lam_p, lam_1 in ((gs.mu_p, mu1), (gs.nu_p, nu1)):
            assert np.all(lam_p >= lam_1 / ref_cfg.beta * (1 - 1e-9))
            assert np.all(lam_p <= lam_1 / ref_cfg.alpha * (1 + 1e-9))


def test_truncation_monotone(ref_cfg, ref_spectrum):
    w = make_pbar_j(10, ref_cfg)
    lo = solve_weighted(w, ref_spectrum, 20)
    hi = solve_weighted(w, ref_spectrum, 30)
    assert np.all(lo.mu_p >= hi.mu_p[:20] * (1 - 1e-9))
    assert np.all(lo.nu_p >= hi.nu_p[:20] * (1 - 1e-9))


@pytest.mark.parametrize("n", [30, 100])
def test_values_only_solve_matches_eigenvector_solve(n):
    # solve_weighted's values-only eigensolve reaches the eigenvalues by
    # another LAPACK path than solve_parity's; they differ in the last bits
    # only (3.5e-11 relative at most, on the largest lambda at n = 100)
    cfg = PlateConfig(n_modes=n)
    spec = build_spectrum(cfg)
    ws = [w for _, w in default_study_weights(cfg, spec)]
    ws.append(random_grid_weight(np.random.default_rng(n), cfg, shape=(600, 31)))
    for w in ws:
        gs = solve_weighted(w, spec)
        assert gs.truncation == n
        for parity, lam in (("even", gs.mu_p), ("odd", gs.nu_p)):
            want = solve_parity(w, spec, parity, n)[0]
            assert lam.shape == want.shape == (n,)
            assert np.abs(lam / want - 1.0).max() <= 1e-10


def test_solve_weighted_computes_no_eigenvectors(ref_cfg, ref_spectrum, monkeypatch):
    from plate_spectra import galerkin
    asked = []

    def recorded(matrix, vectors=True):
        asked.append(vectors)
        return sym_eig(matrix, vectors)

    monkeypatch.setattr(galerkin, "sym_eig", recorded)
    solve_weighted(make_pbar_j(10, ref_cfg), ref_spectrum)
    assert asked == [False, False]
    solve_parity(make_pbar_j(10, ref_cfg), ref_spectrum, "odd", 30)
    assert asked == [False, False, True]


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_single_mode(ref_cfg, ref_spectrum):
    fld = reconstruct(make_uniform(ref_cfg), ref_spectrum, ("even", 1), (150, 31))
    direct = eval_eigenfunction(ref_spectrum.mu[0], fld.xs[:, None], fld.ys[None, :])
    assert np.abs(fld.values - direct).max() < 1e-10


def test_reconstruct_parity(ref_cfg, ref_spectrum):
    w = make_pbar_j(10, ref_cfg)
    odd = reconstruct(w, ref_spectrum, ("odd", 3), (100, 31))
    assert odd.parity == "odd"
    assert np.abs(odd.values + odd.values[:, ::-1]).max() < 1e-10
    even = reconstruct(w, ref_spectrum, ("even", 4), (100, 31))
    assert np.abs(even.values - even.values[:, ::-1]).max() < 1e-10


def test_reconstruct_is_expand_field_of_solve_parity(ref_cfg, ref_spectrum):
    w = random_grid_weight(np.random.default_rng(8), ref_cfg, shape=(120, 15))
    for parity, index in (("even", 1), ("odd", 3), ("even", 30)):
        coeffs = solve_parity(w, ref_spectrum, parity, 30)[1][:, index - 1]
        want = expand_field(ref_spectrum, parity, coeffs, (100, 31))
        got = reconstruct(w, ref_spectrum, (parity, index), (100, 31))
        assert got.parity == want.parity == parity
        assert got.values.tobytes() == want.values.tobytes()
    for index in (0, 31):
        with pytest.raises(ValueError, match="outside 1..30"):
            reconstruct(w, ref_spectrum, ("even", index))


def test_reconstructed_weighted_norm(ref_cfg, ref_spectrum):
    w = make_pbar_j(10, ref_cfg)
    a = solve_parity(w, ref_spectrum, "even", 30)[1]
    pairs = list(ref_spectrum.mu[:30])
    val = weighted_l2_sq(pairs, a[:, 9], w, ref_cfg)
    assert abs(val - 1.0) < 1e-6


def test_rayleigh_quotient_of_reconstruction(ref_cfg, ref_spectrum):
    w = make_pbar_j(10, ref_cfg)
    mu_p, a, _ = solve_parity(w, ref_spectrum, "even", 30)
    pairs = list(ref_spectrum.mu[:30])
    for idx in (0, 9):
        coeffs = a[:, idx]
        quotient = h2_energy(pairs, coeffs, ref_cfg) / weighted_l2_sq(
            pairs, coeffs, w, ref_cfg)
        assert abs(quotient - mu_p[idx]) <= 1e-4 * mu_p[idx]


def test_sublevel_weighted_norm_is_mass_form(ref_cfg, ref_spectrum):
    # the grid expansion and the cosine-moment assembly are two routes to the
    # same midpoint sum a^T C a
    rng = np.random.default_rng(21)
    w = random_grid_weight(rng, ref_cfg, shape=(300, 31))
    pairs = list(ref_spectrum.mu[:30])
    c = assemble_mass(w, ref_spectrum, "even", 30)
    for _ in range(3):
        a = rng.normal(size=30)
        val = weighted_l2_sq(pairs, a, w, ref_cfg)
        assert abs(val - a @ c @ a) <= 1e-12 * abs(a @ c @ a)


def test_expand_field_grid(ref_cfg, ref_spectrum):
    coeffs = np.zeros(5)
    coeffs[2] = 1.0
    fld = expand_field(ref_spectrum, "even", coeffs, (80, 31))
    direct = eval_eigenfunction(ref_spectrum.mu[2], fld.xs[:, None], fld.ys[None, :])
    assert np.abs(fld.values - direct).max() < 1e-12
    # every mode at once, against a per-cell sum of the eigenfunctions
    for parity, pairs in (("even", ref_spectrum.mu[:30]), ("odd", ref_spectrum.nu[:30])):
        coeffs = np.random.default_rng(8).normal(size=30)
        fld = expand_field(ref_spectrum, parity, coeffs, (240, 31))
        x, y = fld.xs[:, None], fld.ys[None, :]
        direct = sum(a * eval_eigenfunction(p, x, y) for a, p in zip(coeffs, pairs))
        assert np.abs(fld.values - direct).max() <= 1e-12 * np.abs(direct).max()


# ---------------------------------------------------------------------------
# grid tables
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def spectrum_n100():
    return build_spectrum(PlateConfig(n_modes=100))


@pytest.fixture(scope="module")
def narrow_spectrum_n100():
    # at n = 100 the longitudinal modes reach m = 64, the torsional m = 78
    return build_spectrum(PlateConfig(ell=0.05, n_modes=100))


def _own_tables_mass(w, spec, parity, n):
    """Upper triangle of the sublevel mass matrix from tables built for this
    parity alone: the cosine table has its own 2 max m + 1 columns."""
    f = w.variant.field
    pairs = (spec.mu if parity == "even" else spec.nu)[:n]
    m = np.array([p.mode.m for p in pairs])
    rows, cols = np.triu_indices(n)
    cos = _cell_trig(f.nx, np.arange(2 * m.max() + 1))
    mom = cos.T @ ((0.5 * f.cell_area) * w.variant.node_values())
    gather = rows, cols, np.abs(m[rows] - m[cols]), m[rows] + m[cols]
    return _contract(mom, _profiles_on(pairs, f.ys), gather)


@pytest.mark.parametrize("grid", [(600, 31), (2400, 31)])
@pytest.mark.parametrize("n", [12, 30, 100])
def test_grid_basis_results_bitwise_equal(narrow_spectrum_n100, n, grid):
    # both parities read one cosine table sized for the larger 2 max m + 1;
    # assembly and expansion match tables built for each call and parity alone
    spec = narrow_spectrum_n100
    rng = np.random.default_rng(n + grid[0])
    w = random_grid_weight(rng, spec.config, shape=grid)
    for parity in ("odd", "even"):
        rows, cols = np.triu_indices(n)
        assert np.array_equal(assemble_mass(w, spec, parity, n)[rows, cols],
                              _own_tables_mass(w, spec, parity, n))
        pairs = (spec.mu if parity == "even" else spec.nu)[:n]
        m = np.array([p.mode.m for p in pairs])
        coeffs = rng.normal(size=n)
        want = ((coeffs[:, None] * _cell_trig(grid[0], m, 3 * grid[0]).T).T
                @ _profiles_on(pairs, w.variant.field.ys))
        assert np.array_equal(expand_field(spec, parity, coeffs, grid).values, want)
    k = [2 * max(p.mode.m for p in pairs) + 1 for pairs in (spec.mu[:n], spec.nu[:n])]
    assert grid_basis(spec, n, *grid).cos_table.shape == (grid[0], max(k))
    if n == 100:
        assert k == [129, 157]


def test_grid_tables_built_once_and_only_when_read(ref_cfg, monkeypatch):
    # assembly reads the cosine table (shift 0) and the profiles, expansion the
    # sines (shift 3 nx) and the profiles; both parities share the cosine
    # table, and the spectrum keeps the tables of the grid it was last read on
    from plate_spectra import galerkin
    shifts, profiled = [], []
    trig, profiles_on = galerkin._cell_trig, galerkin._profiles_on

    def counted_trig(nx, freqs, shift=0):
        shifts.append(shift)
        return trig(nx, freqs, shift)

    def counted_profiles(pairs, y):
        profiled.append(y.size)
        return profiles_on(pairs, y)

    def built():
        got = (shifts[:], profiled[:])
        shifts.clear(), profiled.clear()
        return got

    monkeypatch.setattr(galerkin, "_cell_trig", counted_trig)
    monkeypatch.setattr(galerkin, "_profiles_on", counted_profiles)
    spec = build_spectrum(ref_cfg)
    grid = (120, 15)
    w = random_grid_weight(np.random.default_rng(6), ref_cfg, shape=grid)
    first = solve_weighted(w, spec, 12)
    assert built() == ([0], [15, 15])
    second = solve_weighted(w, spec, 12)
    coeffs = [solve_parity(w, spec, "even", 12)[1] for _ in range(2)]
    assert built() == ([], [])
    assert np.array_equal(first.mu_p, second.mu_p) and np.array_equal(first.nu_p, second.nu_p)
    assert np.array_equal(*coeffs)
    expand_field(spec, "odd", np.ones(12), grid)
    assert built() == ([3 * 120], [])
    # another grid replaces the memo's one entry
    expand_field(spec, "odd", np.ones(12), (60, 3))
    assert built() == ([3 * 60], [3])
    assert list(spec.grid_tables) == [(12, 60, 3)]
    solve_weighted(w, spec, 12)
    assert built() == ([0], [15, 15])
    assert list(spec.grid_tables) == [(12, *grid)]


# ---------------------------------------------------------------------------
# per-spectrum plate tables and the work solve_weighted shares between parities
# ---------------------------------------------------------------------------

def _one_weight_per_family(cfg):
    """A weight of each random family of the weighted-solve benchmark: x-bands,
    y-bands (a mirrored pair around a central band), cross and a 600x31
    sublevel weight."""
    ell = cfg.ell
    return [
        Weight(XBands(((0.2, 0.9), (1.4, 1.7), (2.3, 3.0)), 1.3, 0.6), cfg.alpha, cfg.beta),
        Weight(YBands(((-0.9 * ell, -0.6 * ell), (-0.3 * ell, 0.3 * ell), (0.6 * ell, 0.9 * ell)),
                      1.4, 0.7, ell), cfg.alpha, cfg.beta),
        Weight(Cross(((0.4, 1.1), (2.0, 2.5)), ((-0.2 * ell, 0.2 * ell),), cfg.beta, cfg.alpha,
                     ell), cfg.alpha, cfg.beta),
        random_grid_weight(np.random.default_rng(11), cfg, shape=(600, 31)),
    ]


def _single_parity_eigs(w, spec, parity, n):
    """One parity's weighted eigenvalues from assemble_mass alone, sharing no
    work with the other parity, and a values-only sym_eig."""
    pairs = (spec.mu if parity == "even" else spec.nu)[:n]
    d_isqrt = 1.0 / np.sqrt(np.array([p.lam for p in pairs]))
    c = assemble_mass(w, spec, parity, n)
    return 1.0 / sym_eig(d_isqrt[:, None] * c * d_isqrt[None, :], vectors=False)[0][::-1]


@pytest.mark.parametrize("ell, n, ks, same_m", [
    (math.pi / 150, 30, [61, 61], True), (math.pi / 150, 100, [201, 201], True),
    (math.pi / 2, 30, [17, 17], False),      # the m lists differ, K is shared
    (math.pi / 2, 100, [31, 33], False)],    # both differ: each parity its own moments
    ids=["ref-30", "ref-100", "wide-30", "wide-100"])
def test_solve_weighted_equals_independent_parity_solves(ell, n, ks, same_m):
    # solve_weighted does a weight's parity-independent work once for both
    # parities; its eigenvalues are those of two solves that share nothing,
    # each on a spectrum of its own, bit for bit
    cfg = PlateConfig(ell=ell, n_modes=n)
    spec = build_spectrum(cfg)
    m = [[p.mode.m for p in pairs] for pairs in (spec.mu, spec.nu)]
    assert [2 * max(ms) + 1 for ms in m] == ks and (m[0] == m[1]) == same_m
    own = {parity: build_spectrum(cfg) for parity in ("even", "odd")}
    for label, w in default_study_weights(cfg, spec) + [
            (type(w.variant).__name__, w) for w in _one_weight_per_family(cfg)]:
        gs = solve_weighted(w, spec, n)
        assert np.array_equal(gs.mu_p, _single_parity_eigs(w, own["even"], "even", n)), label
        assert np.array_equal(gs.nu_p, _single_parity_eigs(w, own["odd"], "odd", n)), label


def test_plate_tables_built_once_per_parity_and_n(ref_cfg, monkeypatch):
    # the band path's default y rule, its profiles and Gram matrix are built
    # once per (spectrum, parity, n), whatever grid the grid tables were last
    # read on, and never for a sublevel weight; solve_weighted forms each x
    # matrix and a sublevel weight's cell weights once for both parities
    from plate_spectra import galerkin
    rules, x_mats, nodes = [], [], []
    y_rule, x_matrix, node_values = galerkin._y_rule, galerkin._x_matrix, Sublevel.node_values

    def counted_rule(pairs, cfg, breakpoints):
        rules.append((pairs[0].mode.parity, len(pairs), tuple(breakpoints)))
        return y_rule(pairs, cfg, breakpoints)

    def counted_x(freqs, intervals):
        x_mats.append(intervals)
        return x_matrix(freqs, intervals)

    def counted_nodes(self):
        nodes.append(self)
        return node_values(self)

    def built():
        got = (sorted(rules), len(x_mats), len(nodes))
        rules.clear(), x_mats.clear(), nodes.clear()
        return got

    monkeypatch.setattr(galerkin, "_y_rule", counted_rule)
    monkeypatch.setattr(galerkin, "_x_matrix", counted_x)
    monkeypatch.setattr(Sublevel, "node_values", counted_nodes)
    spec = build_spectrum(ref_cfg)
    grid_w = random_grid_weight(np.random.default_rng(6), ref_cfg, shape=(120, 15))
    solve_weighted(grid_w, spec, 12)
    solve_parity(grid_w, spec, "odd", 12)
    assert built() == ([], 0, 2)
    uniform, pbar, pdoublebar = (make_uniform(ref_cfg), make_pbar_j(10, ref_cfg),
                                 make_doublebar_p(ref_cfg))
    solve_weighted(uniform, spec, 12)
    assert built() == ([("even", 12, ()), ("odd", 12, ())], 1, 0)
    solve_weighted(pbar, spec, 12)
    solve_weighted(pdoublebar, spec, 12)
    solve_parity(pbar, spec, "even", 12)
    assert built() == ([], 2 + 2 + 2, 0)
    # another grid replaces the grid tables, not the plate tables
    expand_field(spec, "odd", np.ones(12), (60, 3))
    solve_weighted(grid_w, spec, 12)
    solve_weighted(uniform, spec, 12)
    assert built() == ([], 1, 1)
    assert list(spec.grid_tables) == [(12, 120, 15)]
    # a y-band weight builds a rule with its band edges on every assembly
    solve_weighted(make_breve_p(ref_cfg), spec, 12)
    rules_got, _, _ = built()
    assert [parity for parity, _, _ in rules_got] == ["even", "odd"]
    assert all(n == 12 and edges for _, n, edges in rules_got)
    solve_weighted(uniform, spec, 20)
    assert built() == ([("even", 20, ()), ("odd", 20, ())], 1, 0)
    assert sorted(spec.plate_tables) == [("even", 12), ("even", 20), ("odd", 12), ("odd", 20)]


# ---------------------------------------------------------------------------
# asymptotic diagnostic
# ---------------------------------------------------------------------------

def test_sqrt_mass_uniform(ref_cfg):
    s = sqrt_mass_integral(make_uniform(ref_cfg), ref_cfg)
    assert s ** 2 == pytest.approx(ref_cfg.area ** 2, rel=1e-14)


def test_weyl_window_and_relabeling():
    cfg = PlateConfig(ell=math.pi / 2, n_modes=60)
    spec = build_spectrum(cfg)
    merged = merged_eigenvalues(spec)
    assert merged.size >= 80
    assert np.all(np.diff(merged) >= 0)
    rep = weyl_diagnostic(make_uniform(cfg), merged, (40, 80), cfg)
    assert rep.h[0] == 40 and rep.h[-1] == 80
    # sorting makes the ratios invariant under any relabeling within ties
    rep2 = weyl_diagnostic(make_uniform(cfg), np.sort(merged), (40, 80), cfg)
    assert np.array_equal(rep.ratio, rep2.ratio)


def test_weyl_window_validation(ref_cfg, ref_spectrum):
    merged = merged_eigenvalues(ref_spectrum)
    with pytest.raises(ValueError):
        weyl_diagnostic(make_uniform(ref_cfg), merged, (10, 10 ** 6), ref_cfg)
