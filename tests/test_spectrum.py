import math

import numpy as np
import pytest

from oracles import bisect_roots, h2_energy, integrate_2d, normalization
from plate_spectra import PlateConfig
from plate_spectra import spectrum
from plate_spectra.numerics import Bracket, NonFinite, QuadratureRule, find_root, find_roots
from plate_spectra.spectrum import (C0Violated, BranchMismatch, Mode, NotAdmissible,
                                    build_spectrum, characteristic_det, check_c0,
                                    eval_eigenfunction, find_hom_eigenvalue, profile_values,
                                    torsional_first_exists)

REF_MU = ["9.60e-01", "1.54e+01", "7.78e+01", "2.46e+02", "6.00e+02", "1.24e+03",
          "2.31e+03", "3.93e+03", "6.30e+03", "9.61e+03", "1.41e+04", "1.99e+04"]
REF_NU = ["1.09e+04", "4.38e+04", "9.86e+04", "1.75e+05", "2.74e+05", "3.95e+05",
          "5.38e+05", "7.04e+05", "8.93e+05", "1.10e+06", "1.34e+06", "1.60e+06"]


def sig3(x: float) -> str:
    return f"{x:.2e}"


# ---------------------------------------------------------------------------
# characteristic determinant
# ---------------------------------------------------------------------------

def test_det_sign_change_first_branch(ref_cfg):
    m = 1
    lo = (1 - ref_cfg.sigma ** 2) * m ** 4
    hi = float(m ** 4)
    delta = (hi - lo) * 1e-6
    d_lo = characteristic_det(lo + delta, m, "even-low", ref_cfg)
    d_hi = characteristic_det(hi - delta, m, "even-low", ref_cfg)
    assert d_lo * d_hi < 0


def test_det_vanishes_at_root(ref_cfg):
    pair = find_hom_eigenvalue(Mode(1, 1, "even"), ref_cfg)
    lo = (1 - ref_cfg.sigma ** 2) * 1.0
    scale = max(abs(characteristic_det(lo * (1 + 1e-6), 1, "even-low", ref_cfg)),
                abs(characteristic_det(1.0 - 1e-6, 1, "even-low", ref_cfg)))
    assert abs(characteristic_det(pair.lam, 1, "even-low", ref_cfg)) <= 1e-10 * scale


def test_det_sign_change_higher_branch(ref_cfg):
    # bracket of the (m, k) = (1, 2) longitudinal eigenvalue
    om = (math.pi / ref_cfg.ell) ** 2
    lo = (1 + om * 0.25) ** 2
    hi = (1 + om) ** 2
    d_lo = characteristic_det(lo * (1 + 1e-9), 1, "even-high", ref_cfg)
    d_hi = characteristic_det(hi * (1 - 1e-9), 1, "even-high", ref_cfg)
    assert d_lo * d_hi < 0


def test_det_branch_mismatch(ref_cfg):
    with pytest.raises(BranchMismatch):
        characteristic_det(2.0, 1, "even-low", ref_cfg)
    with pytest.raises(BranchMismatch):
        characteristic_det(0.5, 1, "even-high", ref_cfg)


@pytest.mark.parametrize("call", [
    lambda cfg: find_hom_eigenvalue(Mode(1.5, 1, "even"), cfg),
    lambda cfg: Mode(1, 2.0, "odd"),
    lambda cfg: Mode(0, 1, "even"),
    lambda cfg: characteristic_det(1.0, 0, "odd", cfg),
    lambda cfg: characteristic_det(2.0, -1, "even-high", cfg),
    lambda cfg: torsional_first_exists(2734.5, cfg),
    # operator.index reads True as 1, so a bool used to pass as m = 1
    lambda cfg: Mode(True, 2, "odd"),
    lambda cfg: Mode(2, np.True_, "even"),
    lambda cfg: characteristic_det(1.0, True, "even-low", cfg),
    lambda cfg: torsional_first_exists(np.True_, cfg),
], ids=["mode_float_m", "mode_float_k", "mode_zero_m", "det_zero_m", "det_negative_m",
        "exists_float_m", "mode_bool_m", "mode_numpy_bool_k", "det_bool_m",
        "exists_numpy_bool_m"])
def test_mode_numbers_must_be_positive_integers(call, ref_cfg):
    with pytest.raises(ValueError, match="^mode numbers must be integers >= 1, got m="):
        call(ref_cfg)


def test_numpy_integer_mode_numbers(ref_cfg):
    m, k = np.int64(10), np.int32(1)
    assert find_hom_eigenvalue(Mode(m, k, "even"), ref_cfg) == \
        find_hom_eigenvalue(Mode(10, 1, "even"), ref_cfg)
    assert characteristic_det(9000.0, m, "even-low", ref_cfg) == \
        characteristic_det(9000.0, 10, "even-low", ref_cfg)
    assert torsional_first_exists(np.int64(2735), ref_cfg)
    # a Mode stores plain ints: numpy scalars used to be kept, and printed as
    # np.int64(10) in the "nearly coincident" warnings
    mode = Mode(m, np.int32(3), "odd")
    assert type(mode.m) is int and type(mode.k) is int
    assert repr(mode) == "Mode(m=10, k=3, parity='odd')"
    assert mode == Mode(10, 3, "odd") and hash(mode) == hash(Mode(10, 3, "odd"))


# ---------------------------------------------------------------------------
# single eigenvalues
# ---------------------------------------------------------------------------

def test_reference_eigenvalues(ref_cfg):
    assert sig3(find_hom_eigenvalue(Mode(1, 1, "even"), ref_cfg).lam) == "9.60e-01"
    assert sig3(find_hom_eigenvalue(Mode(10, 1, "even"), ref_cfg).lam) == "9.61e+03"
    assert sig3(find_hom_eigenvalue(Mode(1, 2, "odd"), ref_cfg).lam) == "1.09e+04"


def test_first_torsional_not_admissible(ref_cfg):
    with pytest.raises(NotAdmissible):
        find_hom_eigenvalue(Mode(1, 1, "odd"), ref_cfg)


def test_torsional_first_exists_threshold(ref_cfg):
    assert not torsional_first_exists(1, ref_cfg)  # x coth(x) ~ 1 << 81
    assert not torsional_first_exists(2734, ref_cfg)
    assert torsional_first_exists(2735, ref_cfg)
    # monotone: once it exists it keeps existing
    for m in (2735, 2736, 2800, 5000):
        assert torsional_first_exists(m, ref_cfg)


def test_first_torsional_bracket_when_it_exists():
    cfg = PlateConfig(ell=math.pi / 2, sigma=0.45, n_modes=2)
    m = 40
    assert torsional_first_exists(m, cfg)
    pair = find_hom_eigenvalue(Mode(m, 1, "odd"), cfg)
    lam_m1 = find_hom_eigenvalue(Mode(m, 1, "even"), cfg).lam
    assert lam_m1 < pair.lam < float(m) ** 4


def test_check_c0(ref_cfg):
    holds, s_star = check_c0(ref_cfg)
    assert holds
    # independent fixed-point oracle in z = sqrt(2) s ell
    z = 80.0
    q = (ref_cfg.sigma / (2 - ref_cfg.sigma)) ** 2
    for _ in range(80):
        z = math.tanh(z) / q
    assert abs(s_star - z / (math.sqrt(2) * ref_cfg.ell)) < 1e-6
    assert math.floor(s_star) == 2734
    # threshold consistency: existence flips at ceil(s*)
    assert not torsional_first_exists(math.floor(s_star), ref_cfg)
    assert torsional_first_exists(math.ceil(s_star), ref_cfg)


def test_check_c0_stable_under_tiny_perturbation(ref_cfg):
    holds0, _ = check_c0(ref_cfg)
    holds1, _ = check_c0(ref_cfg.with_(ell=ref_cfg.ell * (1 + 1e-12)))
    assert holds0 == holds1


def test_c0_violated_raises():
    # place the resonance exactly on an integer by back-solving ell
    sigma = 0.2
    q = (sigma / (2 - sigma)) ** 2
    z = 80.0
    for _ in range(80):
        z = math.tanh(z) / q
    ell = z / (math.sqrt(2) * 2735.0)
    with pytest.raises(C0Violated):
        build_spectrum(PlateConfig(ell=ell, sigma=sigma, n_modes=2))


def test_build_spectrum_calls_no_one_bracket_solve(ref_cfg, monkeypatch):
    # the eigenvalues come from one batched solve and s* from check_c0's fixed
    # point, so a build pays for no one-bracket ITP solve
    def refuse(*args, **kwargs):
        raise AssertionError("build_spectrum called find_root")

    monkeypatch.setattr(spectrum, "find_root", refuse)
    for cfg in (ref_cfg, ref_cfg.with_(n_modes=100)):
        assert len(build_spectrum(cfg).nu) == cfg.n_modes


_C0_SIGMAS = np.concatenate([np.geomspace(1e-4, 0.05, 200, endpoint=False),
                             np.linspace(0.05, 0.4999, 300)])


@pytest.mark.parametrize("ell", [1e-3, math.pi / 150, 1.0, 50.0])
def test_check_c0_root_to_rounding(ell):
    # s* solves tanh(z) = q z, z = sqrt(2) s* ell, to a few ulps of q z, and its
    # verdict and threshold are those of an ITP root of the same equation
    q_all = (_C0_SIGMAS / (2.0 - _C0_SIGMAS)) ** 2
    z_itp = find_roots(lambda z: np.tanh(z) - q_all * z, np.full(q_all.size, 1e-8),
                       2.0 / q_all, tol_rel=1e-14)
    for sigma, z_ref in zip(_C0_SIGMAS.tolist(), z_itp.tolist()):
        holds, s_star = check_c0(PlateConfig(ell=ell, sigma=sigma))
        q = (sigma / (2.0 - sigma)) ** 2
        z = s_star * math.sqrt(2.0) * ell
        assert abs(math.tanh(z) - q * z) <= 6.0 * math.ulp(q * z), (sigma, s_star)
        s_ref = z_ref / (math.sqrt(2.0) * ell)
        assert holds == (abs(s_ref - round(s_ref)) > 1e-9), (sigma, s_star, s_ref)
        assert math.floor(s_star) == math.floor(s_ref), (sigma, s_star, s_ref)


def _threshold_ell(sigma: float, m: int) -> float:
    """ell at which the torsional k = 1 mode of m starts to exist, the ell
    whose s* (check_c0) is m."""
    q = (sigma / (2 - sigma)) ** 2
    z = 1.0 / q
    for _ in range(80):
        z = math.tanh(z) / q
    return z / (math.sqrt(2) * m)


@pytest.mark.parametrize("sigma", [0.05, 0.2, 0.45])
@pytest.mark.parametrize("m", [1, 3, 10])
def test_single_torsional_mode_at_existence_threshold(sigma, m):
    # just above the threshold the odd-low determinant is rounding noise at
    # m^2; s* lies within 1e-9 of the integer m there, so the single-mode
    # API refuses the plate as build_spectrum does instead of failing to
    # isolate the root
    ell0 = _threshold_ell(sigma, m)
    for ell in (ell0 + 1e-9, ell0 * (1 + 1e-13), ell0 * (1 + 1e-15)):
        cfg = PlateConfig(ell=ell, sigma=sigma, n_modes=2)
        try:
            pair = find_hom_eigenvalue(Mode(m, 1, "odd"), cfg)
        except C0Violated:
            continue
        assert find_hom_eigenvalue(Mode(m, 1, "even"), cfg).lam < pair.lam < float(m) ** 4


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------

def test_eigenfunction_parity_and_hinged_edge(ref_spectrum):
    ys = np.linspace(-ref_spectrum.config.ell, ref_spectrum.config.ell, 41)
    even = ref_spectrum.mu[2]
    odd = ref_spectrum.nu[1]
    assert np.max(np.abs(eval_eigenfunction(even, 1.0, ys)
                         - eval_eigenfunction(even, 1.0, -ys))) < 1e-12
    assert np.max(np.abs(eval_eigenfunction(odd, 1.0, ys)
                         + eval_eigenfunction(odd, 1.0, -ys))) < 1e-12
    assert eval_eigenfunction(even, 0.0, 0.001) == 0.0
    assert eval_eigenfunction(odd, math.pi, 0.001) == pytest.approx(0.0, abs=1e-12)


def test_eigenfunction_normalization(ref_cfg, ref_spectrum):
    rx = QuadratureRule(0.0, math.pi, order=24)
    for pair in (ref_spectrum.mu[0], ref_spectrum.mu[7], ref_spectrum.nu[0],
                 ref_spectrum.nu[5]):
        order = max(24, int(2 * pair.c * ref_cfg.ell) + 16)
        ry = QuadratureRule(-ref_cfg.ell, ref_cfg.ell, order=order)
        val = integrate_2d(lambda x, y: eval_eigenfunction(pair, x, y) ** 2, rx, ry)
        assert abs(val - 1.0) < 1e-8


def test_normalization_high_k_mode():
    cfg = PlateConfig(ell=math.pi / 2, n_modes=2)
    pair = find_hom_eigenvalue(Mode(2, 4, "even"), cfg)
    rx = QuadratureRule(0.0, math.pi, order=24)
    ry = QuadratureRule(-cfg.ell, cfg.ell, order=max(24, int(2 * pair.c * cfg.ell) + 16))
    val = integrate_2d(lambda x, y: eval_eigenfunction(pair, x, y) ** 2, rx, ry)
    assert abs(val - 1.0) < 1e-8


def test_rayleigh_quotient_consistency(ref_cfg, ref_spectrum):
    # the plate quadratic form over the L2 norm must reproduce the eigenvalue
    for pair in (ref_spectrum.mu[0], ref_spectrum.mu[9], ref_spectrum.nu[0]):
        energy = h2_energy([pair], np.array([1.0]), ref_cfg)
        assert abs(energy - pair.lam) <= 1e-5 * pair.lam


# ---------------------------------------------------------------------------
# full spectrum
# ---------------------------------------------------------------------------

def test_spectrum_matches_reference_table(ref_spectrum):
    assert [sig3(p.lam) for p in ref_spectrum.mu[:12]] == REF_MU
    assert [sig3(p.lam) for p in ref_spectrum.nu[:12]] == REF_NU


def test_spectrum_j0_and_mode_labels(ref_spectrum):
    assert ref_spectrum.j0 == 10
    assert ref_spectrum.nu[0].mode == Mode(1, 2, "odd")
    assert ref_spectrum.mu[0].lam < ref_spectrum.nu[0].lam
    mu = [p.lam for p in ref_spectrum.mu]
    nu = [p.lam for p in ref_spectrum.nu]
    assert mu == sorted(mu) and nu == sorted(nu)


def test_spectrum_bracket_containment(ref_spectrum):
    om = (math.pi / ref_spectrum.config.ell) ** 2
    sig = ref_spectrum.config.sigma
    for p in ref_spectrum.mu:
        m, k = p.mode.m, p.mode.k
        if k == 1:
            assert (1 - sig ** 2) * m ** 4 < p.lam < m ** 4
        else:
            assert (m * m + om * (k - 1.5) ** 2) ** 2 < p.lam < (m * m + om * (k - 1) ** 2) ** 2
    for p in ref_spectrum.nu:
        assert p.mode.k >= 2 and p.lam > p.mode.m ** 4


def test_scan_window_completeness(ref_cfg, ref_spectrum):
    wider = build_spectrum(ref_cfg.with_(n_modes=40))
    assert [p.lam for p in wider.mu[:30]] == [p.lam for p in ref_spectrum.mu]
    assert [p.lam for p in wider.nu[:30]] == [p.lam for p in ref_spectrum.nu]


@pytest.mark.parametrize("vals", [[-1.0, 0.0, 1.0, 2.0], [1.0, 0.0, -1.0, -2.0]])
def test_scan_zero_ends_one_bracket(ref_cfg, vals):
    # a simple crossing through a grid zero is one sign change, bracketed with
    # the zero as an end, and both root finders return that end exactly
    s = np.array([[10.0, 11.0, 12.0, 13.0]])
    row, lo, hi = spectrum._hits(s, np.array([vals]))
    assert row.tolist() == [0] and 11.0 in (lo[0], hi[0])
    det = lambda x, m, sigma, ell: np.interp(x, s[0], vals)
    assert spectrum._solve([(det, row + 1, lo, hi)], ref_cfg)[0].tolist() == [11.0]
    assert find_root(lambda x: det(x, 1, 0.0, 0.0), Bracket(lo[0], hi[0])) == 11.0


def test_spectrum_mixed_branch_ordering():
    # wide plate: k >= 2 modes interleave with k = 1 modes
    cfg = PlateConfig(ell=math.pi / 2, n_modes=15)
    spec = build_spectrum(cfg)
    assert any(p.mode.k >= 2 for p in spec.mu)
    assert all(a.lam <= b.lam for a, b in zip(spec.mu, spec.mu[1:]))


def test_profile_values_match_eval(ref_spectrum):
    pair = ref_spectrum.nu[0]
    ys = np.linspace(-pair.ell, pair.ell, 11)
    direct = eval_eigenfunction(pair, 0.5, ys)
    assert np.allclose(direct, profile_values(pair, ys) * math.sin(pair.mode.m * 0.5),
                       rtol=0, atol=1e-14)


# eval_eigenfunction(pair, 0.7, y) at y = 0, 0.3 ell, ell, -ell on the wide plate,
# as the per-mode profile evaluation gave them, for the first mode of each kind,
# at the eigenvalues pinned in _SCALAR_LAMS (so a change of root finder, which
# moves lam within its tolerance, does not move these values)
_SCALAR_EVALS = {
    Mode(1, 1, "even"): (0.2669531250566632, 0.2721709594199762,
                         0.3413038880980737, 0.3413038880980737),
    Mode(1, 2, "even"): (-0.37655071737324614, -0.2604957157379193,
                         0.5538378237242352, 0.5538378237242352),
    Mode(6, 1, "odd"): (-0.0, -0.18606280201681435, -0.8401934752883117, 0.8401934752883117),
    Mode(1, 2, "odd"): (0.0, 0.15007490275679775, 0.5118091349379766, -0.5118091349379766),
}
_SCALAR_LAMS = {Mode(1, 1, "even"): 0.8802741602255556, Mode(1, 2, "even"): 12.783085071405855,
                Mode(6, 1, "odd"): 1286.2605345829436, Mode(1, 2, "odd"): 2.2669133917965367}


def test_scalar_eval_eigenfunction_unchanged():
    cfg = PlateConfig(ell=math.pi / 2, sigma=0.45, n_modes=40)
    for mode, expected in _SCALAR_EVALS.items():
        (pair,) = spectrum._make_pairs(np.array([mode.m]), np.array([mode.k]),
                                       np.array([_SCALAR_LAMS[mode]]), mode.parity, cfg)
        assert pair.mode == mode
        for y, want in zip((0.0, 0.3 * cfg.ell, cfg.ell, -cfg.ell), expected):
            got = eval_eigenfunction(pair, 0.7, y)
            assert isinstance(got, np.float64), type(got)
            assert abs(got - want) <= 1e-14 * abs(want), (mode, y, got, want)


def test_wavenumber_identity_high_branch(ref_spectrum):
    # c_bar^2 - c^2 = 2 m^2 above the branch point
    for pair in list(ref_spectrum.nu[:5]) + [p for p in ref_spectrum.mu if p.mode.k >= 2][:2]:
        if pair.high_branch:
            m = pair.mode.m
            assert pair.c_bar ** 2 - pair.c ** 2 == pytest.approx(2 * m * m, rel=1e-12)


def test_spectrum_with_first_torsional_branch():
    # wide plate, large Poisson ratio: below-m^4 torsional modes exist and
    # must appear in the ordered sequence with valid brackets
    cfg = PlateConfig(ell=math.pi / 2, sigma=0.45, n_modes=40)
    spec = build_spectrum(cfg)
    k1 = [p for p in spec.nu if p.mode.k == 1]
    assert k1, "expected below-m^4 torsional modes at these parameters"
    assert k1[0].mode.m == 6  # smallest m satisfying the existence inequality
    for p in k1:
        lam_m1 = find_hom_eigenvalue(Mode(p.mode.m, 1, "even"), cfg).lam
        assert lam_m1 < p.lam < p.mode.m ** 4
    nu = [p.lam for p in spec.nu]
    assert nu == sorted(nu)
    wider = build_spectrum(cfg.with_(n_modes=50))
    assert [p.lam for p in wider.nu[:40]] == nu


@pytest.mark.parametrize("ell, sigma", [(1000.0, 0.2), (1500.0, 0.2), (2000.0, 0.2),
                                        (3000.0, 0.2), (50.0, 0.45)])
def test_wide_plate_spectrum(ell, sigma):
    # on a wide plate the torsional root below m^4 lies within about
    # exp(-2 c ell) of Lambda_(m,1), so a scan that started just above
    # Lambda_(m,1) began above it and found no sign change
    cfg = PlateConfig(ell=ell, sigma=sigma)
    spec = build_spectrum(cfg)
    om = (math.pi / ell) ** 2
    for p in spec.mu + spec.nu:
        m, k = p.mode.m, p.mode.k
        if k == 1:
            assert (1 - sigma ** 2) * m ** 4 < p.lam < m ** 4, p.mode
        elif p.mode.parity == "even":
            assert (m * m + om * (k - 1.5) ** 2) ** 2 < p.lam < (m * m + om * (k - 1) ** 2) ** 2
        else:
            assert p.lam > m ** 4, p.mode
    k1 = [p for p in spec.nu if p.mode.k == 1]
    assert k1
    m = np.array([p.mode.m for p in k1])
    lo, hi = spectrum._low_bracket(m, cfg)
    want = bisect_roots(lambda s: spectrum._det_odd_low(s, m, sigma, ell), lo, hi,
                        tol_rel=1e-13) ** 2
    got = np.array([p.lam for p in k1])
    assert np.all(np.abs(got - want) <= 2e-13 * want)
    lam_m1 = np.array([find_hom_eigenvalue(Mode(p.mode.m, 1, "even"), cfg).lam for p in k1])
    assert np.all(got >= lam_m1 * (1 - 1e-12))


# ---------------------------------------------------------------------------
# batched spectrum against single-mode location
# ---------------------------------------------------------------------------

def _l1_plates():
    rng = np.random.default_rng(314)
    plates = [PlateConfig(n_modes=30),  # torsional k = 1 threshold at m = 2734/2735
              PlateConfig(ell=math.pi / 2, sigma=0.45, n_modes=30)]
    for _ in range(10):
        plates.append(PlateConfig(ell=float(rng.uniform(math.pi / 300, math.pi / 2)),
                                  sigma=float(rng.uniform(0.05, 0.45)), n_modes=30))
    return plates


def _straddles_root(pair, cfg, rel=1e-10):
    m, k = pair.mode.m, pair.mode.k
    branch = "odd" if pair.mode.parity == "odd" else "even-low" if k == 1 else "even-high"
    below = characteristic_det(pair.lam * (1.0 - rel), m, branch, cfg)
    above = characteristic_det(pair.lam * (1.0 + rel), m, branch, cfg)
    return (below < 0.0) != (above < 0.0)


@pytest.mark.parametrize("cfg", _l1_plates(), ids=lambda c: f"ell={c.ell:.4f},sigma={c.sigma:.3f}")
def test_build_spectrum_matches_single_mode_location(cfg):
    spec = build_spectrum(cfg)
    for pair in spec.mu + spec.nu:
        single = find_hom_eigenvalue(pair.mode, cfg)
        assert abs(single.lam - pair.lam) <= 1e-12 * pair.lam, pair.mode
        assert abs(single.norm_const - pair.norm_const) <= 1e-12 * pair.norm_const
        assert _straddles_root(pair, cfg), pair.mode


def _solve_with(monkeypatch, solver, cfg):
    """build_spectrum(cfg) with solver in place of find_roots, and the number
    of f calls of each batched solve."""
    calls = []

    def counted(f, lo, hi, tol_rel):
        n = len(calls)
        calls.append(0)

        def g(s):
            calls[n] += 1
            return f(s)

        return solver(g, lo, hi, tol_rel=tol_rel)

    monkeypatch.setattr(spectrum, "find_roots", counted)
    return build_spectrum(cfg, cap=cfg.n_modes), calls


@pytest.mark.parametrize("cfg", [PlateConfig(n_modes=30), PlateConfig(n_modes=100),
                                 PlateConfig(ell=math.pi / 2, n_modes=250),  # criterion 9
                                 PlateConfig(ell=math.pi / 2, sigma=0.45, n_modes=40)],
                         ids=["ref-30", "ref-100", "crit9-250", "wide-k1"])
def test_build_spectrum_root_calls(monkeypatch, cfg):
    # ITP solves every bracket of a plate, torsional ones below m^4 included,
    # in one batched solve of a dozen steps (bisection: 45)
    _, calls = _solve_with(monkeypatch, find_roots, cfg)
    assert len(calls) == 1 and calls[0] <= 16, calls


@pytest.mark.parametrize("cfg", [PlateConfig(n_modes=30),
                                 PlateConfig(ell=math.pi / 2, sigma=0.45, n_modes=40),
                                 PlateConfig(ell=0.001, n_modes=60)],
                         ids=["ref", "wide-k1", "ell=0.001"])
def test_build_spectrum_matches_bisection_oracle(monkeypatch, cfg):
    # same modes, order and j0; each root within the tolerance
    # 1e-13 (relative, in s = sqrt(lam)) of the bisection oracle's
    got = build_spectrum(cfg)
    want, _ = _solve_with(monkeypatch, bisect_roots, cfg)
    assert got.j0 == want.j0
    for a, b in zip(got.mu + got.nu, want.mu + want.nu):
        assert a.mode == b.mode
        assert abs(a.lam - b.lam) <= 3e-13 * b.lam, a.mode


def _norm_plates():
    return _l1_plates() + [PlateConfig(ell=math.pi / 2, sigma=0.45, n_modes=250),
                           PlateConfig(ell=math.pi / 2, n_modes=250),  # criterion 9
                           PlateConfig(ell=3.0, n_modes=100), PlateConfig(ell=10.0, n_modes=100),
                           PlateConfig(ell=50.0, n_modes=100)]


@pytest.mark.parametrize("cfg", _norm_plates(),
                         ids=lambda c: f"ell={c.ell:.4f},sigma={c.sigma:.3f},n={c.n_modes}")
def test_norm_consts_match_per_mode_quadrature(cfg):
    # wide plates have boundary layers about 1 / c_bar wide, which a rule
    # sized by the cos/sin oscillation alone misses (by 2e-8 on criterion 9's
    # plate, 1e-4 at ell = 50)
    spec = build_spectrum(cfg, cap=250)
    for pair in spec.mu + spec.nu:
        want = normalization(pair.mode.m, pair.lam, pair.mode.parity, cfg)
        assert abs(pair.norm_const - want) <= 1e-14 * want, pair.mode


@pytest.mark.parametrize("mode", [Mode(1, 40, "even"), Mode(3, 36, "odd"), Mode(1, 31, "even")])
def test_norm_const_at_the_top_quadrature_order(mode):
    # modes this high in k oscillate about 40 times across the plate
    cfg = PlateConfig(ell=math.pi / 2, n_modes=2)
    pair = find_hom_eigenvalue(mode, cfg)
    want = normalization(mode.m, pair.lam, mode.parity, cfg)
    assert abs(pair.norm_const - want) <= 1e-14 * want


def test_non_finite_profile_sample_raises(monkeypatch, ref_cfg):
    real = spectrum._profile_terms

    def poisoned(*args):
        q_amp, *rest = real(*args)
        q_amp = np.array(q_amp)
        q_amp.flat[-1] = np.inf
        return (q_amp, *rest)

    monkeypatch.setattr(spectrum, "_profile_terms", poisoned)
    with pytest.raises(NonFinite):
        build_spectrum(ref_cfg.with_(n_modes=5))
    with pytest.raises(NonFinite):
        find_hom_eigenvalue(Mode(2, 3, "odd"), ref_cfg)


def test_l1_plates_cover_every_branch():
    kinds = set()
    for cfg in _l1_plates():
        spec = build_spectrum(cfg)
        kinds |= {(p.mode.parity, min(p.mode.k, 2)) for p in spec.mu + spec.nu}
    assert kinds == {("even", 1), ("even", 2), ("odd", 1), ("odd", 2)}


def test_torsional_threshold_modes_straddle_roots(ref_cfg):
    with pytest.raises(NotAdmissible):
        find_hom_eigenvalue(Mode(2734, 1, "odd"), ref_cfg)
    for mode in (Mode(2735, 1, "odd"), Mode(2735, 2, "odd"), Mode(2734, 2, "odd"),
                 Mode(2735, 1, "even")):
        pair = find_hom_eigenvalue(mode, ref_cfg)
        assert _straddles_root(pair, ref_cfg), mode
    low = find_hom_eigenvalue(Mode(2735, 1, "odd"), ref_cfg).lam
    assert find_hom_eigenvalue(Mode(2735, 1, "even"), ref_cfg).lam < low < 2735.0 ** 4
