"""Acceptance suite: every criterion at its stated tolerance, one pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines.
"""
import csv
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import random_band_weight, random_grid_weight
from oracles import rearrangement_value
from plate_spectra import PlateConfig
from plate_spectra.galerkin import merged_eigenvalues, solve_weighted, weyl_diagnostic
from plate_spectra.optimize import (default_study_weights, minimize_mu_j,
                                    mu_upper_bound, ratio_study, rearrange_max,
                                    rearrange_min)
from plate_spectra.reference import TORSIONAL_FIRST_THRESHOLD
from plate_spectra.spectrum import (Mode, NotAdmissible, build_spectrum, check_c0,
                                    find_hom_eigenvalue, torsional_first_exists)
from plate_spectra.weights import (GridField, make_uniform, pj_sin4_threshold,
                                   sample_field)

REF_MU = ["9.60e-01", "1.54e+01", "7.78e+01", "2.46e+02", "6.00e+02", "1.24e+03",
          "2.31e+03", "3.93e+03", "6.30e+03", "9.61e+03", "1.41e+04", "1.99e+04"]
REF_NU = ["1.09e+04", "4.38e+04", "9.86e+04", "1.75e+05", "2.74e+05", "3.95e+05",
          "5.38e+05", "7.04e+05", "8.93e+05", "1.10e+06", "1.34e+06", "1.60e+06"]

# per-weight benchmark columns: mu_1..mu_12, (nu_1, nu_2), R, tolerance
BENCH = {
    "uniform": ([9.60e-1, 1.54e1, 7.78e1, 2.46e2, 6.00e2, 1.24e3, 2.31e3, 3.93e3,
                 6.30e3, 9.61e3, 1.41e4, 1.99e4], (1.09e4, 4.38e4), 1.14, 0.02),
    "pbar10": ([9.60e-1, 1.54e1, 7.77e1, 2.46e2, 5.99e2, 1.24e3, 2.28e3, 3.84e3,
                5.87e3, 7.28e3, 1.68e4, 2.27e4], (1.09e4, 4.37e4), 1.50, 0.02),
    "pstar": ([1.16, 1.66e1, 8.06e1, 2.51e2, 6.10e2, 1.27e3, 2.36e3, 4.04e3,
               6.48e3, 9.90e3, 1.45e4, 2.05e4], (1.98e4, 6.88e4), 2.00, 0.02),
    "pbreve": ([9.60e-1, 1.54e1, 7.78e1, 2.46e2, 6.01e2, 1.25e3, 2.31e3, 3.94e3,
                6.31e3, 9.62e3, 1.41e4, 2.00e4], (1.75e4, 7.01e4), 1.82, 0.02),
    "pdoublebar": ([1.40, 1.52e1, 8.05e1, 2.96e2, 6.78e2, 1.31e3, 2.60e3, 4.55e3,
                    6.85e3, 1.04e4, 1.61e4, 2.24e4], (1.56e4, 4.14e4), 1.49, 0.02),
    "ptilde": ([9.86e-1, 1.58e1, 7.98e1, 2.52e2, 6.16e2, 1.28e3, 2.37e3, 4.04e3,
                6.47e3, 9.55e3, 1.45e4, 2.05e4], (1.71e4, 6.84e4), 1.79, 0.05),
}


def sig3(x: float) -> str:
    return f"{x:.2e}"


def _pass(num: int, msg: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS - {msg}")


@pytest.fixture(scope="module")
def study_report(ref_cfg, ref_spectrum):
    weights = default_study_weights(ref_cfg, ref_spectrum)
    return weights, ratio_study(weights, ref_spectrum, n=30)


def test_criterion_1_reference_table(ref_cfg):
    t0 = time.perf_counter()
    spec = build_spectrum(ref_cfg.with_(n_modes=12))
    elapsed = time.perf_counter() - t0
    mu = [sig3(p.lam) for p in spec.mu]
    nu = [sig3(p.lam) for p in spec.nu]
    assert mu == REF_MU, f"longitudinal mismatch: {mu}"
    assert nu == REF_NU, f"torsional mismatch: {nu}"
    assert elapsed < 5.0, f"spectrum took {elapsed:.2f}s"
    _pass(1, f"12+12 lowest eigenvalues match to 3 significant digits "
             f"({elapsed:.2f}s < 5s)")


def test_criterion_2_structural_constants(ref_cfg, ref_spectrum):
    t0 = time.perf_counter()
    assert ref_spectrum.j0 == 10
    holds, s_star = check_c0(ref_cfg)
    assert holds
    m = TORSIONAL_FIRST_THRESHOLD
    assert math.floor(s_star) == m
    assert abs(s_star - (m + 0.5)) < 1.0
    assert not torsional_first_exists(m, ref_cfg)
    assert torsional_first_exists(m + 1, ref_cfg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(2, f"j0=10, s*={s_star:.2f} (non-integer), existence flips at "
             f"{m}/{m + 1} ({elapsed:.3f}s < 1s)")


def test_criterion_3_weighted_table(ref_cfg, ref_spectrum, study_report):
    t0 = time.perf_counter()
    _, report = study_report
    worst = {}
    for row in report.rows:
        ref_mu, ref_nu, ref_r, tol = BENCH[row.label]
        devs = [abs(row.mu[i] - ref_mu[i]) / ref_mu[i] for i in range(12)]
        devs.append(abs(row.nu1 - ref_nu[0]) / ref_nu[0])
        devs.append(abs(row.nu2 - ref_nu[1]) / ref_nu[1])
        devs.append(abs(row.ratio - ref_r) / ref_r)
        worst[row.label] = max(devs)
        assert max(devs) <= tol, (f"{row.label}: worst deviation {max(devs):.3%} "
                                  f"exceeds {tol:.0%}")
    ratios = [row.ratio for row in report.rows]
    assert [sig3(r) for r in ratios[:2]] == ["1.14e+00", "1.50e+00"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _pass(3, "weighted table reproduced: worst deviations "
             + ", ".join(f"{k}={v:.2%}" for k, v in worst.items())
             + f" ({elapsed:.1f}s < 2min)")


def test_criterion_4_bracket_invariants():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(20):
        sigma = float(rng.uniform(0.05, 0.45))
        ell = float(rng.uniform(math.pi / 300, math.pi / 2))
        cfg = PlateConfig(ell=ell, sigma=sigma, n_modes=1)
        om = (math.pi / ell) ** 2
        for m in range(1, 41):
            for k in range(1, 6):
                pair = find_hom_eigenvalue(Mode(m, k, "even"), cfg)
                if k == 1:
                    assert (1 - sigma ** 2) * m ** 4 < pair.lam < m ** 4
                else:
                    lo = (m * m + om * (k - 1.5) ** 2) ** 2
                    hi = (m * m + om * (k - 1.0) ** 2) ** 2
                    assert lo < pair.lam < hi
                checked += 1
            lam_m1 = None
            for k in range(1, 6):
                if k == 1:
                    if not torsional_first_exists(m, cfg):
                        with pytest.raises(NotAdmissible):
                            find_hom_eigenvalue(Mode(m, 1, "odd"), cfg)
                        continue
                pair = find_hom_eigenvalue(Mode(m, k, "odd"), cfg)
                if k == 1:
                    lam_m1 = find_hom_eigenvalue(Mode(m, 1, "even"), cfg).lam
                    assert lam_m1 < pair.lam < m ** 4
                else:
                    assert pair.lam > m ** 4
                checked += 1
    _pass(4, f"{checked} eigenvalues inside their a-priori intervals over "
             f"20 random (sigma, ell)")


def test_criterion_5_stability_inequality(ref_cfg, ref_spectrum):
    rng = np.random.default_rng(99)
    mu1 = np.array([p.lam for p in ref_spectrum.mu[:20]])
    nu1 = np.array([p.lam for p in ref_spectrum.nu[:20]])
    worst = 0.0
    for _ in range(50):
        w = random_band_weight(rng, ref_cfg)
        gs = solve_weighted(w, ref_spectrum, 20)
        for lam_p, lam_1 in ((gs.mu_p, mu1), (gs.nu_p, nu1)):
            low = np.max(lam_1 / ref_cfg.beta / lam_p - 1.0)
            high = np.max(lam_p / (lam_1 / ref_cfg.alpha) - 1.0)
            worst = max(worst, low, high)
    assert worst <= 1e-9, f"stability inequality violated by {worst:.3e}"
    _pass(5, f"lambda_n(1)/beta <= lambda_n(p) <= lambda_n(1)/alpha for 50 "
             f"random band weights, n<=20 (worst slack {worst:.1e})")


def test_criterion_6_rearrangement_oracle(ref_cfg):
    rng = np.random.default_rng(7)
    shape = (300, 31)
    shell = GridField(np.zeros(shape), ref_cfg.ell)
    xs, ys = shell.xs, shell.ys
    violations = 0
    pairs_checked = 0
    for _ in range(20):
        kx = rng.integers(1, 8, size=2)
        ky = rng.integers(0, 3, size=2)
        vals = np.zeros(shape)
        for a, p, q in zip(rng.normal(size=2), kx, ky):
            vals += a * np.outer(np.sin(p * xs + rng.uniform(0, math.pi)),
                                 np.cos(q * math.pi * ys / ref_cfg.ell))
        fld = GridField((vals - vals.min() + 0.05) ** 2, ref_cfg.ell, parity="even")
        j_min = rearrangement_value(rearrange_min(fld, ref_cfg), fld)
        j_max = rearrangement_value(rearrange_max(fld, ref_cfg), fld)
        for _ in range(100):
            w = random_grid_weight(rng, ref_cfg, shape=shape)
            val = rearrangement_value(w, fld)
            scale = max(abs(j_min), abs(j_max), 1e-30)
            if val < j_min - 1e-6 * scale or val > j_max + 1e-6 * scale:
                violations += 1
            pairs_checked += 1
    assert violations == 0
    _pass(6, f"rearranged weights optimal against {pairs_checked} random "
             f"admissible weights (0 violations at 1e-6)")


def test_criterion_7_monotone_descent(ref_cfg, ref_spectrum):
    rng = np.random.default_rng(55)
    limits_by_j = {}
    for j in (1, 5, 10):
        inits = [None, random_band_weight(rng, ref_cfg),
                 random_band_weight(rng, ref_cfg)]
        finals = []
        for init in inits:
            tr = minimize_mu_j(j, ref_cfg, initial=init)
            vals = tr.eigenvalues
            assert all(b < a for a, b in zip(vals, vals[1:])), \
                f"j={j}: non-monotone trace {vals}"
            finals.append(tr.final_value)
        spread = (max(finals) - min(finals)) / min(finals)
        assert spread <= 1e-3, f"j={j}: multistart limits spread {spread:.2e}"
        limits_by_j[j] = finals[0]
    dev10 = abs(limits_by_j[10] - 7.28e3) / 7.28e3
    assert dev10 <= 0.02, f"j=10 limit {limits_by_j[10]:.4e} off by {dev10:.2%}"
    _pass(7, f"monotone descent, multistart agreement <= 1e-3, "
             f"mu_10 limit {limits_by_j[10]:.4e} within {dev10:.2%} of 7.28e3")


def test_criterion_8_upper_bound_dominance(ref_cfg, ref_spectrum, study_report):
    weights, report = study_report
    by_label = dict(weights)
    checked = 0
    for row in report.rows:
        w = by_label[row.label]
        for j in range(2, 11):
            bound = mu_upper_bound(w, j, ref_cfg)
            assert row.mu[j - 1] <= bound, \
                f"{row.label}, j={j}: mu={row.mu[j-1]:.4e} > bound={bound:.4e}"
            checked += 1
    for j in (2, 5, 10):
        t = pj_sin4_threshold(j, ref_cfg)
        assert abs(t - 0.25) <= 1e-3, f"t_{j} = {t}"
    _pass(8, f"mu_j(w) below the trial-function bound for {checked} (weight, j) "
             f"pairs; sin^4 threshold = 0.25 within 1e-3")


def test_criterion_9_weyl_diagnostic():
    cfg = PlateConfig(ell=math.pi / 2, n_modes=250)
    spec = build_spectrum(cfg, cap=500)
    merged = merged_eigenvalues(spec)
    assert merged.size >= 400
    rep = weyl_diagnostic(make_uniform(cfg), merged, (200, 400), cfg)
    assert rep.top_half_spread <= 0.15, f"spread {rep.top_half_spread:.2%}"
    assert 1.0 / 1.5 <= rep.median_ratio <= 1.5, f"median {rep.median_ratio}"
    _pass(9, f"growth-law ratio: median {rep.median_ratio:.3f}, top-half "
             f"spread {rep.top_half_spread:.2%} over h in [200, 400]")


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for threads in ("1", None):
        out = tmp_path / f"blas_threads_{threads or 'default'}"
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "plate_spectra.cli", "ratio-table",
             "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append({
            name: (out / name).read_bytes()
            for name in ("ratio_table.csv", "ratio_table_deviation.csv")
        })
    assert outputs[0] == outputs[1], "BLAS thread count changed the CSV bytes"
    _pass(10, "ratio-table byte-identical for OPENBLAS_NUM_THREADS=1 and the default")
