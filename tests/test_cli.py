import argparse
import contextlib
import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from plate_spectra import PlateConfig
from plate_spectra.cli import _atomic_write, _grid_csv, build_parser, main
from plate_spectra.optimize import maximize_nu1_fixed_point, minimize_mu_j, rearrange_min
from plate_spectra.weights import (GridField, make_breve_p, make_uniform, sample_field,
                                  weight_to_json)


def run_cli(*args, env=None, timeout=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "plate_spectra.cli", *args],
                          capture_output=True, text=True, env=full_env, timeout=timeout)


def read_csv(path: Path):
    with path.open() as fh:
        return list(csv.reader(fh))


def test_spectrum_command(tmp_path):
    proc = run_cli("spectrum", "--out", str(tmp_path), "--n-modes", "12")
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(tmp_path / "table1.csv")
    assert rows[0] == ["m", "mu_m", "nu_m"]
    assert f"{float(rows[1][1]):.2e}" == "9.60e-01"
    assert f"{float(rows[1][2]):.2e}" == "1.09e+04"
    assert f"{float(rows[12][1]):.2e}" == "1.99e+04"
    meta = json.loads((tmp_path / "spectrum_meta.json").read_text())
    assert meta["j0"] == 10
    assert meta["torsional_first_threshold"] == 2734
    assert meta["c0_holds"] is True


@pytest.mark.parametrize("args", [("--ell", "50", "--sigma", "0.45"), ("--ell", "1000")])
def test_spectrum_wide_plate(tmp_path, args):
    # both used to exit 5 with "no torsional root below m^4"
    proc = run_cli("spectrum", *args, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "table1.csv").exists()


def test_spectrum_rejects_bad_config(tmp_path):
    proc = run_cli("spectrum", "--sigma", "0.7", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "invalid configuration" in proc.stderr


def test_spectrum_rejects_small_truncation(tmp_path):
    proc = run_cli("spectrum", "--n-modes", "5", "--out", str(tmp_path))
    assert proc.returncode == 2


def test_truncated_j0_is_an_error(tmp_path):
    # at ell = 0.001, nu_1 lies above mu_30, so j0 = 30 would only be a lower bound
    for cmd in ("spectrum", "ratio-table"):
        out = tmp_path / cmd
        proc = run_cli(cmd, "--ell", "0.001", "--n-modes", "30", "--out", str(out))
        _assert_one_line_error(proc, 2, "--n-modes")
        assert not out.exists()


def test_spectrum_j0_beyond_default_truncation(tmp_path):
    proc = run_cli("spectrum", "--ell", "0.001", "--n-modes", "60", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "spectrum_meta.json").read_text())["j0"] == 47


def test_ratio_table_j0_beyond_default_truncation(tmp_path):
    # j0 = 47 > 30: the study must use a truncation that reaches mu_j0
    proc = run_cli("ratio-table", "--ell", "0.001", "--n-modes", "60", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(tmp_path / "ratio_table.csv")
    assert rows[0] == ["quantity", "uniform", "pbar47", "pstar", "pbreve", "pdoublebar",
                       "ptilde"]


def per_cell_csv(fld: GridField, values) -> str:
    """The x,y,value layout formatted one cell at a time."""
    lines = ["x,y,value"]
    for i in range(fld.nx):
        for j in range(fld.ny):
            lines.append(f"{fld.xs[i]:.6e},{fld.ys[j]:.6e},{values[i, j]:.6e}")
    return "\n".join(lines) + "\n"


def assert_same_text(got: str, want: str) -> None:
    """assert got == want, exactly as strictly, but fail with the line counts,
    the trailing newline or the first differing line: pytest's diff of two
    whole grid CSVs (up to 18,601 lines) can run for minutes."""
    if got == want:
        return
    got_lines, want_lines = got.split("\n"), want.split("\n")
    assert got.endswith("\n") == want.endswith("\n"), "trailing newline differs"
    assert len(got_lines) == len(want_lines), (
        f"{len(got_lines) - 1} line breaks, expected {len(want_lines) - 1}")
    i = next(i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w)
    pytest.fail(f"line {i + 1} is {got_lines[i]!r}, expected {want_lines[i]!r}")


def test_grid_csv_matches_per_cell_formatting():
    values = np.array([[-1.5, 1e-300, 0.0], [-0.0, 2.5e-17, -3.25e12],
                       [7.0, -1e-9, 123456789.0], [1.0, 0.0, -2.0]])
    fld = GridField(values, 0.01)
    assert_same_text(_grid_csv(fld), per_cell_csv(fld, values))


def _grid(values, ny):
    return np.asarray(values, dtype=float).reshape(-1, ny)


# values within 1e-7 of a rounding tie in the 7th digit: exact .5 ties and
# their neighbours, which the digit kernel hands to the per-value fallback
_TIES = np.array([(k + 0.5) * 10.0 ** (e - 6) for k in (1000000, 1234567, 9999999)
                  for e in (-98, -17, 0, 22, 98)])
_TIES = np.concatenate([_TIES, np.nextafter(_TIES, 0.0), np.nextafter(_TIES, np.inf)])
_POWERS = 10.0 ** np.arange(-323, 309)


@settings(deadline=None)
@given(values=arrays(np.float64, st.tuples(st.integers(1, 8),
                                           st.integers(0, 5).map(lambda k: 2 * k + 1)),
                     elements=st.floats(allow_nan=False, allow_infinity=False)),
       ell=st.floats(1e-4, 2.0))
@example(values=_grid(_TIES, 3), ell=0.01)
@example(values=_grid([0.0, -0.0, 0.0, -0.0, -0.0, 0.0], 3), ell=0.01)
@example(values=_grid([5e-324, -5e-324, 2.225073858507201e-308, -1e-310, 1e-320,
                       2.2250738585072014e-308], 3), ell=0.01)
@example(values=_grid([1e100, -1.7976931348623157e308, 1e-100, 9.9999996e99,
                       -9.99999949e98, 1e-99, 9.9999996e98, 1.0000000e-98, 1e99], 3),
         ell=0.01)
@example(values=_grid(np.concatenate([_POWERS, -_POWERS]), 79), ell=math.pi / 150)
def test_grid_csv_matches_per_cell_formatting_property(values, ell):
    fld = GridField(values, ell)
    assert_same_text(_grid_csv(fld), per_cell_csv(fld, values))


# the values the digit kernel does not format itself, and the signed zeros
_HARD = np.concatenate([_TIES, -_TIES, [0.0, -0.0, 5e-324, -5e-324, 1e-310,
                                        -2.2250738585072014e-308, 1e-100, -9.9999996e99,
                                        1.7976931348623157e308, -1e-300, 1e250]])


@pytest.mark.parametrize("nx", [600, 2400])
def test_grid_csv_matches_per_cell_formatting_across_blocks(nx):
    # the writer formats a few hundred rows at a time: the hard values sit in
    # every block, at block edges and in every column, among values of both
    # signs and exponents from -40 to 40
    rng = np.random.default_rng(nx)
    values = rng.normal(size=(nx, 31)) * 10.0 ** rng.integers(-40, 41, size=(nx, 31))
    rows = np.linspace(0, nx - 1, _HARD.size).astype(int)
    rows[:6] = [255, 256, 257, 511, 512, 513]
    values[rows, np.arange(_HARD.size) * 7 % 31] = _HARD
    fld = GridField(values, 0.01)
    assert_same_text(_grid_csv(fld), per_cell_csv(fld, values))


def test_grid_csv_nonnegative_field_across_blocks():
    # no negative value and no 3-digit exponent: every value slot is exactly
    # 12 characters wide, as for the optimizer's fields
    rng = np.random.default_rng(7)
    values = np.abs(rng.normal(size=(2400, 31))) * 10.0 ** rng.integers(-90, 90, size=(2400, 31))
    ties = _TIES[(_TIES >= 1e-99) & (_TIES < 9.9e99)]
    values[np.linspace(0, 2399, ties.size).astype(int), np.arange(ties.size) % 31] = ties
    values[::97, 3] = 0.0
    assert values[values > 0].min() >= 1e-99 and values.max() < 9.9e99
    fld = GridField(values, math.pi / 150)
    assert_same_text(_grid_csv(fld), per_cell_csv(fld, values))


@pytest.mark.parametrize("shape", [(4, 3), (37, 9), (600, 31)])
def test_grid_csv_mask_matches_indicator_field(shape):
    rng = np.random.default_rng(shape[0])
    fld = GridField(rng.normal(size=shape), 0.01)
    for mask in (rng.random(shape) < 0.4, rng.random(shape) < 0.9,
                 np.ones(shape, dtype=bool), np.zeros(shape, dtype=bool)):
        assert_same_text(_grid_csv(fld, mask=mask), per_cell_csv(fld, mask.astype(float)))
    with pytest.raises(ValueError, match="mask shape"):
        _grid_csv(fld, mask=np.ones((shape[0], shape[1] + 2), dtype=bool))


@pytest.mark.parametrize("target", [["max-nu1"], ["min-mu", "--j", "3"]])
def test_optimize_grid_csvs_match_final_weight(tmp_path, target):
    # expected bytes come from the same search run in this process, not from
    # stored outputs, so the test holds whatever digits the BLAS in use produces
    proc = run_cli("optimize", "--target", *target, "--grid", "60", "31",
                   "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    cfg = PlateConfig()
    tr = (maximize_nu1_fixed_point(cfg, grid=(60, 31)) if target == ["max-nu1"]
          else minimize_mu_j(3, cfg, grid=(60, 31)))
    fld = tr.final_weight.variant.field
    assert_same_text((tmp_path / "field.csv").read_text(), per_cell_csv(fld, fld.values))
    f = json.loads((tmp_path / "final_weight.json").read_text())["parameters"]["field"]
    assert (f["nx"], f["ny"]) == (60, 31)
    inside = (np.array(f["values"]).reshape(60, 31) <= 1).astype(float)
    assert 0 < inside.sum() < inside.size
    assert_same_text((tmp_path / "sset.csv").read_text(), per_cell_csv(fld, inside))


def test_reference_csv_bytes_match_golden(tmp_path):
    # the golden files pin the reference-configuration output across code changes
    here = Path(__file__).parent
    for cmd, names in (("spectrum", ["table1.csv"]),
                       ("ratio-table", ["ratio_table.csv", "ratio_table_deviation.csv"])):
        proc = run_cli(cmd, "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        for name in names:
            assert (tmp_path / name).read_bytes() == (here / f"golden_{name}").read_bytes()


def test_eigs_uniform_echo(tmp_path):
    cfg = PlateConfig()
    wfile = tmp_path / "uniform.json"
    wfile.write_text(weight_to_json(make_uniform(cfg)))
    proc = run_cli("eigs", "--weight", str(wfile), "--n-modes", "12",
                   "--out", str(tmp_path), "--reconstruct", "even", "1",
                   "--grid", "40", "11")
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(tmp_path / "eigenvalues.csv")
    assert rows[0] == ["index", "parity", "value"]
    even = [r for r in rows[1:] if r[1] == "even"]
    odd = [r for r in rows[1:] if r[1] == "odd"]
    assert len(even) == 12 and len(odd) == 12
    assert f"{float(even[0][2]):.2e}" == "9.60e-01"
    assert f"{float(odd[0][2]):.2e}" == "1.09e+04"
    grid = read_csv(tmp_path / "eigenfunction_even_1.csv")
    assert grid[0] == ["x", "y", "value"]
    assert len(grid) == 1 + 40 * 11


def test_eigs_breve_value(tmp_path):
    cfg = PlateConfig()
    wfile = tmp_path / "breve.json"
    wfile.write_text(weight_to_json(make_breve_p(cfg)))
    proc = run_cli("eigs", "--weight", str(wfile), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(tmp_path / "eigenvalues.csv")
    odd = [r for r in rows[1:] if r[1] == "odd"]
    assert f"{float(odd[0][2]):.2e}" == "1.75e+04"


def test_eigs_malformed_json(tmp_path):
    wfile = tmp_path / "bad.json"
    wfile.write_text("{this is not json")
    proc = run_cli("eigs", "--weight", str(wfile), "--out", str(tmp_path))
    assert proc.returncode == 3
    assert "invalid JSON" in proc.stderr


def test_eigs_inadmissible_weight(tmp_path):
    wfile = tmp_path / "bad_mass.json"
    wfile.write_text(json.dumps({
        "variant": "x_bands", "alpha": 0.5, "beta": 1.5,
        "parameters": {"intervals": [[0.5, 1.0]], "inside": 1.5, "outside": 0.5}}))
    proc = run_cli("eigs", "--weight", str(wfile), "--out", str(tmp_path))
    assert proc.returncode == 3
    assert "admissibility" in proc.stderr


def test_eigs_reconstruct_singular_mass(tmp_path, monkeypatch, capsys):
    # --reconstruct solves its parity again, with eigenvectors, and that solve
    # can find the mass matrix singular where the values-only one did not: the
    # same one-line weight error, written before any output
    from plate_spectra import galerkin

    def singular(*args, **kwargs):
        raise galerkin.SingularMass("weighted mass matrix not positive definite "
                                    "(smallest eigenvalue -1.000e-17)")

    wfile = tmp_path / "u.json"
    wfile.write_text(weight_to_json(make_uniform(PlateConfig())))
    monkeypatch.setattr(galerkin, "solve_parity", singular)
    out = tmp_path / "out"
    code = main(["eigs", "--weight", str(wfile), "--n-modes", "12", "--out", str(out),
                 "--reconstruct", "odd", "1", "--grid", "40", "11"])
    err = capsys.readouterr().err
    assert code == 3, err
    assert len(err.strip().splitlines()) == 1
    assert f"weight file {wfile} cannot be solved at n_modes=12" in err
    assert not out.exists()
    # without --reconstruct, solve_parity is not called
    assert main(["eigs", "--weight", str(wfile), "--n-modes", "12", "--out", str(out)]) == 0
    assert (out / "eigenvalues.csv").exists()


def _assert_one_line_error(proc, code, needle):
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert needle in proc.stderr


@pytest.mark.parametrize("flag", ["--ell", "--beta"])
def test_spectrum_rejects_infinite_config(tmp_path, flag):
    # --beta inf used to write "beta": Infinity, which is not JSON, into
    # spectrum_meta.json; --ell inf used to exit 5 with "s* = 0.0 is an integer"
    proc = run_cli("spectrum", flag, "inf", "--out", str(tmp_path))
    _assert_one_line_error(proc, 2, "invalid configuration")
    assert not (tmp_path / "spectrum_meta.json").exists()


def test_spectrum_rejects_tiny_ell(tmp_path):
    # the torsional window grows like pi / (2 ell); at ell = 1e-12 the count of
    # its mode numbers used to run for minutes, one m at a time
    proc = run_cli("spectrum", "--ell", "1e-12", "--out", str(tmp_path), timeout=60)
    _assert_one_line_error(proc, 2, "ell = 1e-12 is too small")
    assert not (tmp_path / "table1.csv").exists()


def test_spectrum_rejects_tiny_ell_before_c0(tmp_path):
    # below about ell = 6e-15, s* passes 2^53, where every double is an
    # integer, so the window refusal must come before the c0 check (which
    # would exit 5 with "s* = 5.7e+16 is an integer")
    proc = run_cli("spectrum", "--ell", "1e-15", "--out", str(tmp_path), timeout=60)
    _assert_one_line_error(proc, 2, "ell = 1e-15 is too small")
    assert not (tmp_path / "table1.csv").exists()


@pytest.mark.parametrize("sigma", ["1e-200", "1e-160"])
def test_spectrum_tiny_sigma_is_one_line_c0_error(tmp_path, sigma):
    # q = (sigma / (2 - sigma))^2 underflows to 0 (1e-200) or leaves 1/q out of
    # range (1e-160); these used to end in a ZeroDivisionError traceback and
    # in "f non-finite at bracket endpoints"
    proc = run_cli("spectrum", "--sigma", sigma, "--out", str(tmp_path))
    _assert_one_line_error(proc, 5, "s* = inf is out of floating point range")
    assert not (tmp_path / "table1.csv").exists()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_json_outputs_are_strict_json(tmp_path):
    # NaN and Infinity are Python's JSON extensions, not JSON: no command may
    # write them, into any JSON file or any trace line
    cfg = PlateConfig()
    wfile = tmp_path / "w.json"
    wfile.write_text(weight_to_json(make_breve_p(cfg)))
    runs = {
        "spectrum": ("spectrum",),
        "eigs": ("eigs", "--weight", str(wfile)),
        "min-mu": ("optimize", "--target", "min-mu", "--j", "3", "--sin4-compare",
                   "--grid", "60", "31"),
        "max-nu1": ("optimize", "--target", "max-nu1", "--grid", "60", "31"),
        "weyl": ("ratio-table", "--ell", str(math.pi / 2), "--weyl"),
    }
    checked = {}
    for name, args in runs.items():
        out = tmp_path / name
        proc = run_cli(*args, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        docs = [p.read_text() for p in sorted(out.glob("*.json"))]
        docs += [line for p in out.glob("*.jsonl") for line in p.read_text().splitlines()]
        for doc in docs:
            json.loads(doc, parse_constant=_reject_constant)
        checked[name] = len(docs)
    assert checked["spectrum"] == 1 and checked["weyl"] == 1 and checked["eigs"] == 0
    assert checked["min-mu"] >= 3 and checked["max-nu1"] >= 3


def test_optimize_trace_holds_no_field_values(tmp_path):
    # final_weight.json holds the final weight's phase map, one code per cell;
    # each trace line holds only its iterate's parameters, so the trace stays
    # small on fine grids
    proc = run_cli("optimize", "--target", "max-nu1", "--grid", "2400", "31",
                   "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    trace = (tmp_path / "trace.jsonl").read_text()
    assert len(trace.encode()) < 4096
    records = [json.loads(line) for line in trace.splitlines()]
    assert records
    assert all(r["weight"]["parameters"]["field"]["values"] is None for r in records)
    text = (tmp_path / "final_weight.json").read_bytes()
    assert len(text) <= 1_000_000
    final = json.loads(text)
    codes = final["parameters"]["field"]["values"]
    assert len(codes) == 2400 * 31 and set(codes) <= {0, 1, 2}
    assert final["parameters"]["threshold"] == 1.0
    meta = json.loads((tmp_path / "optimize_meta.json").read_text())
    assert records[-1]["weight"]["parameters"]["threshold"] == meta["threshold"]
    final["parameters"]["field"]["values"] = None
    final["parameters"]["threshold"] = meta["threshold"]
    assert records[-1]["weight"] == final
    assert records[-1]["eigenvalue"] == meta["final_eigenvalue"]


@pytest.mark.parametrize("nx, ny", [(-4, 3), (-1, 3), (0, 3), (4, -1), (4.0, 3)])
def test_eigs_rejects_bad_grid_size(tmp_path, nx, ny):
    # 12 values of a uniform-mass field: only positive integer sizes may reshape them
    wfile = tmp_path / "sub.json"
    wfile.write_text(json.dumps({
        "variant": "sublevel", "alpha": 0.5, "beta": 1.5,
        "parameters": {"threshold": 0.0, "inside": 1.0, "outside": 1.0,
                       "field": {"nx": nx, "ny": ny, "ell": math.pi / 150,
                                 "values": [0.0] * 12}}}))
    proc = run_cli("eigs", "--weight", str(wfile), "--out", str(tmp_path))
    bad = "ny" if ny < 1 else "nx"
    _assert_one_line_error(proc, 3, f"field {bad} must be a positive integer")
    assert not (tmp_path / "eigenvalues.csv").exists()


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3),
                    st.floats(allow_nan=True, allow_infinity=True))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)
_NUMBERS = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 0.0, -1.0, math.pi / 150]),
                     st.floats(allow_nan=True, allow_infinity=True), st.integers())
_INTERVALS = st.one_of(st.lists(st.lists(_NUMBERS, min_size=2, max_size=2), max_size=3), _JSON)
_FIELD = st.fixed_dictionaries(
    {"nx": st.one_of(st.integers(-1, 3), _JSON), "ny": st.one_of(st.integers(-1, 3), _JSON),
     "ell": _NUMBERS, "values": st.one_of(st.lists(_NUMBERS, max_size=9), _JSON)},
    optional={"parity": st.sampled_from(["even", "odd", None, "sideways"])})
_KEYS = {"uniform": ("value",), "x_bands": ("intervals", "inside", "outside"),
         "y_bands": ("intervals", "inside", "outside", "ell"),
         "cross": ("x_intervals", "y_intervals", "inside", "outside", "ell"),
         "sublevel": ("threshold", "inside", "outside", "field")}
_VALUES = {"intervals": _INTERVALS, "x_intervals": _INTERVALS, "y_intervals": _INTERVALS,
           "field": st.one_of(_FIELD, _JSON)}


def _parameters(variant):
    keys = _KEYS.get(variant, ())
    return st.fixed_dictionaries(
        {k: _VALUES.get(k, _NUMBERS) for k in keys},
        optional={"tie_fraction": _NUMBERS, "degenerate": _JSON, "extra": _JSON})


# mostly well-formed documents of each variant with odd values, plus any JSON
_WEIGHT_DOCS = st.one_of(_JSON, st.sampled_from([*_KEYS, "moebius"]).flatmap(
    lambda variant: st.fixed_dictionaries(
        {"variant": st.just(variant), "alpha": _NUMBERS, "beta": _NUMBERS,
         "parameters": st.one_of(_parameters(variant), _JSON)})))


def _sublevel_doc(nx, ny, values):
    return {"variant": "sublevel", "alpha": 0.5, "beta": 1.5,
            "parameters": {"threshold": 0.0, "inside": 1.0, "outside": 1.0,
                           "field": {"nx": nx, "ny": ny, "ell": math.pi / 150,
                                     "values": values}}}


@pytest.mark.parametrize("parity", ["sideways", 7])
def test_eigs_rejects_unknown_field_parity(tmp_path, parity):
    # an admissible uniform-mass field whose declared parity is neither even
    # nor odd is a malformed spec
    doc = _sublevel_doc(40, 5, [0.0] * 200)
    doc["parameters"]["field"]["parity"] = parity
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(doc))
    proc = run_cli("eigs", "--weight", str(wfile), "--out", str(tmp_path))
    _assert_one_line_error(proc, 3, "parity must be")
    assert not (tmp_path / "eigenvalues.csv").exists()


@settings(max_examples=80, deadline=None)
@given(doc=_WEIGHT_DOCS)
@example(doc={"variant": "uniform", "alpha": 0.5, "beta": 1.5,
              "parameters": {"value": 1.0}})
@example(doc=_sublevel_doc(1, 1, [0.0]))
@example(doc=_sublevel_doc(1, 1, [10 ** 400]))
@example(doc={"variant": "uniform", "alpha": 10 ** 400, "beta": 1.5,
              "parameters": {"value": 1.0}})
def test_eigs_weight_file_fuzz(tmp_path_factory, doc):
    # whatever the weight file holds, eigs either solves it or rejects it as a
    # weight error: exit 0 or 3, never an uncaught exception or another code
    out = tmp_path_factory.mktemp("fuzz")
    wfile = out / "w.json"
    wfile.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["eigs", "--weight", str(wfile), "--n-modes", "4", "--out", str(out)])
    assert code in (0, 3), err.getvalue()
    assert (code == 0) == (out / "eigenvalues.csv").exists()


def test_main_calls_share_one_parser(tmp_path, monkeypatch):
    # in-process main calls parse with one parser built once, and each still
    # runs its own command
    assert build_parser() is build_parser()
    added = []
    real = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        added.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    wfile = tmp_path / "w.json"
    wfile.write_text(weight_to_json(make_uniform(PlateConfig())))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["spectrum", "--n-modes", "12", "--out", str(tmp_path / "a")]) == 0
        assert main(["eigs", "--weight", str(wfile), "--n-modes", "12",
                     "--out", str(tmp_path / "b")]) == 0
    assert added == []
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["spectrum_meta.json",
                                                                  "table1.csv"]
    assert (tmp_path / "b" / "eigenvalues.csv").exists()
    assert not (tmp_path / "b" / "table1.csv").exists()


def test_eigs_rejects_band_weight_for_another_plate(tmp_path):
    # mass-exact for ell = 1, but on the default plate the band covers everything
    wfile = tmp_path / "wide.json"
    wfile.write_text(json.dumps({
        "variant": "y_bands", "alpha": 0.5, "beta": 1.5,
        "parameters": {"intervals": [[-0.5, 0.5]], "inside": 1.5, "outside": 0.5,
                       "ell": 1.0}}))
    proc = run_cli("eigs", "--weight", str(wfile), "--out", str(tmp_path))
    _assert_one_line_error(proc, 3, "declared ell")
    assert not (tmp_path / "eigenvalues.csv").exists()


def test_eigs_rejects_sublevel_weight_for_another_plate(tmp_path):
    cfg5 = PlateConfig(ell=5.0)
    fld = sample_field(lambda x, y: np.sin(x) ** 2 + 0.0 * y, cfg5, 600, 31,
                       parity="even")
    wfile = tmp_path / "sub.json"
    wfile.write_text(weight_to_json(rearrange_min(fld, cfg5)))
    proc = run_cli("eigs", "--weight", str(wfile), "--out", str(tmp_path))
    _assert_one_line_error(proc, 3, "declared ell")
    assert not (tmp_path / "eigenvalues.csv").exists()


def test_atomic_write_follows_umask(tmp_path):
    old = os.umask(0o022)
    try:
        _atomic_write(tmp_path / "out" / "a.csv", "x\n")
    finally:
        os.umask(old)
    path = tmp_path / "out" / "a.csv"
    assert path.read_text() == "x\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o644
    assert [p.name for p in path.parent.iterdir()] == ["a.csv"]


@pytest.mark.parametrize("where", ["file", "under_file", "directory"])
def test_unwritable_out_is_a_config_error(tmp_path, where):
    # --out naming a file, or a path below one, used to end in a mkdir
    # traceback with exit 1; a directory where table1.csv goes fails in the rename
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    out = {"file": blocker, "under_file": blocker / "sub",
           "directory": tmp_path / "dir"}[where]
    if where == "directory":
        (out / "table1.csv").mkdir(parents=True)
    proc = run_cli("spectrum", "--out", str(out))
    _assert_one_line_error(proc, 2, "cannot write")
    assert blocker.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(
        ["taken"] + (["dir", "table1.csv"] if where == "directory" else []))


def test_optimize_min_mu_1(tmp_path):
    proc = run_cli("optimize", "--target", "min-mu", "--j", "1",
                   "--n-modes", "12", "--grid", "300", "15",
                   "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    meta = json.loads((tmp_path / "optimize_meta.json").read_text())
    assert meta["stop_reason"] == "converged"
    assert meta["final_eigenvalue"] < 0.8
    lines = (tmp_path / "trace.jsonl").read_text().strip().split("\n")
    vals = [json.loads(ln)["eigenvalue"] for ln in lines]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert meta["iterations"] == len(vals)
    assert math.isfinite(meta["gap"]) and meta["gap"] >= -1e-12
    assert (tmp_path / "final_weight.json").exists()
    assert (tmp_path / "field.csv").exists()
    assert (tmp_path / "sset.csv").exists()


def test_optimize_sin4_compare(tmp_path):
    proc = run_cli("optimize", "--target", "min-mu", "--j", "5",
                   "--n-modes", "12", "--grid", "300", "15",
                   "--sin4-compare", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    meta = json.loads((tmp_path / "optimize_meta.json").read_text())
    assert abs(meta["sin4_threshold"] - 0.25) < 1e-3
    assert abs(meta["sin4_threshold_exact"] - 0.25) < 1e-12


@pytest.mark.parametrize("flags, needle", [
    (("--target", "max-nu1", "--j", "0"), "--j applies to --target min-mu only"),
    (("--target", "max-nu1", "--j", "3"), "--j applies to --target min-mu only"),
    (("--target", "min-mu", "--j", "1", "--sin4-compare"), "--sin4-compare needs"),
    (("--target", "min-mu", "--sin4-compare"), "--sin4-compare needs"),
    (("--target", "max-nu1", "--sin4-compare"), "--sin4-compare needs"),
], ids=["max-nu1-j0", "max-nu1-j3", "min-mu-j1-sin4", "min-mu-sin4", "max-nu1-sin4"])
def test_optimize_refuses_ignored_flags(tmp_path, flags, needle):
    # each of these flags used to be ignored: the run exited 0 and wrote no
    # sin4_* keys, or searched on nu_1 whatever --j said
    out = tmp_path / "out"
    proc = run_cli("optimize", *flags, "--grid", "60", "31", "--out", str(out))
    _assert_one_line_error(proc, 2, needle)
    assert not out.exists()


def test_optimize_max_nu1(tmp_path):
    proc = run_cli("optimize", "--target", "max-nu1", "--n-modes", "20",
                   "--grid", "300", "15", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    meta = json.loads((tmp_path / "optimize_meta.json").read_text())
    assert meta["target"] == "max_nu1"
    assert meta["final_eigenvalue"] > 1.5e4


def test_optimize_non_convergence_exit_code(tmp_path):
    proc = run_cli("optimize", "--target", "min-mu", "--j", "3",
                   "--n-modes", "12", "--grid", "300", "15",
                   "--max-iters", "1", "--out", str(tmp_path))
    assert proc.returncode == 4
    # trace still written
    assert (tmp_path / "trace.jsonl").exists()
    meta = json.loads((tmp_path / "optimize_meta.json").read_text())
    assert meta["stop_reason"] == "max_iters"


def test_optimize_singular_mass_exit_code(tmp_path):
    # grids this coarse leave the weighted mass matrix singular: a
    # configuration error that names the grid
    for args in (("optimize", "--target", "max-nu1", "--grid", "4", "3"),
                 ("optimize", "--target", "min-mu", "--j", "2", "--grid", "4", "3"),
                 ("optimize", "--target", "max-nu1", "--grid", "16", "3"),
                 ("ratio-table", "--grid", "4", "3")):
        proc = run_cli(*args, "--out", str(tmp_path))
        _assert_one_line_error(proc, 2, f"grid {args[-2]} x 3 is too coarse for n_modes=30")
        assert "not positive definite" in proc.stderr


def test_ratio_table_weyl_flag(tmp_path):
    proc = run_cli("ratio-table", "--ell", str(math.pi / 2), "--weyl",
                   "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(tmp_path / "weyl.csv")
    assert rows[0] == ["h", "lambda_h", "ratio"]
    meta = json.loads((tmp_path / "weyl_meta.json").read_text())
    assert 1 / 1.5 <= meta["median_ratio"] <= 1.5


def test_eigs_bad_reconstruct_parity(tmp_path):
    cfg = PlateConfig()
    wfile = tmp_path / "u.json"
    wfile.write_text(weight_to_json(make_uniform(cfg)))
    proc = run_cli("eigs", "--weight", str(wfile), "--out", str(tmp_path),
                   "--reconstruct", "sideways", "1")
    assert proc.returncode == 2


def test_optimize_j_out_of_range(tmp_path):
    proc = run_cli("optimize", "--target", "min-mu", "--j", "99",
                   "--n-modes", "12", "--out", str(tmp_path))
    assert proc.returncode == 2


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
def test_optimize_rejects_bad_epsilon(tmp_path, epsilon):
    # the damped search has no stop tolerance: --epsilon is no longer an
    # option, so any value of it is a usage error that writes nothing
    proc = run_cli("optimize", "--target", "min-mu", "--epsilon", epsilon,
                   "--grid", "60", "31", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "unrecognized arguments: --epsilon" in proc.stderr
    assert not (tmp_path / "optimize_meta.json").exists()


def test_grid_only_on_commands_that_read_it(tmp_path, capsys):
    # spectrum reads no grid, so --grid is unknown there, as any other option
    # it does not take; it used to check a grid it never read
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--grid", "600", "31", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid 600 31" in capsys.readouterr().err
    assert not (tmp_path / "table1.csv").exists()
    for cmd in (["eigs", "--weight", str(tmp_path / "w.json")],
                ["optimize", "--target", "max-nu1"], ["ratio-table"]):
        assert main([*cmd, "--grid", "4", "2", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: grid must be at least 4 x 3 with odd NY, got 4 2\n"


def test_rejects_even_grid(tmp_path):
    proc = run_cli("optimize", "--target", "min-mu", "--j", "1",
                   "--grid", "100", "10", "--out", str(tmp_path))
    assert proc.returncode == 2


def test_ratio_table_csv_contract(tmp_path):
    # header and row labels are a stable scripting interface
    proc = run_cli("ratio-table", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(tmp_path / "ratio_table.csv")
    assert rows[0] == ["quantity", "uniform", "pbar10", "pstar", "pbreve",
                       "pdoublebar", "ptilde"]
    labels = [r[0] for r in rows[1:]]
    assert labels == [f"mu_{i}" for i in range(1, 13)] + ["nu_1", "nu_2", "R"]
    for row in rows[1:]:
        for cell in row[1:]:
            float(cell)  # every cell is %.6e-parseable
    dev = read_csv(tmp_path / "ratio_table_deviation.csv")
    assert dev[0] == rows[0]
    # benchmark deviations: 2% everywhere, 5% for the reconstructed cross weight
    for row in dev[1:]:
        for label, cell in zip(rows[0][1:], row[1:]):
            tol = 0.05 if label == "ptilde" else 0.02
            assert float(cell) <= tol, (row[0], label, cell)
