"""Command line front end.

Commands: spectrum, eigs, optimize, ratio-table. All physical defaults match
the benchmark configuration, so a bare invocation reproduces the published
numbers. Exit codes: 0 success, 2 configuration error, 3 weight error,
4 non-convergence, 5 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import galerkin, numerics, optimize, reference, spectrum, weights
from .config import PlateConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_WEIGHT = 3
EXIT_NO_CONVERGENCE = 4
EXIT_NUMERICAL = 5

FLOAT_FMT = optimize.FLOAT_FMT


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _atomic_write(path: Path, text: str) -> None:
    """Replace path by a file holding text, through a temporary file beside
    it. CliError (exit 2) if path cannot be written."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # mkstemp creates 0600; follow the umask instead
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise CliError(f"cannot write {path}: {exc}", EXIT_CONFIG) from exc
        raise


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


# Grid CSVs are built from 16-byte cells: the separator that precedes the
# number, "-" or a NUL, two NULs and the 12 characters "d.dddddde+XX" of
# FLOAT_FMT as three 4-character words. The NULs are dropped at the end.
def _words(strings) -> np.ndarray:
    return np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint32)


def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """The words "d.dd" for 0 .. 999 and "dddd" for 0 .. 9999."""
    pairs = (48 + np.arange(100)[:, None] // [10, 1] % 10).astype(np.uint8)  # "00" .. "99"
    lead = np.empty((10, 100, 4), dtype=np.uint8)
    lead[..., 0] = 48 + np.arange(10)[:, None]
    lead[..., 1] = ord(".")
    lead[..., 2:] = pairs
    tail = np.empty((100, 100, 4), dtype=np.uint8)
    tail[..., :2] = pairs[:, None]
    tail[..., 2:] = pairs
    return lead.view(np.uint32).ravel(), tail.view(np.uint32).ravel()


_LEAD, _TAIL = _digit_words()
_EXP = _words(f"e{e:+03d}" for e in range(-99, 100))                  # "e+XX"
_POW10 = np.array([float(f"1e{6 - e}") for e in range(-99, 100)])    # 10**(6-e), rounded
_ROWS_PER_BLOCK = 256   # x rows formatted at a time, which bounds the temporaries


def _cells(values: np.ndarray, sep: str) -> np.ndarray:
    """sep + FLOAT_FMT % v for every v, as NUL-padded 16-byte cells (dtype V16).

    A value of magnitude in [1e-98, 1e99) with e = floor(log10|v|) is scaled
    to y = |v| * 10**(6 - e) in [1e6, 1e7]. The scale factor and the product
    are each correctly rounded, so y lies within 3e-9 of the exact scaled
    value, and rint(y) holds the seven digits FLOAT_FMT prints (the exact
    binary value correctly rounded) unless y is within 1e-7 of a .5 tie.
    Near-ties, subnormals, 3-digit exponents and non-finite values are
    formatted one by one with FLOAT_FMT.
    """
    v = np.asarray(values, dtype=float)
    a = np.abs(v)
    fast = (a >= 1e-98) & (a < 1e99)
    e = np.floor(np.log10(np.where(fast, a, 1.0))).astype(np.intp)
    y = np.where(fast, a, 0.0) * _POW10[e + 99]
    r = np.rint(y)
    # where log10 rounds across a power of ten, r falls outside [1e6, 1e7]
    ok = fast & (np.abs(y - r) < 0.5 - 1e-7) & (r >= 1e6) & (r <= 1e7)
    carry = r == 1e7                               # 9.9999996 prints as 1.000000e+01
    digits = np.where(ok, r - 9e6 * carry, 0.0).astype(np.intp)
    e = np.where(ok, e + carry, 0)                 # +-0 prints as digits 0, e+00
    out = np.empty(v.shape + (4,), dtype=np.uint32)
    out[..., 0] = np.where(np.signbit(v), *_words([sep + "-\0\0", sep + "\0\0\0"]))
    out[..., 1] = _LEAD[digits // 10000]
    out[..., 2] = _TAIL[digits % 10000]
    out[..., 3] = _EXP[e + 99]
    cells = out.view("V16")[..., 0]
    slow = ~ok & (v != 0)
    if slow.any():
        cells[slow] = np.array([(sep + FLOAT_FMT % x).encode("ascii") for x in v[slow]],
                               dtype="S16").view("V16")
    return cells


def _grid_csv(field: weights.GridField, mask=None) -> str:
    """x,y,value lines on the field's grid, x outermost, every number as
    FLOAT_FMT. With a boolean mask of the grid's shape, the value column is its
    0/1 indicator instead of the field's values."""
    if mask is not None:
        if mask.shape != field.values.shape:
            raise ValueError(f"mask shape {mask.shape} differs from the grid's "
                             f"{field.values.shape}")
        zero, one = _cells(np.array([0.0, 1.0]), ",")
    xs = _cells(field.xs, "\n")
    ys = _cells(field.ys, ",")
    # each line starts with its newline: "x,y,value" "\nx,y,v" ... "\n"
    parts = ["x,y,value"]
    for i in range(0, field.nx, _ROWS_PER_BLOCK):
        rows = slice(i, i + _ROWS_PER_BLOCK)
        block = np.empty((len(xs[rows]), field.ny, 3), dtype="V16")
        block[..., 0] = xs[rows, None]
        block[..., 1] = ys
        block[..., 2] = (np.where(mask[rows], one, zero) if mask is not None
                         else _cells(field.values[rows], ","))
        parts.append(block.tobytes().translate(None, b"\0").decode("ascii"))
    parts.append("\n")
    return "".join(parts)


def _config_from(args: argparse.Namespace) -> PlateConfig:
    nx, ny = args.grid
    if nx < 4 or ny < 3 or ny % 2 == 0:
        raise CliError(f"grid must be at least 4 x 3 with odd NY, got {nx} {ny}",
                       EXIT_CONFIG)
    try:
        return PlateConfig(ell=args.ell, sigma=args.sigma, alpha=args.alpha,
                           beta=args.beta, n_modes=args.n_modes)
    except ValueError as exc:
        raise CliError(f"invalid configuration: {exc}", EXIT_CONFIG) from exc


def _too_coarse(grid: tuple[int, int], n_modes: int, exc: Exception) -> CliError:
    # an admissible weight has a positive definite mass matrix; on this grid
    # the sampled weight cannot resolve the basis
    return CliError(f"grid {grid[0]} x {grid[1]} is too coarse for n_modes={n_modes}: {exc}",
                    EXIT_CONFIG)


def _load_weight(path: str, cfg: PlateConfig) -> weights.Weight:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read weight file {path}: {exc}", EXIT_WEIGHT) from exc
    try:
        w = weights.weight_from_json(text)
    except weights.WeightError as exc:
        raise CliError(f"weight file {path}: {exc}", EXIT_WEIGHT) from exc
    report = weights.validate(w, cfg)
    if not report.passed:
        raise CliError(f"weight file {path} fails admissibility: {report.detail}",
                       EXIT_WEIGHT)
    return w


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    if cfg.n_modes < 12:
        raise CliError("spectrum table needs n_modes >= 12", EXIT_CONFIG)
    spec = spectrum.build_spectrum(cfg)
    spectrum.known_j0(spec)
    out = Path(args.out)
    lines = ["m,mu_m,nu_m"]
    for i in range(12):
        lines.append(f"{i + 1},{_fmt(spec.mu[i].lam)},{_fmt(spec.nu[i].lam)}")
    _atomic_write(out / "table1.csv", "\n".join(lines) + "\n")

    holds, s_star = spectrum.check_c0(cfg)
    meta = {
        "j0": spec.j0,
        "c0_holds": holds,
        "s_star": s_star,
        "torsional_first_threshold": math.floor(s_star),
        "nu1_mode": {"m": spec.nu[0].mode.m, "k": spec.nu[0].mode.k},
        "config": {"ell": cfg.ell, "sigma": cfg.sigma, "alpha": cfg.alpha,
                   "beta": cfg.beta, "n_modes": cfg.n_modes},
    }
    _atomic_write(out / "spectrum_meta.json", json.dumps(meta, indent=2) + "\n")
    print(f"wrote {out / 'table1.csv'} and spectrum_meta.json (j0={spec.j0})")
    return EXIT_OK


def cmd_eigs(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    w = _load_weight(args.weight, cfg)
    spec = spectrum.build_spectrum(cfg)
    try:
        gs = galerkin.solve_weighted(w, spec)
    except galerkin.SingularMass as exc:
        # admissible, but sampled too coarsely to resolve the basis
        raise CliError(f"weight file {args.weight} cannot be solved at n_modes="
                       f"{cfg.n_modes}: {exc}", EXIT_WEIGHT) from exc
    out = Path(args.out)
    lines = ["index,parity,value"]
    for i, v in enumerate(gs.mu_p, 1):
        lines.append(f"{i},even,{_fmt(v)}")
    for i, v in enumerate(gs.nu_p, 1):
        lines.append(f"{i},odd,{_fmt(v)}")
    _atomic_write(out / "eigenvalues.csv", "\n".join(lines) + "\n")
    written = ["eigenvalues.csv"]
    if args.reconstruct:
        parity, idx = args.reconstruct
        if parity not in ("even", "odd"):
            raise CliError(f"reconstruct parity must be 'even' or 'odd', "
                           f"got {parity!r}", EXIT_CONFIG)
        try:
            idx = int(idx)
        except ValueError as exc:
            raise CliError(f"reconstruct index must be an integer: {idx!r}",
                           EXIT_CONFIG) from exc
        fld = galerkin.reconstruct(gs, spec, (parity, idx), tuple(args.grid))
        name = f"eigenfunction_{parity}_{idx}.csv"
        _atomic_write(out / name, _grid_csv(fld))
        written.append(name)
    print(f"wrote {', '.join(written)} in {out}")
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    if args.target == "max-nu1" and args.j is not None:
        raise CliError("--j applies to --target min-mu only", EXIT_CONFIG)
    j = 1 if args.j is None else args.j
    if args.sin4_compare and (args.target != "min-mu" or j < 2):
        raise CliError("--sin4-compare needs --target min-mu with --j >= 2", EXIT_CONFIG)
    cfg = _config_from(args)
    spec = spectrum.build_spectrum(cfg)
    grid = tuple(args.grid)
    try:
        if args.target == "min-mu":
            trace = optimize.minimize_mu_j(j, cfg, max_iters=args.max_iters,
                                           spectrum=spec, grid=grid)
        else:
            trace = optimize.maximize_nu1_fixed_point(cfg, max_iters=args.max_iters,
                                                      spectrum=spec, grid=grid)
    except galerkin.SingularMass as exc:
        raise _too_coarse(grid, cfg.n_modes, exc) from exc
    del spec  # frees the search's grid tables before the outputs are written
    out = Path(args.out)
    final = trace.final_weight
    _atomic_write(out / "trace.jsonl", optimize.trace_to_jsonl(trace))
    _atomic_write(out / "final_weight.json", weights.weight_to_json(final) + "\n")

    meta = {
        "target": trace.target,
        "stop_reason": trace.stop_reason,
        "iterations": len(trace.iterates),
        "final_eigenvalue": trace.final_value,
        "gap": trace.gap,
    }
    v = final.variant
    if isinstance(v, weights.Sublevel):
        meta["threshold"] = v.threshold
        meta["tie_fraction"] = v.tie_fraction
        _atomic_write(out / "field.csv", _grid_csv(v.field))
        _atomic_write(out / "sset.csv", _grid_csv(v.field, mask=v.inside_mask()))
    if args.sin4_compare:
        meta["sin4_threshold"] = weights.pj_sin4_threshold(j, cfg)
        meta["sin4_threshold_exact"] = weights.sin4_level_exact(cfg)
    _atomic_write(out / "optimize_meta.json", json.dumps(meta, indent=2) + "\n")
    print(f"{trace.target}: {trace.stop_reason} after {len(trace.iterates)} iterates, "
          f"final value {_fmt(trace.final_value)} (files in {out})")
    return EXIT_OK if trace.stop_reason != optimize.MAX_ITERS else EXIT_NO_CONVERGENCE


def cmd_ratio_table(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    if cfg.n_modes < 12:
        raise CliError("ratio table needs n_modes >= 12", EXIT_CONFIG)
    spec = spectrum.build_spectrum(cfg)
    grid = tuple(args.grid)
    n = max(min(cfg.n_modes, 30), spectrum.known_j0(spec))
    try:
        report = optimize.ratio_study(optimize.default_study_weights(cfg, spec, grid),
                                      cfg, spec, n=n)
    except galerkin.SingularMass as exc:
        raise _too_coarse(grid, n, exc) from exc
    out = Path(args.out)
    _atomic_write(out / "ratio_table.csv", optimize.ratio_report_to_csv(report))

    # deviations against the benchmark columns (reference configuration only)
    refs = {label: (*mu, *nu, r) for label, (mu, nu, r) in reference.RATIO_TABLE.items()}
    deviations = [[abs(v - r) / abs(r) for v, r in zip(row.values(), refs[row.label])]
                  if row.label in refs else None for row in report.rows]
    _atomic_write(out / "ratio_table_deviation.csv",
                  optimize.ratio_csv([r.label for r in report.rows], deviations))
    written = ["ratio_table.csv", "ratio_table_deviation.csv"]

    if args.weyl:
        n_weyl = max(cfg.n_modes, 250)
        spec_w = spectrum.build_spectrum(cfg.with_(n_modes=n_weyl), cap=max(500, n_weyl))
        merged = galerkin.merged_eigenvalues(spec_w)
        hi = min(400, merged.size)
        rep = galerkin.weyl_diagnostic(weights.make_uniform(cfg), merged,
                                       (hi // 2, hi), cfg)
        wl = ["h,lambda_h,ratio"]
        for h, lam, r in zip(rep.h, rep.lam, rep.ratio):
            wl.append(f"{h},{_fmt(lam)},{_fmt(r)}")
        _atomic_write(out / "weyl.csv", "\n".join(wl) + "\n")
        _atomic_write(out / "weyl_meta.json", json.dumps({
            "median_ratio": rep.median_ratio,
            "top_half_spread": rep.top_half_spread,
            "window": [int(rep.h[0]), int(rep.h[-1])],
        }, indent=2) + "\n")
        written += ["weyl.csv", "weyl_meta.json"]
    print(f"wrote {', '.join(written)} in {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ell", type=float, default=math.pi / 150,
                   help="half-width of the plate (default pi/150)")
    p.add_argument("--sigma", type=float, default=0.2, help="Poisson ratio")
    p.add_argument("--alpha", type=float, default=0.5, help="lower density bound")
    p.add_argument("--beta", type=float, default=1.5, help="upper density bound")
    p.add_argument("--n-modes", type=int, default=30, dest="n_modes",
                   help="basis truncation per parity")
    p.add_argument("--grid", type=int, nargs=2, default=(600, 31),
                   metavar=("NX", "NY"), help="cell grid for field output")
    p.add_argument("--out", type=str, default=".", help="output directory")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parse_args leaves it
    unchanged, so in-process main calls share it)."""
    ap = argparse.ArgumentParser(
        prog="plate-spectra",
        description="Weighted eigenvalues of a partially hinged plate and "
                    "bang-bang density optimization.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="uniform-plate eigenvalue table")
    _add_common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("eigs", help="weighted eigenvalues for a weight spec file")
    _add_common(p)
    p.add_argument("--weight", required=True, help="weight spec JSON file")
    p.add_argument("--reconstruct", nargs=2, metavar=("PARITY", "INDEX"),
                   help="also write one reconstructed eigenfunction grid")
    p.set_defaults(fn=cmd_eigs)

    p = sub.add_parser("optimize", help="run a density optimization")
    _add_common(p)
    p.add_argument("--target", choices=["min-mu", "max-nu1"], required=True)
    p.add_argument("--j", type=int, help="eigenvalue index for min-mu (default 1)")
    p.add_argument("--max-iters", type=int, default=100, dest="max_iters")
    p.add_argument("--sin4-compare", action="store_true", dest="sin4_compare",
                   help="record the banded sin^4 threshold for comparison")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("ratio-table", help="benchmark table over the six study weights")
    _add_common(p)
    p.add_argument("--weyl", action="store_true",
                   help="append the asymptotic-growth diagnostic")
    p.set_defaults(fn=cmd_ratio_table)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except weights.WeightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WEIGHT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (numerics.NumericsError, spectrum.SpectrumError,
            galerkin.GalerkinError, optimize.OptimizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
