"""Command line front end.

Commands: spectrum, eigs, optimize, ratio-table. All physical defaults match
the benchmark configuration, so a bare invocation reproduces the published
numbers. Exit codes: 0 success, 2 configuration error, 3 weight error,
4 non-convergence, 5 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import itertools
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


# A grid CSV is written into one byte buffer in which every number has a
# fixed slot. A number is the 12 characters "d.dddddde+XX" of FLOAT_FMT % |v|,
# three 4-character words copied as one 12-byte item, after a minus sign where
# it has one.
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
_HEAD = b"x,y,value"


def _bodies(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """FLOAT_FMT % |v| for every v as 12-byte items (dtype V12), and the mask
    of the values whose text those items are not.

    A value of magnitude in [1e-98, 1e99) with e = floor(log10|v|) is scaled
    to y = |v| * 10**(6 - e) in [1e6, 1e7]. The scale factor and the product
    are each correctly rounded, so y lies within 3e-9 of the exact scaled
    value, and rint(y) holds the seven digits FLOAT_FMT prints (the exact
    binary value correctly rounded) unless y is within 1e-7 of a .5 tie.
    Near-ties, subnormals, 3-digit exponents and non-finite values are left
    to FLOAT_FMT one by one; +-0 is "0.000000e+00".
    """
    v = np.asarray(values, dtype=float)
    a = np.abs(v)
    fast = (a >= 1e-98) & (a < 1e99)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    y = a * _POW10[e + 99]
    r = np.rint(y)
    # where log10 rounds across a power of ten, r falls outside [1e6, 1e7]
    ok = fast & (np.abs(y - r) < 0.5 - 1e-7) & (r >= 1e6) & (r <= 1e7)
    r = np.where(ok, r, 0.0)                       # +-0 prints as digits 0, e+00
    carry = r == 1e7                               # 9.9999996 prints as 1.000000e+01
    r = np.where(carry, 1e6, r)
    e += carry
    lead = np.floor(r * 1e-4)                      # exact: r is an integer below 2**53
    out = np.empty(v.shape + (3,), dtype=np.uint32)
    out[..., 0] = _LEAD[lead.astype(np.intp)]
    out[..., 1] = _TAIL[(r - lead * 1e4).astype(np.intp)]
    out[..., 2] = _EXP[e + 99]
    return out.view("V12")[..., 0], ~ok & (v != 0)


def _slot_width(v: np.ndarray) -> int:
    """An upper bound on len(FLOAT_FMT % x) over the x in v: 12, one more for
    a minus sign and one more for a 3-digit exponent (or a magnitude just
    below 1e100, which may round up to one)."""
    a = np.abs(v)
    wide = (a >= 9.999999e99) | ((a < 1e-99) & (a != 0))
    return 12 + bool(np.signbit(v).any()) + bool(wide.any())


def _tokens(values: np.ndarray, ny: int):
    """_put's body, neg and slow for FLOAT_FMT % v. Values of shape (n, 1)
    stand for every one of the ny columns."""
    body, slow = _bodies(values)
    neg = np.signbit(values)
    text = ([(i, j, FLOAT_FMT % values[i, j]) for i, j in zip(*np.nonzero(slow))]
            if slow.any() else [])
    if values.shape[1] == 1:
        text = [(i, j, t) for i, _, t in text for j in range(ny)]
        body, neg = (np.broadcast_to(t, (len(values), ny)) for t in (body, neg))
    return body, neg, text


def _put(rows: np.ndarray, runs, ends, width: int, row0: int, body: np.ndarray,
         neg, slow) -> None:
    """Write into each slot of `width` bytes that ends at offset ends[j] of
    rows[row0 + i] and holds "0.000000e+00" after NULs: body[i, j] at the
    start of its last 12 bytes (a 12-byte number or a 1-byte leading digit),
    a minus sign before it where neg[i, j] is set, and for each (i, j, text)
    in slow the whole slot as text after NULs. Each run (cols, step) names
    columns whose slots lie step bytes apart."""
    block = rows[row0:]
    for cols, step in runs:
        def slots(dtype, back):
            return np.ndarray((len(body), cols.stop - cols.start), dtype, block,
                              ends[cols.start] - back, (rows.shape[1], step))
        slots(body.dtype, 12)[...] = body[:, cols]
        if width > 12:
            np.copyto(slots(np.uint8, 13), np.uint8(ord("-")), where=neg[:, cols])
    for i, j, text in slow:
        slot = text.rjust(width, "\0").encode("ascii")
        block[i, ends[j] - width:ends[j]] = np.frombuffer(slot, dtype=np.uint8)


def _grid_csv(field: weights.GridField, mask=None) -> str:
    """x,y,value lines on the field's grid, x outermost, every number as
    FLOAT_FMT. With a boolean mask of the grid's shape, the value column is its
    0/1 indicator instead of the field's values.

    Every row of x is ny lines of the same layout: the x and value slots are
    as wide as the widest x and value text, the y texts exact. The file is
    built in one buffer, from a row that every row starts as a copy of, and
    the padding NULs, which only signed or 3-digit-exponent x or value
    columns need, are dropped at the end.
    """
    if mask is not None and mask.shape != field.values.shape:
        raise ValueError(f"mask shape {mask.shape} differs from the grid's "
                         f"{field.values.shape}")
    nx, ny = field.values.shape
    ys = [FLOAT_FMT % y for y in field.ys]
    wx = _slot_width(field.xs)
    wv = 12 if mask is not None else _slot_width(field.values)
    lines = [1 + wx + 1 + len(y) + 1 + wv for y in ys]     # "\n" x "," y "," value
    row_bytes = sum(lines)
    v_ends = list(itertools.accumulate(lines))
    x_ends = [end - n + 1 + wx for end, n in zip(v_ends, lines)]
    runs, j = [], 0
    for step, group in itertools.groupby(lines):
        k = len(list(group))
        runs.append((slice(j, j + k), step))
        j += k
    buf = np.empty(len(_HEAD) + nx * row_bytes + 1, dtype=np.uint8)
    buf[:len(_HEAD)] = np.frombuffer(_HEAD, dtype=np.uint8)
    buf[-1] = ord("\n")
    rows = buf[len(_HEAD):-1].reshape(nx, row_bytes)
    zero = FLOAT_FMT % 0.0
    pad_x, pad_v = zero.rjust(wx, "\0"), zero.rjust(wv, "\0")
    row = "".join("\n" + pad_x + "," + y + "," + pad_v for y in ys)
    rows[...] = np.frombuffer(row.encode("ascii"), dtype=np.uint8)
    _put(rows, runs, x_ends, wx, 0, *_tokens(field.xs[:, None], ny))
    for i in range(0, nx, _ROWS_PER_BLOCK):
        block = slice(i, i + _ROWS_PER_BLOCK)
        if mask is None:
            _put(rows, runs, v_ends, wv, i, *_tokens(field.values[block], ny))
        else:   # 1.000000e+00 differs from 0.000000e+00 in its leading digit
            digit = np.where(mask[block], np.uint8(ord("1")), np.uint8(ord("0")))
            _put(rows, runs, v_ends, wv, i, digit, None, ())
    text = str(memoryview(buf), "ascii")
    return text if max(wx, wv) == 12 else text.replace("\0", "")


def _grid_from(args: argparse.Namespace) -> tuple[int, int]:
    nx, ny = args.grid
    if nx < 4 or ny < 3 or ny % 2 == 0:
        raise CliError(f"grid must be at least 4 x 3 with odd NY, got {nx} {ny}",
                       EXIT_CONFIG)
    return nx, ny


def _config_from(args: argparse.Namespace) -> PlateConfig:
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
    grid = _grid_from(args)
    cfg = _config_from(args)
    w = _load_weight(args.weight, cfg)
    which = None
    if args.reconstruct:
        parity, idx = args.reconstruct
        if parity not in ("even", "odd"):
            raise CliError(f"reconstruct parity must be 'even' or 'odd', "
                           f"got {parity!r}", EXIT_CONFIG)
        try:
            which = (parity, int(idx))
        except ValueError as exc:
            raise CliError(f"reconstruct index must be an integer: {idx!r}",
                           EXIT_CONFIG) from exc
    spec = spectrum.build_spectrum(cfg)
    try:
        gs = galerkin.solve_weighted(w, spec)
        # the eigenvector solve of one parity; its eigenvalues can differ from
        # the values-only solve's in the last bits, and so can its verdict
        fld = None if which is None else galerkin.reconstruct(w, spec, which, grid)
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
    if fld is not None:
        name = f"eigenfunction_{which[0]}_{which[1]}.csv"
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
    grid = _grid_from(args)
    cfg = _config_from(args)
    try:
        if args.target == "min-mu":
            trace = optimize.minimize_mu_j(j, cfg, max_iters=args.max_iters, grid=grid)
        else:
            trace = optimize.maximize_nu1_fixed_point(cfg, max_iters=args.max_iters,
                                                      grid=grid)
    except galerkin.SingularMass as exc:
        raise _too_coarse(grid, cfg.n_modes, exc) from exc
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
    grid = _grid_from(args)
    cfg = _config_from(args)
    if cfg.n_modes < 12:
        raise CliError("ratio table needs n_modes >= 12", EXIT_CONFIG)
    spec = spectrum.build_spectrum(cfg)
    n = max(min(cfg.n_modes, 30), spectrum.known_j0(spec))
    try:
        report = optimize.ratio_study(optimize.default_study_weights(cfg, spec, grid),
                                      spec, n=n)
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

    for name in ("eigs", "optimize", "ratio-table"):   # the commands that read a grid
        sub.choices[name].add_argument("--grid", type=int, nargs=2, default=(600, 31),
                                       metavar=("NX", "NY"), help="cell grid for field output")
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
