#!/usr/bin/env python3
"""plate-spectra benchmark: one closed-loop client, seeded inputs, checked results.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
is a JSON report with the environment, the input digest, tail percentile and
sample count, failures and the trace self-check; a traced run also writes its
spans to .bench_spans/.  See bench/README.md.
"""
from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREADS_VAR = "PLATE_SPECTRA_THREADS"
SPANS_DIR = ROOT / ".bench_spans"
SETUP_REPEATS = 7
DIGEST_ROUNDS = 16
WARMUP_S = 2.0


def _import_package() -> None:
    """Import plate_spectra from this checkout's src/, never from elsewhere."""
    if not (SRC / "plate_spectra" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'plate_spectra'} not found; run from a full checkout")
    for path in (str(SRC), str(Path(__file__).resolve().parent)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import plate_spectra
    if Path(plate_spectra.__file__).resolve().parent != SRC / "plate_spectra":
        sys.exit(f"error: imported plate_spectra from {plate_spectra.__file__}")


def make_workload(name: str, seed: int):
    import workloads
    cls = workloads.WORKLOADS[name]
    if cls is workloads.DensitySearch:
        return cls(seed, ROOT / ".bench_work" / f"run-{os.getpid()}")
    return cls(seed)


# ---------------------------------------------------------------------------
# set-up time: import plus workload set-up, in fresh processes
# ---------------------------------------------------------------------------

def setup_probe(name: str, seed: int) -> None:
    _import_package()
    make_workload(name, seed).setup()
    print(repr(time.perf_counter() - _T_START))


def measure_setup(name: str, seed: int, repeats: int) -> list[float]:
    env = {k: v for k, v in os.environ.items() if k != THREADS_VAR}
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Phase:
    """Results of one pass over the workload's rounds."""

    def __init__(self) -> None:
        self.latencies: list[float] = []      # verified timed ops
        self.busy_s = 0.0                     # all timed ops, verified or not
        self.ops: list[dict] = []             # timed ops, in order
        self.op_ids: set[int] = set()
        self.rounds = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.rel_errs: list[float] = []
        self.gains: list[float] = []

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.busy_s if self.busy_s > 0 else 0.0


def run_op(wl, op: dict, phase: Phase, tracer, op_id: int, timed: bool) -> None:
    """Run one op, time it, then check its result outside the timer."""
    from workloads import CheckFailed
    phase.attempted += 1
    prep = wl.prepare(op)
    gc.collect()    # leave no garbage from earlier ops or checks to this op's timer
    if tracer is not None:
        tracer.op = op_id
        span = tracer.begin("op")
    error = None
    t0 = time.perf_counter()
    try:
        result = wl.run(op, prep)
    except Exception:
        error = "raised " + traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.finish(span)
        tracer.op = None
    if timed:
        phase.busy_s += elapsed
        phase.ops.append(op)
        phase.op_ids.add(op_id)
    if error is None:
        try:
            outcome = wl.check(op, prep, result)
        except CheckFailed as exc:
            error = str(exc)
        except Exception:
            error = "check raised " + traceback.format_exc(limit=3)
    if error is not None:
        phase.failures.append(f"{op}: {error}")
        return
    if timed:
        phase.latencies.append(elapsed)
        if outcome.gain is not None:
            phase.gains.append(outcome.gain)
    if outcome.rel_err is not None:
        phase.rel_errs.append(outcome.rel_err)


def run_phase(wl, seconds: float, tracer=None, warmup: bool = True,
              smoke: int = 0) -> Phase:
    """Warm-up ops (checked, untimed) for WARMUP_S, then whole rounds for
    about ``seconds``.

    Another round starts only while it would end nearer to ``seconds`` than
    stopping now, judged by the mean round time so far; at least one runs.
    """
    phase = Phase()
    if warmup:
        t_end = time.perf_counter() + (0.0 if smoke else WARMUP_S)
        while True:
            for op in wl.warmup():
                run_op(wl, op, phase, None, -1, timed=False)
            if time.perf_counter() >= t_end:
                break
    t_start = time.perf_counter()
    op_id = 0
    while True:
        ops = wl.round(phase.rounds)
        if smoke:
            ops = ops[:smoke]
        for op in ops:
            run_op(wl, op, phase, tracer, op_id, timed=True)
            op_id += 1
        phase.rounds += 1
        elapsed = time.perf_counter() - t_start
        if smoke or elapsed + 0.5 * elapsed / phase.rounds >= seconds:
            return phase


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with weights from the
    Beta((n+1)q, (n+1)(1-q)) distribution over the n equal cells of [0, 1].
    Unlike the sample quantile it moves smoothly when the ops near the
    quantile shift, so a few ops crossing a gap between cost clusters do
    not move it by the width of the gap.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 1:
        return float(x[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    sub = 64                                   # midpoint samples per cell
    t = (np.arange(n * sub) + 0.5) / (n * sub)
    logpdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(logpdf - logpdf.max())
    w = pdf.reshape(n, sub).sum(axis=1)
    return float(w @ x / w.sum())


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten ops beyond it."""
    n = len(latencies)
    if n <= 10:
        return max(latencies), 100.0, n
    pct = 100.0 * (n - 10) / n
    return quantile(latencies, pct / 100.0), pct, n


def end_to_end(phase: Phase, setup_times: list[float], attempted: int, failed: int) -> dict:
    """The user-visible metrics; 0.0 stands in where no op was verified."""
    lat = phase.latencies
    return {
        "op_s.p50": (quantile(lat, 0.5) if lat else 0.0, "s"),
        "op_s.tail": (tail(lat)[0] if lat else 0.0, "s"),
        "ops_per_s": (phase.ops_per_s, "op/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "verified_ratio": ((attempted - failed) / attempted, "ratio"),
        "max_rel_err": (max(phase.rel_errs, default=0.0), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "objective_gain": (statistics.fmean(phase.gains) if phase.gains else 0.0, "ratio"),
    }


def per_layer(tracer, phase: Phase, untraced: Phase, focus: set[str]) -> dict:
    ops = phase.op_ids
    n_ops = max(1, len(ops))

    def spans(*names):
        return [s for s in tracer.spans if s.name in names and s.op in ops]

    def per_op(x):
        return x / n_ops

    def cov(*names):
        return per_op(tracer.covered(set(names), ops))

    builds = spans("spectrum.build_spectrum")
    roots_in_build = [s for s in spans("numerics.find_root")
                      if _has_ancestor(s, "spectrum.build_spectrum")]
    searches = spans("optimize.search")
    rounds = [s for s in spans("galerkin.solve_parity") if _has_ancestor(s, "optimize.search")]
    assembles = spans("galerkin.assemble_band", "galerkin.assemble_sublevel")
    pairs = sum(s.attrs["pairs"] for s in builds)
    op_time = tracer.covered({"op"}, ops)
    return {
        "numerics.sym_eig_calls": (per_op(len(spans("numerics.sym_eig"))), "1/op"),
        "numerics.sym_eig_s": (cov("numerics.sym_eig"), "s/op"),
        "numerics.sym_eig_n3": (per_op(sum(s.attrs["n"] ** 3 for s in spans("numerics.sym_eig"))), "n3/op"),
        "numerics.root_calls": (per_op(len(spans("numerics.find_root"))), "1/op"),
        "numerics.root_evals": (per_op(sum(s.attrs["evals"] for s in spans("numerics.find_root"))), "1/op"),
        "numerics.root_s": (cov("numerics.find_root"), "s/op"),
        "numerics.quad_calls": (per_op(len(spans("numerics.quad"))), "1/op"),
        "numerics.quad_s": (cov("numerics.quad"), "s/op"),
        "spectrum.build_calls": (per_op(len(builds)), "1/op"),
        "spectrum.build_s": (per_op(sum(s.self_s for s in spans(
            "spectrum.build_spectrum", "spectrum.find_hom_eigenvalue"))), "s/op"),
        "spectrum.hom_eig_calls": (per_op(len(spans("spectrum.find_hom_eigenvalue"))), "1/op"),
        "spectrum.pairs": (per_op(pairs), "1/op"),
        "spectrum.warnings": (per_op(sum(s.attrs["warnings"] for s in builds)), "1/op"),
        "spectrum.kept_per_root": (pairs / len(roots_in_build) if roots_in_build else 0.0, "ratio"),
        "weights.validate_s": (cov("weights.validate"), "s/op"),
        "weights.sublevel_split_s": (cov("weights.sublevel_split"), "s/op"),
        "weights.sample_field_s": (cov("weights.sample_field"), "s/op"),
        "weights.json_s": (cov("weights.weight_to_json", "weights.weight_to_dict",
                               "weights.weight_from_json"), "s/op"),
        "galerkin.assemble_band_s": (cov("galerkin.assemble_band"), "s/op"),
        "galerkin.assemble_sublevel_s": (cov("galerkin.assemble_sublevel"), "s/op"),
        "galerkin.assemble_calls": (per_op(len(assembles)), "1/op"),
        "galerkin.assemble_bytes": (per_op(sum(s.attrs["bytes"] for s in assembles)), "B/op"),
        "galerkin.solve_s": (per_op(sum(s.self_s for s in spans(
            "galerkin.solve_parity", "galerkin.solve_weighted"))), "s/op"),
        "galerkin.expand_calls": (per_op(len(spans("galerkin.expand_field"))), "1/op"),
        "galerkin.expand_s": (cov("galerkin.expand_field"), "s/op"),
        "galerkin.weyl_s": (cov("galerkin.merged_eigenvalues", "galerkin.weyl_diagnostic"), "s/op"),
        "optimize.rounds": (len(rounds) / len(searches) if searches else 0.0, "1/search"),
        "optimize.accepted_per_round": (
            sum(s.attrs["accepted"] for s in searches) / len(rounds) if rounds else 0.0, "ratio"),
        "optimize.rearrange_s": (cov("optimize.rearrange"), "s/op"),
        "optimize.max_iters_stops": (sum(s.attrs["max_iters"] for s in searches), "count"),
        "cli.format_s": (cov("cli._grid_csv", "cli.trace_to_jsonl", "weights.weight_to_json",
                             "cli.ratio_report_to_csv"), "s/op"),
        "cli.write_s": (cov("cli._atomic_write"), "s/op"),
        "cli.write_bytes": (per_op(sum(s.attrs["bytes"] for s in spans("cli._atomic_write"))), "B/op"),
        "trace.overhead": (untraced.ops_per_s / phase.ops_per_s if phase.ops_per_s else 0.0, "ratio"),
        "trace.focus_share": (tracer.covered(focus, ops) / op_time if op_time else 0.0, "ratio"),
    }


def _has_ancestor(span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


# Spans of the layers each workload was chosen to exercise.
FOCUS = {
    "spectrum-sweep": {"spectrum.build_spectrum", "numerics.find_root", "numerics.quad"},
    "weighted-solve": {"galerkin.assemble_band", "galerkin.assemble_sublevel", "numerics.sym_eig"},
    "density-search": {"galerkin.expand_field", "optimize.rearrange", "weights.validate",
                       "weights.sublevel_split", "weights.sample_field",
                       "weights.weight_to_json", "weights.weight_to_dict",
                       "weights.weight_from_json", "cli._grid_csv", "cli.trace_to_jsonl",
                       "cli._atomic_write"},
}

# Bindings that must be traced for the counts to be complete.
REQUIRED_BINDINGS = (
    "plate_spectra.galerkin.sym_eig", "plate_spectra.spectrum.find_root",
    "plate_spectra.weights.find_root", "plate_spectra.optimize.solve_parity",
    "plate_spectra.optimize.expand_field", "plate_spectra.optimize.sublevel_split",
    "plate_spectra.optimize.build_spectrum", "plate_spectra.cli._atomic_write",
    "plate_spectra.numerics.QuadratureRule.nodes_weights",
)


def self_check(wl, tracer, phase: Phase, unpatched: list[str]) -> dict:
    ops = phase.op_ids
    counts = {}
    for name, want in wl.expected_counts(phase.ops).items():
        got = sum(1 for s in tracer.spans if s.op in ops
                  and (s.name == name or s.name.startswith(name + "_")))
        counts[name] = {"expected": want, "traced": got}
    bound = {b for names in tracer.bindings.values() for b in names}
    missing = [b for b in REQUIRED_BINDINGS if b not in bound]
    ok = (all(c["expected"] == c["traced"] for c in counts.values())
          and not missing and not unpatched)
    return {"passed": ok, "counts": counts, "missing_bindings": missing,
            "unpatched_bindings": unpatched}


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def environment(seed: int, inputs_digest: str, threads_env: str | None) -> dict:
    import platform

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy's build record differs between versions
        blas = None
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "plate_spectra").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        THREADS_VAR: threads_env,   # as given by the caller; the run unsets it
        "git_sha": sha,
        "source_sha256": src_digest.hexdigest(),
        "seed": seed,
        "inputs_sha256": inputs_digest,
    }


def inputs_digest(wl) -> str:
    """Digest of the warm-up ops and the first DIGEST_ROUNDS rounds."""
    ops = [wl.warmup()] + [wl.round(r) for r in range(DIGEST_ROUNDS)]
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, smoke: int = 0) -> tuple[dict, dict]:
    """Run one workload; returns (result, report)."""
    threads_env = os.environ.pop(THREADS_VAR, None)
    _import_package()
    setup_times = [] if trace else measure_setup(name, seed, 1 if smoke else SETUP_REPEATS)
    wl = make_workload(name, seed)
    try:
        wl.setup()
        digest = inputs_digest(wl)
        plain = run_phase(wl, seconds / 2 if trace else seconds, smoke=smoke)
        phases = [plain]
        check = None
        if trace:
            import tracing
            tracer = tracing.Tracer()
            tracing.install_package_tracing(tracer)
            unpatched = tracer.unpatched()
            try:
                traced = run_phase(wl, seconds / 2, tracer=tracer, warmup=False, smoke=smoke)
            finally:
                tracer.uninstall()
            phases.append(traced)
            check = self_check(wl, tracer, traced, unpatched)
            metrics = per_layer(tracer, traced, plain, FOCUS[name])
            spans_file = SPANS_DIR / f"{name}-seed{seed}.jsonl"
            tracer.dump(spans_file)
    finally:
        workdir = getattr(wl, "workdir", None)
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                workdir.parent.rmdir()
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    if not trace:
        metrics = end_to_end(plain, setup_times, attempted, len(failures))
    correct = not failures and (check is None or check["passed"])
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    _, pct, samples = tail(phases[-1].latencies) if phases[-1].latencies else (0, 0, 0)
    report = {
        "workload": name, "trace": int(trace),
        "env": environment(seed, digest, threads_env),
        "phases": [{"rounds": p.rounds, "timed_ops": len(p.ops), "busy_s": p.busy_s,
                    "ops_per_s": p.ops_per_s} for p in phases],
        "tail_percentile": pct, "tail_samples": samples,
        "setup_samples_s": setup_times,
        "failures": failures[:20],
        "self_check": check,
        "spans_file": str(spans_file.relative_to(ROOT)) if trace else None,
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["spectrum-sweep", "weighted-solve", "density-search"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", type=int, default=0, metavar="OPS",
                    help="run only OPS timed ops and one set-up probe")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         smoke=args.smoke)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
