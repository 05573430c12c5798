"""The three benchmark workloads: seeded inputs, the op, and its check.

Each workload produces its ops in *rounds*.  A round is a fixed design over
the workload's input space, the same in every round and on every seed; the
seed moves each value by a small jitter within its stratum and sets the
order of the ops.  An op's cost depends steeply on its inputs (on ``ell`` and
``n``, on the shape of a weight), so this keeps a run's cost mix, and with it
its medians, independent of the seed it was given.  Round ``r`` of seed ``s``
draws its jitter from ``numpy.random.default_rng([s, r])`` alone.

Checks run outside the op timer and use published references, a-priori
eigenvalue brackets and invariants the paper proves; an op that fails its
check is counted as failed, never as a timing.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from plate_spectra import cli, galerkin, optimize, reference, spectrum, weights
from plate_spectra.config import PlateConfig

REF = PlateConfig()                      # sigma 0.2, ell pi/150, alpha 0.5, beta 1.5
ELL_RANGE = (math.pi / 300, math.pi / 2)
SIGMA_RANGE = (0.05, 0.45)
JITTER = 0.1        # seeded jitter, as a share of a stratum or of a value's range
TEMPLATE_SEED = 190711097   # fixes the design; the run's seed does not change it
WARMUP_ROUND = 2 ** 32 - 1  # jitter stream of the warm-up ops, a round no run reaches


@dataclass
class Outcome:
    """What a passed check reports; a failed check raises CheckFailed."""
    rel_err: float | None = None    # worst deviation from a published reference
    gain: float | None = None       # objective gain, see README.md


class CheckFailed(Exception):
    pass


def _require(cond: bool, detail: str) -> None:
    if not cond:
        raise CheckFailed(detail)


def _rel(val: float, ref: float) -> float:
    return abs(val - ref) / abs(ref)


# ---------------------------------------------------------------------------
# spectrum-sweep: uniform-plate spectra (layer L1)
# ---------------------------------------------------------------------------

class SpectrumSweep:
    """build_spectrum over (sigma, ell, n_modes); n = 250 ops add the growth law.

    A round holds, for each n in {30, 100, 250}, STRATA ops with one ell value
    in each of STRATA equal strata of log(ell) over ELL_RANGE, each paired by
    a fixed rule with a sigma in one stratum of SIGMA_RANGE, plus the
    reference configuration and the growth-law configuration of acceptance
    criterion 9.  Each value lies within JITTER of a stratum's width around
    the stratum's centre.  Cost rises steeply at large ell and small sigma;
    with the strata, the pairing and the jitter fixed, every seed gets the
    same mix of cheap and costly configurations.
    """

    name = "spectrum-sweep"
    STRATA = 6
    SIZES = (30, 100, 250)
    CAP = 500
    CRIT9 = {"sigma": 0.2, "ell": math.pi / 2, "n": 250}
    REFERENCE = {"sigma": REF.sigma, "ell": REF.ell, "n": REF.n_modes}

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        pass

    def warmup(self) -> list[dict]:
        return [dict(self.REFERENCE, role="reference"), dict(self.CRIT9, role="criterion9")]

    def round(self, r: int) -> list[dict]:
        rng = np.random.default_rng([self.seed, r])
        lo, hi = (math.log(v) for v in ELL_RANGE)
        ops = [dict(self.REFERENCE, role="reference"), dict(self.CRIT9, role="criterion9")]
        s = self.STRATA
        for k, n in enumerate(self.SIZES):
            for i in range(s):
                u = (i + 0.5 + JITTER * (rng.random() - 0.5)) / s
                v = ((2 * k - i) % s + 0.5 + JITTER * (rng.random() - 0.5)) / s
                ops.append({"sigma": SIGMA_RANGE[0] + v * (SIGMA_RANGE[1] - SIGMA_RANGE[0]),
                            "ell": math.exp(lo + u * (hi - lo)), "n": n, "role": "random"})
        return [ops[i] for i in rng.permutation(len(ops))]

    def prepare(self, op: dict) -> PlateConfig:
        return PlateConfig(ell=op["ell"], sigma=op["sigma"], n_modes=op["n"])

    def run(self, op: dict, cfg: PlateConfig):
        spec = spectrum.build_spectrum(cfg, cap=self.CAP)
        weyl = None
        if op["n"] == 250:
            merged = galerkin.merged_eigenvalues(spec)
            top = min(400, merged.size)
            weyl = (merged.size, galerkin.weyl_diagnostic(
                weights.make_uniform(cfg), merged, (top // 2, top), cfg))
        return spec, weyl

    def check(self, op: dict, cfg: PlateConfig, result) -> Outcome:
        spec, weyl = result
        n, sigma, ell = op["n"], op["sigma"], op["ell"]
        om = (math.pi / ell) ** 2
        for seq, parity in ((spec.mu, "even"), (spec.nu, "odd")):
            lams = [p.lam for p in seq]
            _require(len(seq) == n, f"{parity}: {len(seq)} pairs, expected {n}")
            _require(all(a <= b for a, b in zip(lams, lams[1:])),
                     f"{parity} eigenvalues not ascending")
            for p in seq:
                m, k, lam = p.mode.m, p.mode.k, p.lam
                _require(p.mode.parity == parity, f"{p.mode} in the {parity} list")
                if k == 1:
                    inside = (1 - sigma ** 2) * m ** 4 < lam < m ** 4
                elif parity == "even":
                    inside = ((m * m + om * (k - 1.5) ** 2) ** 2 < lam
                              < (m * m + om * (k - 1.0) ** 2) ** 2)
                else:
                    # odd roots above m^4 lie in the bands c*ell in (j pi, j pi + pi/2)
                    band = (math.sqrt(math.sqrt(lam) - m * m) * ell / math.pi) % 1.0
                    inside = lam > m ** 4 and band <= 0.5 + 1e-9
                _require(inside, f"{p.mode} eigenvalue {lam!r} outside its a-priori interval")
        even_m1 = {p.mode.m: p.lam for p in spec.mu if p.mode.k == 1}
        for p in spec.nu:
            if p.mode.k == 1 and p.mode.m in even_m1:
                _require(p.lam > even_m1[p.mode.m],
                         f"{p.mode} below the longitudinal ({p.mode.m},1) eigenvalue")
        nu1 = spec.nu[0].lam
        _require(spec.j0 == sum(p.lam < nu1 for p in spec.mu), f"j0={spec.j0} inconsistent")
        _require(spec.j0 < n, f"j0={spec.j0} truncated to n={n}")

        rel_err = None
        if op["role"] == "reference":
            got = [f"{p.lam:.2e}" for p in spec.mu[:12]] + [f"{p.lam:.2e}" for p in spec.nu[:12]]
            refs = list(reference.UNIFORM_MU) + list(reference.UNIFORM_NU)
            _require(got == [f"{v:.2e}" for v in refs],
                     "reference eigenvalues differ at 3 significant digits")
            _require(spec.j0 == reference.J0, f"reference j0={spec.j0}")
            lams = [p.lam for p in spec.mu[:12]] + [p.lam for p in spec.nu[:12]]
            rel_err = max(_rel(v, r) for v, r in zip(lams, refs))
        if op["role"] == "criterion9":
            size, rep = weyl
            _require(size >= 400, f"only {size} merged eigenvalues")
            _require(rep.top_half_spread <= 0.15, f"growth-law spread {rep.top_half_spread}")
            _require(1 / 1.5 <= rep.median_ratio <= 1.5, f"growth-law median {rep.median_ratio}")
        return Outcome(rel_err=rel_err, gain=1.0)

    @staticmethod
    def expected_counts(ops: list[dict]) -> dict:
        big = sum(op["n"] == 250 for op in ops)
        return {"spectrum.build_spectrum": len(ops), "numerics.sym_eig": 0,
                "galerkin.weyl_diagnostic": big}


# ---------------------------------------------------------------------------
# weighted-solve: validate + solve_weighted on a fixed plate (layers L2, L3)
# ---------------------------------------------------------------------------

class Jittered:
    """Draws that stay near a fixed template.

    ``template`` fixes every value; ``jitter`` moves each continuous value by
    at most JITTER/2 of its range (of its size, for Dirichlet shares).
    Integers come from the template alone, so the structure of what is drawn,
    and with it the cost of using it, is the same whatever ``jitter`` is.
    """

    def __init__(self, template: np.random.Generator, jitter: np.random.Generator) -> None:
        self.template = template
        self.jitter = jitter

    def random(self, size=None):
        u = self.template.random(size) + JITTER * (self.jitter.random(size) - 0.5)
        return np.clip(u, 0.0, np.nextafter(1.0, 0.0))

    def uniform(self, low: float, high: float, size=None):
        return low + (high - low) * self.random(size)

    def integers(self, low: int, high: int, size=None):
        return self.template.integers(low, high, size)

    def normal(self, size=None):
        return self.template.normal(size=size) + JITTER * self.jitter.normal(size=size)

    def dirichlet(self, alpha):
        shares = self.template.dirichlet(alpha)
        shares = shares * (1.0 + JITTER * (self.jitter.random(len(shares)) - 0.5))
        return shares / shares.sum()


def _disjoint(rng: Jittered, count: int, total: float,
              span: float) -> list[tuple[float, float]]:
    """``count`` disjoint random intervals in [0, span) of summed length ``total``."""
    widths = rng.dirichlet(np.ones(count)) * total
    gaps = rng.dirichlet(np.ones(count + 1)) * (span - total)
    edges, x = [], 0.0
    for gap, width in zip(gaps, widths):
        x += gap
        edges.append((float(x), float(x + width)))
        x += width
    return edges


def random_weight_spec(rng: Jittered, kind: str) -> dict:
    """Parameters of one random admissible weight (reference plate)."""
    a, b = REF.alpha, REF.beta
    if kind in ("x_bands", "y_bands"):
        span = math.pi if kind == "x_bands" else 2.0 * REF.ell
        outside = float(rng.uniform(a, 0.95))
        total = float(rng.uniform(span * (1 - outside) / (b - outside), 0.95 * span))
        inside = (span - outside * (span - total)) / total
        if kind == "x_bands":
            ivs = _disjoint(rng, int(rng.integers(1, 5)), total, span)
        else:
            # symmetric: a central band plus a mirrored outer pair
            mid = total * float(rng.uniform(0.3, 0.7))
            outer = (total - mid) / 2.0
            lo = mid / 2.0 + float(rng.uniform(0.05, 0.9)) * (span - total) / 2.0
            ivs = [(-total / 2.0, total / 2.0)] if rng.integers(0, 2) == 0 else [
                (-lo - outer, -lo), (-mid / 2.0, mid / 2.0), (lo, lo + outer)]
        return {"kind": kind, "intervals": ivs, "inside": inside, "outside": outside}
    if kind == "cross":
        frac = (1 - a) / (b - a)
        fy = float(rng.uniform(0.1, 0.4)) * frac
        fx = (frac - fy) / (1 - fy)
        xs = _disjoint(rng, int(rng.integers(1, 5)), fx * math.pi, math.pi)
        return {"kind": kind, "x_intervals": xs,
                "y_intervals": [(-fy * REF.ell, fy * REF.ell)]}
    if kind == "sublevel":
        f_max = 0.95 * (1 - a) / (b - a)
        return {"kind": kind, "kx": rng.integers(1, 7, 3).tolist(),
                "ky": rng.integers(0, 3, 3).tolist(), "amp": rng.normal(size=3).tolist(),
                "phase": rng.uniform(0, math.pi, 3).tolist(),
                "frac": float(rng.uniform(0.3 * f_max, f_max))}
    raise ValueError(kind)


def build_weight(spec: dict) -> weights.Weight:
    a, b, ell = REF.alpha, REF.beta, REF.ell
    kind = spec["kind"]
    if kind == "x_bands":
        v = weights.XBands(tuple(spec["intervals"]), spec["inside"], spec["outside"])
    elif kind == "y_bands":
        v = weights.YBands(tuple(spec["intervals"]), spec["inside"], spec["outside"], ell)
    elif kind == "cross":
        v = weights.Cross(tuple(spec["x_intervals"]), tuple(spec["y_intervals"]), b, a, ell)
    else:
        shell = weights.GridField(np.zeros((600, 31)), ell)
        vals = np.zeros((600, 31))
        for amp, p, q, ph in zip(spec["amp"], spec["kx"], spec["ky"], spec["phase"]):
            vals += amp * np.outer(np.sin(p * shell.xs + ph), np.cos(q * math.pi * shell.ys / ell))
        vals = 0.5 * (vals + vals[:, ::-1])   # exactly even: ys is symmetric only to rounding
        fld = weights.GridField(vals - vals.min() + 0.01, ell, parity="even")
        frac = spec["frac"]
        outside = (1 - b * frac) / (1 - frac)
        t, theta, _ = weights.sublevel_split(fld, frac * REF.area, b, outside)
        v = weights.Sublevel(fld, t, b, outside, theta)
    return weights.Weight(v, a, b)


class WeightedSolve:
    """validate(w) then solve_weighted(w, spec, 100) on the reference plate.

    A round is the six study densities plus sixteen random weights: five
    x-band, one y-band, two cross and eight 600x31 sublevel weights, in seeded
    order.  Band ops are 13/22 of a round, sublevel ops (with pstar) 9/22.
    A round takes about 18 s, so a 35 s run ends after two whole rounds
    unless the machine runs more than a quarter faster or slower.
    Random weight ``i`` of every round is drawn by ``Jittered`` around the
    template that ``default_rng([TEMPLATE_SEED, i])`` gives: the eigensolver
    is iterative, so its cost follows the shape of the weight, and fixed
    shapes keep the cost of a round the same on every seed.
    """

    name = "weighted-solve"
    N = 100
    RANDOM_KINDS = ("x_bands",) * 5 + ("y_bands",) + ("cross",) * 2 + ("sublevel",) * 8

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.spec = spectrum.build_spectrum(REF.with_(n_modes=self.N))
        self.study = dict(optimize.default_study_weights(REF, self.spec))
        self.lam1 = {"even": np.array([p.lam for p in self.spec.mu]),
                     "odd": np.array([p.lam for p in self.spec.nu])}

    def _template_weight(self, i: int, jitter: np.random.Generator) -> dict:
        """Random weight ``i`` of a round: its fixed template, jittered."""
        template = np.random.default_rng([TEMPLATE_SEED, i])
        return random_weight_spec(Jittered(template, jitter), self.RANDOM_KINDS[i])

    def warmup(self) -> list[dict]:
        """The uniform plate, then the first band and the last sublevel template."""
        rng = np.random.default_rng([self.seed, WARMUP_ROUND])
        return [{"kind": "study", "label": "uniform"}] + [
            self._template_weight(i, rng) for i in (0, len(self.RANDOM_KINDS) - 1)]

    def round(self, r: int) -> list[dict]:
        rng = np.random.default_rng([self.seed, r])
        ops = [{"kind": "study", "label": label} for label in reference.RATIO_TABLE]
        ops += [self._template_weight(i, rng) for i in range(len(self.RANDOM_KINDS))]
        return [ops[i] for i in rng.permutation(len(ops))]

    def prepare(self, op: dict) -> weights.Weight:
        return self.study[op["label"]] if op["kind"] == "study" else build_weight(op)

    def run(self, op: dict, w: weights.Weight):
        report = weights.validate(w, REF)
        return report, galerkin.solve_weighted(w, self.spec, self.N)

    def check(self, op: dict, w: weights.Weight, result) -> Outcome:
        report, gs = result
        _require(report.passed, f"validate failed: {report.detail}")
        for parity, lam_p in (("even", gs.mu_p), ("odd", gs.nu_p)):
            lam1 = self.lam1[parity]
            _require(len(lam_p) == self.N, f"{parity}: {len(lam_p)} eigenvalues")
            low = float(np.max(lam1 / REF.beta / lam_p - 1.0))
            high = float(np.max(lam_p * REF.alpha / lam1 - 1.0))
            _require(max(low, high) <= 1e-9,
                     f"{parity} stability inequality violated by {max(low, high):.3e}")
        if op["kind"] != "study":
            return Outcome()
        ref_mu, ref_nu, ref_r = reference.RATIO_TABLE[op["label"]]
        j0 = reference.J0
        devs = [_rel(gs.mu_p[i], ref_mu[i]) for i in range(12)]
        devs += [_rel(gs.nu_p[0], ref_nu[0]), _rel(gs.nu_p[1], ref_nu[1]),
                 _rel(gs.nu_p[0] / gs.mu_p[j0 - 1], ref_r)]
        tol = 0.05 if op["label"] == "ptilde" else 0.02
        _require(max(devs) <= tol, f"{op['label']}: deviation {max(devs):.3%} > {tol:.0%}")
        ratio = gs.nu_p[0] / gs.mu_p[j0 - 1]
        r_uniform = self.lam1["odd"][0] / self.lam1["even"][j0 - 1]
        return Outcome(rel_err=max(devs), gain=float(ratio / r_uniform))

    @staticmethod
    def expected_counts(ops: list[dict]) -> dict:
        return {"numerics.sym_eig": 2 * len(ops), "galerkin.assemble": 2 * len(ops),
                "weights.validate": len(ops), "spectrum.build_spectrum": 0}


# ---------------------------------------------------------------------------
# density-search: the `plate-spectra optimize` command in-process (L4, L5)
# ---------------------------------------------------------------------------

class DensitySearch:
    """cli.main(["optimize", ...]) into a fresh directory per op.

    The targets are min-mu j = 1..12 and max-nu1.  A round runs every target
    twice on the 2400x31 grid and once on the 600x31 grid, 39 ops in seeded
    order.  A round takes about 35 s, so a 35 s run is one whole round unless
    the machine runs a third faster.  With two thirds of the ops on the large
    grid, the median op lies inside that group rather than in the gap
    between the two grids.
    """

    name = "density-search"
    GRIDS = ((600, 31), (2400, 31))
    TARGETS = tuple(("min-mu", j) for j in range(1, 13)) + (("max-nu1", None),)
    REFS = {("min-mu", 10): 7.28e3, ("max-nu1", None): 1.98e4}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        spec = spectrum.build_spectrum(REF)
        _require([f"{p.lam:.2e}" for p in spec.mu[:12]]
                 == [f"{v:.2e}" for v in reference.UNIFORM_MU],
                 "uniform reference spectrum differs at 3 significant digits")
        self.mu1 = [p.lam for p in spec.mu]
        self.nu1 = spec.nu[0].lam

    def warmup(self) -> list[dict]:
        return [{"target": "max-nu1", "j": None, "grid": [600, 31]}]

    def round(self, r: int) -> list[dict]:
        small, large = self.GRIDS
        ops = [{"target": t, "j": j, "grid": list(grid)}
               for grid in (small, large, large) for t, j in self.TARGETS]
        rng = np.random.default_rng([self.seed, r])
        return [ops[i] for i in rng.permutation(len(ops))]

    def prepare(self, op: dict) -> Path:
        self.workdir.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix="op-", dir=self.workdir))

    def run(self, op: dict, out: Path) -> int:
        argv = ["optimize", "--target", op["target"], "--grid", *map(str, op["grid"]),
                "--out", str(out)]
        if op["j"] is not None:
            argv += ["--j", str(op["j"])]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, op: dict, out: Path, code: int) -> Outcome:
        try:
            return self._check(op, out, code)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, op: dict, out: Path, code: int) -> Outcome:
        _require(code == 0, f"exit code {code}")
        values = [json.loads(line)["eigenvalue"]
                  for line in (out / "trace.jsonl").read_text().splitlines()]
        _require(len(values) >= 1, "empty trace")
        if op["target"] == "min-mu":
            _require(all(b <= a for a, b in zip(values, values[1:])), "trace not monotone")
        else:
            _require(all(b >= a for a, b in zip(values, values[1:])), "trace not monotone")
        w = weights.weight_from_json((out / "final_weight.json").read_text())
        rep = weights.validate(w, REF)
        _require(rep.passed, f"final weight fails validation: {rep.detail}")
        final = json.loads((out / "optimize_meta.json").read_text())["final_eigenvalue"]
        _require(final == values[-1], "meta and trace disagree on the final value")
        if op["target"] == "min-mu":
            uniform = self.mu1[op["j"] - 1]
            _require(final < uniform, f"mu_{op['j']} {final} not below uniform {uniform}")
            gain = uniform / final
        else:
            _require(final > self.nu1, f"nu_1 {final} not above uniform {self.nu1}")
            gain = final / self.nu1
        rel_err = None
        ref = self.REFS.get((op["target"], op["j"]))
        if ref is not None:
            rel_err = _rel(final, ref)
            _require(rel_err <= 0.02, f"final {final} off {ref} by {rel_err:.2%}")
        nx, ny = op["grid"]
        for name in ("field.csv", "sset.csv"):
            with open(out / name) as fh:
                rows = sum(1 for _ in fh) - 1
            _require(rows == nx * ny, f"{name}: {rows} rows, expected {nx * ny}")
        return Outcome(rel_err=rel_err, gain=gain)

    @staticmethod
    def expected_counts(ops: list[dict]) -> dict:
        return {"spectrum.build_spectrum": len(ops), "optimize.search": len(ops),
                "cli._atomic_write": 5 * len(ops)}


WORKLOADS = {w.name: w for w in (SpectrumSweep, WeightedSolve, DensitySearch)}
