"""In-memory span tracing of plate_spectra, installed from outside the package.

The package modules import each other with ``from x import y``, so a call
site looks a function up in its *own* module.  ``Tracer.wrap`` therefore
replaces every module-level binding of a traced function inside the package
(or a class attribute such as ``QuadratureRule.nodes_weights``), and
``Tracer.uninstall`` restores them.  Spans are recorded only while an op is
active; the benchmark's own checks run with no op set and leave no spans.
Spans stay in memory until ``Tracer.dump`` writes them out after the run.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass(eq=False)
class Span:
    name: str
    start: float
    op: int
    parent: "Span | None"
    end: float = 0.0
    child_s: float = 0.0          # time covered by direct children
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, Callable] = {}
        self.bindings: dict[str, list[str]] = {}

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), self.op, parent)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    # -- patching ------------------------------------------------------------

    def _wrapper(self, fn: Callable, name: Callable | str, hook: Callable | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = tracer.begin(name(args, kwargs) if callable(name) else name)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(span, fn, args, kwargs)
            finally:
                tracer.finish(span)

        return traced

    def wrap(self, owner: object, attr: str, name: Callable | str,
             hook: Callable | None = None, package: str = "plate_spectra") -> None:
        """Trace ``owner.attr`` and every other package binding of the same object."""
        original = getattr(owner, attr)
        wrapper = self._wrapper(original, name, hook)
        key = f"{getattr(owner, '__name__', owner)}.{attr}"
        self.originals[key] = original
        bound = []
        if isinstance(owner, type):
            self._patch(owner, attr, wrapper)
            bound.append(f"{owner.__module__}.{owner.__name__}.{attr}")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for var, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, var, wrapper)
                    bound.append(f"{mod_name}.{var}")
        self.bindings[key] = sorted(bound)

    def _patch(self, target: object, attr: str, value: object) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def unpatched(self, package: str = "plate_spectra") -> list[str]:
        """Package bindings still pointing at an original (should be empty)."""
        left = []
        originals = {id(f): key for key, f in self.originals.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for var, value in vars(mod).items():
                if id(value) in originals:
                    left.append(f"{mod_name}.{var}")
        return left

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._patches):
            setattr(target, attr, value)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def covered(self, names: set[str] | Callable[[str], bool],
                ops: set[int] | None = None) -> float:
        """Total duration of spans matching ``names`` that have no matching
        ancestor, i.e. the time those spans cover without double counting."""
        match = names if callable(names) else names.__contains__
        total = 0.0
        for s in self.spans:
            if not match(s.name) or (ops is not None and s.op not in ops):
                continue
            p = s.parent
            while p is not None and not match(p.name):
                p = p.parent
            if p is None:
                total += s.duration
        return total

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines, in the order they closed.

        ``parent`` is the 0-based line number of the parent span, which closes
        after its children, or null for an op's root span.
        """
        line = {id(s): i for i, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": line.get(id(s.parent)), "op": s.op,
                                     **({"attrs": s.attrs} if s.attrs else {})}) + "\n")

    def children(self, span: Span) -> list[Span]:
        """Closed direct children of a span that may still be open."""
        out = []
        for s in reversed(self.spans):
            if s.start < span.start:
                break
            if s.parent is span:
                out.append(s)
        return out


def install_package_tracing(tracer: Tracer) -> None:
    """Wrap the public layer functions of plate_spectra at every binding."""
    import numpy as np
    from plate_spectra import cli, galerkin, numerics, optimize, spectrum, weights

    def count_evals(span, fn, args, kwargs):
        f = args[0]
        span.attrs["evals"] = 0

        def counted(x):
            span.attrs["evals"] += 1
            return f(x)

        return fn(counted, *args[1:], **kwargs)

    def eig_size(span, fn, args, kwargs):
        mat = args[0] if args else kwargs["matrix"]
        span.attrs["n"] = int(np.shape(getattr(mat, "a", mat))[0])
        return fn(*args, **kwargs)

    def quad_nodes(span, fn, args, kwargs):
        x, w = fn(*args, **kwargs)
        span.attrs["nodes"] = int(x.size)
        return x, w

    def build_result(span, fn, args, kwargs):
        import warnings
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spec = fn(*args, **kwargs)
        span.attrs["warnings"] = sum(1 for c in caught
                                     if "nearly coincident" in str(c.message))
        span.attrs["pairs"] = len(spec.mu) + len(spec.nu)
        return spec

    def assemble_name(args, kwargs):
        w = args[0] if args else kwargs["w"]
        sub = isinstance(w.variant, weights.Sublevel)
        return "galerkin.assemble_sublevel" if sub else "galerkin.assemble_band"

    def assemble_bytes(span, fn, args, kwargs):
        w, n = args[0], args[3] if len(args) > 3 else kwargs["n"]
        mat = fn(*args, **kwargs)
        v = w.variant
        if isinstance(v, weights.Sublevel):
            nx, ny = v.field.nx, v.field.ny
            # sines (n, nx), profiles (n, ny), basis (n, nx*ny), cell weights
            span.attrs["bytes"] = 8 * (n * nx + n * ny + n * nx * ny + nx * ny)
        else:
            q = sum(c.attrs.get("nodes", 0) for c in tracer.children(span))
            terms = {weights.Uniform: 1, weights.XBands: 2,
                     weights.YBands: 2, weights.Cross: 4}[type(v)]
            # profiles on the y rule plus one x and one y matrix per term
            span.attrs["bytes"] = 8 * (n * q + 2 * terms * n * n)
        return mat

    def search_result(span, fn, args, kwargs):
        tr = fn(*args, **kwargs)
        span.attrs["accepted"] = len(tr.iterates)
        span.attrs["max_iters"] = int(tr.stop_reason == optimize.MAX_ITERS)
        return tr

    def write_bytes(span, fn, args, kwargs):
        text = args[1] if len(args) > 1 else kwargs["text"]
        span.attrs["bytes"] = len(text.encode())
        return fn(*args, **kwargs)

    tracer.wrap(numerics, "sym_eig", "numerics.sym_eig", eig_size)
    tracer.wrap(numerics, "find_root", "numerics.find_root", count_evals)
    tracer.wrap(numerics.QuadratureRule, "nodes_weights", "numerics.quad", quad_nodes)
    tracer.wrap(spectrum, "build_spectrum", "spectrum.build_spectrum", build_result)
    tracer.wrap(spectrum, "find_hom_eigenvalue", "spectrum.find_hom_eigenvalue")
    tracer.wrap(weights, "validate", "weights.validate")
    tracer.wrap(weights, "sublevel_split", "weights.sublevel_split")
    tracer.wrap(weights, "sample_field", "weights.sample_field")
    for fn_name in ("weight_to_json", "weight_to_dict", "weight_from_json"):
        tracer.wrap(weights, fn_name, f"weights.{fn_name}")
    tracer.wrap(galerkin, "assemble_mass", assemble_name, assemble_bytes)
    tracer.wrap(galerkin, "solve_parity", "galerkin.solve_parity")
    tracer.wrap(galerkin, "solve_weighted", "galerkin.solve_weighted")
    tracer.wrap(galerkin, "expand_field", "galerkin.expand_field")
    tracer.wrap(galerkin, "merged_eigenvalues", "galerkin.merged_eigenvalues")
    tracer.wrap(galerkin, "weyl_diagnostic", "galerkin.weyl_diagnostic")
    tracer.wrap(optimize, "minimize_mu_j", "optimize.search", search_result)
    tracer.wrap(optimize, "maximize_nu1_fixed_point", "optimize.search", search_result)
    tracer.wrap(optimize, "rearrange_min", "optimize.rearrange")
    tracer.wrap(optimize, "rearrange_max", "optimize.rearrange")
    tracer.wrap(optimize, "trace_to_jsonl", "cli.trace_to_jsonl")
    tracer.wrap(optimize, "ratio_report_to_csv", "cli.ratio_report_to_csv")
    tracer.wrap(cli, "_grid_csv", "cli._grid_csv")
    tracer.wrap(cli, "_atomic_write", "cli._atomic_write", write_bytes)

