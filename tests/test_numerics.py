import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import MidpointRule, bisect_roots, integrate_1d, integrate_2d
from plate_spectra.numerics import (_ITP_N0, Bracket, NonFinite, NoSignChange,
                                    QuadratureRule, find_root, find_roots,
                                    sym_eig)


# ---------------------------------------------------------------------------
# find_root
# ---------------------------------------------------------------------------

def test_find_root_sqrt2():
    r = find_root(lambda x: x * x - 2.0, Bracket(1.0, 2.0), tol_rel=1e-12)
    assert abs(r - math.sqrt(2.0)) < 1e-11


def test_find_root_odd_function():
    r = find_root(lambda x: x, Bracket(-1.0, 1.0))
    assert abs(r) < 1e-12


def test_find_root_tanh_vs_fixed_point_oracle():
    # root of tanh(z) - z/81 on [80, 82]; independent oracle: iterate
    # z <- 81 tanh(z), a contraction near the root
    r = find_root(lambda z: np.tanh(z) - z / 81.0, Bracket(80.0, 82.0))
    z = 80.0
    for _ in range(60):
        z = 81.0 * math.tanh(z)
    assert abs(r - z) < 1e-9
    assert abs(r - 81.0) < 1e-6  # tanh saturates, root sits just under 81


def test_find_root_no_sign_change():
    with pytest.raises(NoSignChange):
        find_root(lambda x: x * x + 1.0, Bracket(-1.0, 1.0))


def test_find_root_non_finite():
    with pytest.raises(NonFinite):
        find_root(lambda x: float("nan"), Bracket(0.0, 1.0))


def test_find_root_bracket_refinement_idempotent():
    # shrinking the bracket around the returned root returns the same root
    rng = np.random.default_rng(3)
    for _ in range(20):
        roots = np.sort(rng.uniform(-2.0, 2.0, 3))
        if np.diff(roots).min() < 1e-2:
            continue
        f = lambda x: (x - roots[0]) * (x - roots[1]) * (x - roots[2])
        lo = 0.5 * (roots[0] + roots[1])  # straddles the middle root
        hi = 0.5 * (roots[1] + roots[2])
        r1 = find_root(f, Bracket(lo, hi))
        r2 = find_root(f, Bracket(r1 - 1e-6, r1 + 1e-6))
        assert abs(r1 - r2) <= 1e-11 * max(1.0, abs(r1))


def test_find_roots_matches_find_root_per_bracket():
    # brackets do not interact: a batch of 40 brackets returns the floats of
    # 40 one-bracket calls, including at exact zeros and endpoint roots
    rng = np.random.default_rng(11)
    shift = rng.uniform(-3.0, 3.0, 40)
    lo = shift - rng.uniform(0.1, 2.0, 40)
    hi = shift + rng.uniform(0.1, 2.0, 40)
    lo[:3] = [-1.0, -1.0, -2.0]  # exact roots at the first midpoint, at lo, at hi
    hi[:3] = [1.0, 1.0, -1.0]
    roots = np.array([0.0, -1.0, -1.0, *shift[3:]])
    f = lambda x, r: np.sin(x - r) * (2.0 + np.cos(x))
    got = find_roots(lambda x: f(x, roots), lo, hi, tol_rel=1e-13)
    want = [find_root(lambda x: f(x, r), Bracket(a, b), tol_rel=1e-13)
            for r, a, b in zip(roots, lo, hi)]
    assert got.tolist() == want
    assert got[1] == -1.0 and got[2] == -1.0  # an endpoint root comes back exactly
    assert np.all(np.abs(got - roots) <= 1e-12 * np.maximum(1.0, np.abs(roots)))


def test_find_roots_errors():
    assert find_roots(lambda x: x, [], []).size == 0
    with pytest.raises(NoSignChange):
        find_roots(lambda x: x * x + 1.0, [-1.0, 0.5], [1.0, 2.0])
    with pytest.raises(NonFinite):  # at an endpoint
        find_roots(lambda x: np.where(x < 0.5, x - 0.3, np.nan), [0.0], [1.0])
    with pytest.raises(NonFinite):  # at the first midpoint
        find_roots(lambda x: np.where(x == 0.5, np.nan, x - 0.3), [0.0], [1.0])
    with pytest.raises(ValueError):
        find_roots(lambda x: x, [1.0], [1.0])


def _counted(f):
    """f and the list that gets one entry per call of it."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


# functions that defeat interpolation, each with its bracket and root: a
# triple root, an infinite slope, a flat function with a steep end, a step,
# and a line (the truncation toward the midpoint is all that slows ITP there)
_HARD = {
    "triple-root": (lambda x: (x - 0.3) ** 3, 0.0, 1.0, 0.3),
    "ninth-root": (lambda x: np.sign(x) * np.abs(x) ** (1.0 / 9.0), -1.0, 2.0, 0.0),
    "x^20": (lambda x: x ** 20 - 0.5, 0.0, 1.5, 0.5 ** (1.0 / 20.0)),
    "tanh-step": (lambda x: np.tanh(1e3 * (x - 0.37)), 0.0, 1.0, 0.37),
    "linear": (lambda x: 2.0 * x - 0.7, 0.0, 1.0, 0.35),
}


@pytest.mark.parametrize("name", sorted(_HARD))
def test_find_root_worst_case_within_bisection_plus_n0(name):
    # ITP's minmax bound: never more than n0 steps over bisection (one more
    # is allowed for rounding at the last step)
    f, lo, hi, root = _HARD[name]
    g, calls = _counted(f)
    got = find_root(g, Bracket(lo, hi))
    g_ref, ref_calls = _counted(f)
    want = bisect_roots(g_ref, [lo], [hi])[0]
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    assert len(calls) <= len(ref_calls) + _ITP_N0 + 1
    assert abs(got - root) <= tol and abs(want - root) <= tol


def _smooth(kind: int, root: float, a: float, b: float):
    """A smooth function with a simple root at root and the sign of x - root
    on |x - root| < 1/a (for 0 < a <= 1, b >= 0)."""
    return [lambda x: np.sin(a * (x - root)) * np.exp(b * x),
            lambda x: np.expm1(a * (x - root)) + b * (x - root) ** 3,
            lambda x: (x - root) * ((x - root) ** 2 + 0.1 + b) * np.exp(-a * x),
            lambda x: np.arctan(a * (x - root)) + b * (x - root) ** 3][kind]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.floats(-50.0, 50.0), st.floats(0.1, 1.0),
                          st.floats(0.0, 2.0), st.floats(1e-6, 0.99), st.floats(1e-6, 0.99)),
                min_size=1, max_size=8),
       st.sampled_from([1e-14, 1e-13, 1e-12, 1e-9, 1e-6]))
def test_find_root_matches_bisection_oracle(cases, tol_rel):
    # on brackets of smooth functions the ITP root lies within tol of the
    # bisection oracle's, and the batched solve equals one-bracket solves bitwise
    fs = [_smooth(kind, root, a, b) for kind, root, a, b, _, _ in cases]
    lo = np.array([root - wl / a for _, root, a, _, wl, _ in cases])
    hi = np.array([root + wr / a for _, root, a, _, _, wr in cases])

    def f_all(x):
        return np.array([f(xi) for f, xi in zip(fs, x)])

    got = find_roots(f_all, lo, hi, tol_rel=tol_rel)
    single = [find_root(f, Bracket(a, b), tol_rel=tol_rel) for f, a, b in zip(fs, lo, hi)]
    assert got.tolist() == single
    want = bisect_roots(f_all, lo, hi, tol_rel=tol_rel)
    tol = tol_rel * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    assert np.all(np.abs(got - want) <= tol)


def test_bracket_validation():
    with pytest.raises(ValueError):
        Bracket(1.0, 1.0)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

ELL = math.pi / 150


def test_integrate_2d_area():
    rx = QuadratureRule(0.0, math.pi)
    ry = QuadratureRule(-ELL, ELL, order=16)
    val = integrate_2d(lambda x, y: 1.0 + 0.0 * x * y, rx, ry)
    assert abs(val - math.pi * 2 * ELL) < 1e-14


def test_integrate_2d_sin_squared():
    rx = QuadratureRule(0.0, math.pi)
    ry = QuadratureRule(-ELL, ELL, order=16)
    val = integrate_2d(lambda x, y: np.sin(x) ** 2 + 0.0 * y, rx, ry)
    assert abs(val - (math.pi / 2) * 2 * ELL) < 1e-13


def test_integrate_2d_sin_fourth():
    # int_0^pi sin^4(5x) dx = 3 pi / 8
    rx = QuadratureRule(0.0, math.pi, order=24, breakpoints=(1.0, 2.0))
    ry = QuadratureRule(-ELL, ELL, order=16)
    val = integrate_2d(lambda x, y: np.sin(5 * x) ** 4 + 0.0 * y, rx, ry)
    assert abs(val - (3 * math.pi / 8) * 2 * ELL) < 1e-12


def test_breakpoint_additivity():
    f = lambda x: np.where(x < 1.0, np.sin(3 * x), np.cos(2 * x) + 1.0)
    whole = integrate_1d(f, QuadratureRule(0.0, 2.0, breakpoints=(1.0,)))
    left = integrate_1d(f, QuadratureRule(0.0, 1.0))
    right = integrate_1d(f, QuadratureRule(1.0, 2.0))
    assert abs(whole - (left + right)) < 1e-13 * max(1.0, abs(whole))


def test_breakpoint_additivity_2d():
    # integral with breakpoints equals the sum over the smooth sub-rectangles
    f = lambda x, y: np.where(x < 1.0, 1.3, 0.6) * np.where(np.abs(y) < 0.005, 2.0, 0.5) \
        * np.cos(3 * x) * np.cosh(20 * y)
    whole = integrate_2d(f, QuadratureRule(0.0, 2.0, breakpoints=(1.0,)),
                         QuadratureRule(-0.01, 0.01, order=16,
                                        breakpoints=(-0.005, 0.005)))
    parts = 0.0
    for xa, xb in ((0.0, 1.0), (1.0, 2.0)):
        for ya, yb in ((-0.01, -0.005), (-0.005, 0.005), (0.005, 0.01)):
            parts += integrate_2d(f, QuadratureRule(xa, xb),
                                  QuadratureRule(ya, yb, order=16))
    assert abs(whole - parts) < 1e-13 * max(1.0, abs(whole))


def test_composite_midpoint_rule():
    rule = MidpointRule(0.0, 1.0, order=2000)
    val = integrate_1d(lambda x: x * x, rule)
    assert abs(val - 1.0 / 3.0) < 1e-7


def test_integrate_non_finite():
    rx = QuadratureRule(0.0, 1.0)
    with pytest.raises(NonFinite), np.errstate(divide="ignore", invalid="ignore"):
        integrate_1d(lambda x: 1.0 / (x - x), rx)


def test_nodes_weights_are_fresh_arrays():
    # the reference rule is cached per order; callers get their own copies
    for rule in (QuadratureRule(-1.0, 1.0, order=24), QuadratureRule(-ELL, ELL, order=24),
                 QuadratureRule(0.0, math.pi, order=24, breakpoints=(1.0,))):
        x, w = rule.nodes_weights()
        x0, w0 = x.copy(), w.copy()
        x[:] = 0.0
        w *= -1.0
        x2, w2 = rule.nodes_weights()
        assert np.array_equal(x2, x0) and np.array_equal(w2, w0)
        assert x2.flags.writeable and w2.flags.writeable
    ref_x, ref_w = np.polynomial.legendre.leggauss(24)
    x, w = QuadratureRule(-1.0, 1.0, order=24).nodes_weights()
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


def test_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(0.0, 1.0, breakpoints=(0.5, 0.4))
    with pytest.raises(ValueError):
        QuadratureRule(0.0, 1.0, breakpoints=(1.5,))
    with pytest.raises(ValueError):
        QuadratureRule(1.0, 0.0)


# ---------------------------------------------------------------------------
# sym_eig
# ---------------------------------------------------------------------------

def _char_poly_coeffs(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients by the Faddeev-LeVerrier
    recursion (trace-based, independent of any eigensolver)."""
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    mat = np.zeros_like(a)
    for k in range(1, n + 1):
        mat = a @ mat + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ mat) / k
    return coeffs


def test_sym_eig_identity():
    vals, vecs = sym_eig(np.eye(3))
    assert np.allclose(vals, 1.0, atol=1e-14)
    assert np.allclose(vecs @ vecs.T, np.eye(3), atol=1e-14)


def test_sym_eig_diagonal():
    vals, _ = sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [1.0, 2.0, 3.0], atol=1e-14)


def test_sym_eig_vs_companion_oracle():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(8, 8))
    a = a + a.T
    vals, vecs = sym_eig(a)
    oracle = np.sort(np.roots(_char_poly_coeffs(a)).real)
    assert np.allclose(vals, oracle, rtol=1e-8, atol=1e-8)
    # eigen-residual and orthonormality per contract
    nrm = np.linalg.norm(a)
    assert np.linalg.norm(a @ vecs - vecs @ np.diag(vals)) <= 1e-10 * nrm
    assert np.abs(vecs.T @ vecs - np.eye(8)).max() <= 1e-10
    # ascending order, and the largest-magnitude component of each column positive
    assert np.array_equal(vals, np.sort(vals))
    assert np.all(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(8)] > 0.0)


def test_sym_eig_trace_and_frobenius():
    rng = np.random.default_rng(5)
    for n in (4, 12, 25):
        a = rng.normal(size=(n, n))
        a = a + a.T
        vals, _ = sym_eig(a)
        assert abs(np.trace(a) - vals.sum()) <= 1e-10 * max(1.0, abs(np.trace(a)))
        fro2 = np.linalg.norm(a) ** 2
        assert abs(fro2 - (vals ** 2).sum()) <= 1e-10 * fro2


def test_sym_eig_graded_diagonal():
    # entries spanning many orders of magnitude must still converge
    d = np.geomspace(1e-8, 1.0, 12)
    rng = np.random.default_rng(1)
    q = np.linalg.qr(rng.normal(size=(12, 12)))[0]
    a = q @ np.diag(d) @ q.T
    vals, _ = sym_eig(a)
    assert np.allclose(vals, d, rtol=1e-8)


def test_sym_eig_deterministic():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(6, 6))
    a = a + a.T
    v1 = sym_eig(a)
    v2 = sym_eig(a)
    assert np.array_equal(v1[0], v2[0]) and np.array_equal(v1[1], v2[1])


def test_sym_eig_reads_upper_triangle():
    # the eigensolve sees only the upper triangle: these are the eigenpairs
    # of its mirror, bit for bit
    got = sym_eig(np.array([[1.0, 2.0], [99.0, 3.0]]))
    want = sym_eig(np.array([[1.0, 2.0], [2.0, 3.0]]))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    # and so does the values-only solve, here with a lower triangle of noise
    rng = np.random.default_rng(9)
    upper = np.triu(rng.normal(size=(12, 12)))
    sym = upper + np.triu(upper, 1).T
    noisy = upper + np.tril(rng.normal(size=(12, 12)), -1)
    vals, vecs = sym_eig(noisy, vectors=False)
    assert vecs is None
    assert vals.tobytes() == sym_eig(sym, vectors=False)[0].tobytes()
    assert np.abs(vals - sym_eig(sym)[0]).max() <= 1e-12 * np.abs(vals).max()
    for vectors in (True, False):
        with pytest.raises(ValueError):
            sym_eig(np.ones((2, 3)), vectors=vectors)
        with pytest.raises(NonFinite):  # checked in both triangles
            sym_eig(np.array([[1.0, 2.0], [np.nan, 3.0]]), vectors=vectors)
