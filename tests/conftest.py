import math

import numpy as np
import pytest

from plate_spectra import PlateConfig, Weight, build_spectrum
from plate_spectra import weights as W


@pytest.fixture(scope="session")
def ref_cfg():
    return PlateConfig()  # sigma=0.2, ell=pi/150, alpha=0.5, beta=1.5, 30 modes


@pytest.fixture(scope="session")
def ref_spectrum(ref_cfg):
    return build_spectrum(ref_cfg)


def random_band_weight(rng: np.random.Generator, cfg: PlateConfig) -> Weight:
    """Random admissible two-value band weight (exact mass, closed form).

    One of the four band kinds: uniform, an x-band system, a symmetric y-band
    system, or x-bands crossed with a central y-band; the inside value is
    solved from the mass constraint so membership is exact.
    """
    kind = rng.choice(["uniform", "x", "y", "cross"])
    if kind == "uniform":
        return Weight(W.Uniform(1.0), cfg.alpha, cfg.beta)
    v_out = float(rng.uniform(cfg.alpha, 0.95))
    if kind == "cross":
        # dense-phase area fraction of the union, split between the two systems
        frac = float(rng.uniform((1.0 - v_out) / (cfg.beta - v_out), 0.95))
        fy = frac * float(rng.uniform(0.1, 0.9))
        fx = (frac - fy) / (1.0 - fy)
        edges = _random_disjoint(rng, int(rng.integers(1, 5)), fx * math.pi, math.pi)
        hw = fy * cfg.ell
        v_in = (1.0 - v_out * (1.0 - frac)) / frac
        return Weight(W.Cross(tuple(edges), ((-hw, hw),), v_in, v_out, cfg.ell),
                      cfg.alpha, cfg.beta)
    if kind == "x":
        span = math.pi
        n_bands = int(rng.integers(1, 5))
        # inside value <= beta requires enough total band length
        min_len = span * (1.0 - v_out) / (cfg.beta - v_out)
        total = float(rng.uniform(min_len, span * 0.95))
        edges = _random_disjoint(rng, n_bands, total, span)
        v_in = (span - v_out * (span - total)) / total
        return Weight(W.XBands(tuple(edges), v_in, v_out), cfg.alpha, cfg.beta)
    span = 2.0 * cfg.ell
    min_len = span * (1.0 - v_out) / (cfg.beta - v_out)
    total = float(rng.uniform(min_len, span * 0.95))
    # one symmetric central band plus an optional symmetric outer pair
    if rng.random() < 0.5 or total >= span * 0.6:
        ivs = ((-total / 2.0, total / 2.0),)
    else:
        w_mid = total * float(rng.uniform(0.3, 0.7))
        w_out = (total - w_mid) / 2.0
        gap = float(rng.uniform(0.0, (span - total) / 2.0 * 0.9))
        lo = w_mid / 2.0 + gap
        ivs = ((-lo - w_out, -lo), (-w_mid / 2.0, w_mid / 2.0), (lo, lo + w_out))
    v_in = (span - v_out * (span - total)) / total
    return Weight(W.YBands(tuple(ivs), v_in, v_out, cfg.ell), cfg.alpha, cfg.beta)


def _random_disjoint(rng, n_bands, total, span):
    widths = rng.dirichlet(np.ones(n_bands)) * total
    gaps = rng.dirichlet(np.ones(n_bands + 1)) * (span - total)
    edges = []
    x = 0.0
    for i in range(n_bands):
        x += gaps[i]
        edges.append((x, x + widths[i]))
        x += widths[i]
    return edges


def random_grid_weight(rng: np.random.Generator, cfg: PlateConfig,
                       shape=(300, 31)) -> Weight:
    """Random admissible bang-bang weight on the cell grid with exact grid mass
    (sublevel of a random smooth y-even field)."""
    nx, ny = shape
    shell = W.GridField(np.zeros(shape), cfg.ell)
    xs, ys = shell.xs, shell.ys
    kx = rng.integers(1, 7, size=3)
    ky = rng.integers(0, 3, size=3)
    amp = rng.normal(size=3)
    vals = np.zeros(shape)
    for a, p, q in zip(amp, kx, ky):
        vals += a * np.outer(np.sin(p * xs + rng.uniform(0, math.pi)),
                             np.cos(q * math.pi * ys / cfg.ell))
    fld = W.GridField(vals - vals.min() + 0.01, cfg.ell, parity="even")
    # inside = beta stays admissible for area fractions up to (1-alpha)/(beta-alpha)
    f_max = 0.95 * (1.0 - cfg.alpha) / (cfg.beta - cfg.alpha)
    frac = float(rng.uniform(0.3 * f_max, f_max))
    target = frac * cfg.area
    inside = cfg.beta
    outside = (1.0 - inside * frac) / (1.0 - frac)
    t, theta, _ = W.sublevel_split(fld, target, inside, outside)
    return Weight(W.Sublevel(fld, t, inside, outside, theta), cfg.alpha, cfg.beta)
