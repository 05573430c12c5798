import math

import numpy as np
import pytest

from plate_spectra import PlateConfig


def test_config_defaults():
    cfg = PlateConfig()
    assert cfg.sigma == 0.2 and cfg.ell == math.pi / 150
    assert cfg.area == pytest.approx(2 * math.pi * cfg.ell)


def test_config_validation():
    with pytest.raises(ValueError):
        PlateConfig(sigma=0.5)
    with pytest.raises(ValueError):
        PlateConfig(sigma=0.0)
    with pytest.raises(ValueError):
        PlateConfig(alpha=1.1)
    with pytest.raises(ValueError):
        PlateConfig(beta=0.9)
    with pytest.raises(ValueError):
        PlateConfig(ell=0.0)
    # an infinite plate or density bound used to pass and reach the JSON outputs
    with pytest.raises(ValueError, match="ell must be positive and finite"):
        PlateConfig(ell=math.inf)
    with pytest.raises(ValueError, match="beta < inf"):
        PlateConfig(beta=math.inf)
    with pytest.raises(ValueError):
        PlateConfig(n_modes=0)


@pytest.mark.parametrize("n_modes", [30.0, True, np.True_, "30", 0, -3])
def test_config_n_modes_must_be_an_integer(n_modes):
    # n_modes follows the rule of the mode numbers: 30.0 used to pass and then
    # fail inside build_spectrum with a TypeError, and True to build one mode
    with pytest.raises(ValueError, match="^mode numbers must be integers >= 1, got n_modes="):
        PlateConfig(n_modes=n_modes)


def test_config_numpy_integer_n_modes():
    cfg = PlateConfig(n_modes=np.int64(12))
    assert type(cfg.n_modes) is int and cfg == PlateConfig(n_modes=12)


def test_config_with(ref_cfg):
    other = ref_cfg.with_(n_modes=5)
    assert other.n_modes == 5 and other.ell == ref_cfg.ell

