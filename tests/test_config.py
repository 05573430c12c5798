import math

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


def test_config_with(ref_cfg):
    other = ref_cfg.with_(n_modes=5)
    assert other.n_modes == 5 and other.ell == ref_cfg.ell

