import importlib

import pytest

import ffcbf

MODULES = ["barriers", "cli", "controllers", "dynamics", "qp", "scenario"]

# The paper's reference formulas live in tests/paper_reference.py; the
# package keeps one forecast, the one its constraint rows run.
MOVED = {
    "barriers": ["h0", "tau_star_hat", "smooth_switch", "tau_hat", "h_ff", "h_rff",
                 "_position_velocity"],
    "dynamics": ["planar_velocity"],
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"ffcbf.{name}")
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    for attr in module.__all__:
        assert hasattr(module, attr), f"ffcbf.{name}.{attr}"


@pytest.mark.parametrize("name", sorted(MOVED))
def test_reference_formulas_left_the_package(name):
    module = importlib.import_module(f"ffcbf.{name}")
    for attr in MOVED[name]:
        assert not hasattr(module, attr), f"ffcbf.{name}.{attr}"
        assert not hasattr(ffcbf, attr), f"ffcbf.{attr}"
