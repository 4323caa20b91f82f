"""Each module's ``__all__`` resolves, and the names taken out of ``src/`` are gone."""

import importlib

import pytest

import tobitcount

MODULES = ["diagnostics", "estimation", "extensions", "skellam", "specialfn", "stingarch"]
REMOVED = {
    "skellam": ["stein_lhs_rhs", "chernoff_tail_radius"],
    "specialfn": ["bessel_recurrence_residual", "reg_incomplete_gamma_lower"],
    "extensions": ["covariate_design", "stbingarch_conditional_pmf"],
}


@pytest.mark.parametrize("name", ["", *MODULES])
def test_public_names(name):
    module = importlib.import_module("tobitcount" + (f".{name}" if name else ""))
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    for attr in REMOVED.get(name, []):
        assert not hasattr(module, attr)
        assert attr not in tobitcount.__all__
