import pytest

from lagdg import quadrature


@pytest.fixture
def cold_unit_rules():
    """Empty the unit-rule cache before and after the test, so a rule build
    the test injects a failure into (or counts) runs in full."""
    quadrature._unit_rule.cache_clear()
    yield
    quadrature._unit_rule.cache_clear()
