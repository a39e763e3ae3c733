"""Fixtures shared by the test modules, and the one hypothesis profile."""

import pytest
from hypothesis import settings

from qotp import kernels
from qotp.adversary import IndividualUTB, InterceptResend, NoAttack

# the property tests draw the same examples on every run, so a run's result
# and the lines it reaches do not change from one run to the next
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture
def law_calls(monkeypatch):
    """The attacks whose ``law()`` runs during the test, in call order; the
    kernel's cache of stacked tables starts empty."""
    calls = []
    for cls in (NoAttack, InterceptResend, IndividualUTB):
        def counting(attack, law=cls.law):
            calls.append(attack)
            return law(attack)

        monkeypatch.setattr(cls, "law", counting)
    kernels._pair_tables.cache_clear()
    return calls
