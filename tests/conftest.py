"""Fixtures shared by the test modules."""

import pytest

from qotp import kernels
from qotp.adversary import IndividualUTB, InterceptResend, NoAttack


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
