from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def fractions_made():
    """fractions_made(call): how many Fractions ``call()`` creates, by construction or by arithmetic."""

    def count(call):
        made = 0
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            nonlocal made
            made += 1
            return new(cls, *args, **kwargs)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(Fraction, "__new__", staticmethod(counting))
            call()
        return made

    return count
