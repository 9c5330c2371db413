import hypothesis
import numpy as np
import pytest

# Numeric property tests do real linear algebra; wall-clock deadlines only
# produce flaky CI, so they are disabled for the whole suite.
hypothesis.settings.register_profile("numeric", deadline=None, max_examples=50)
hypothesis.settings.load_profile("numeric")


@pytest.fixture
def ive_calls(monkeypatch):
    """(order, element count) of each scipy ive call the test makes."""
    from scipy.special import ive

    from vmfgeom import bessel

    calls = []

    def counting(nu, x):
        calls.append((nu, np.size(x)))
        return ive(nu, x)

    monkeypatch.setattr(bessel, "ive", counting)
    return calls
