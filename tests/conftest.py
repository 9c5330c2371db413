import hypothesis
import numpy as np
import pytest

# Numeric property tests do real linear algebra; wall-clock deadlines only
# produce flaky CI, so they are disabled for the whole suite.
hypothesis.settings.register_profile("numeric", deadline=None, max_examples=50)
hypothesis.settings.load_profile("numeric")


@pytest.fixture
def ive_calls(monkeypatch):
    """(order, element count) of each scaled-Bessel evaluation the test
    makes, whichever scipy function (ive, i0e or i1e) serves it."""
    from vmfgeom import bessel

    calls, held = [], bessel._ive

    def counting(nu, x):
        calls.append((nu, np.size(x)))
        return held(nu, x)

    monkeypatch.setattr(bessel, "_ive", counting)
    return calls
