import functools
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def count_calls(monkeypatch):
    """count(module, name) wraps module.name for this test and returns the
    list that records the positional arguments of each call."""
    def count(module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return count


@pytest.fixture(scope="session")
def optical_median():
    """optical_median(n) returns (median, seconds): the size of the
    component-wise median, over the 200 "optc7" samples at size n
    (lam0 = 0.05, eta = n^(-2/3 - 0.05)), of the centered optical_window
    statistic, and the seconds its draws took.  Each size is drawn once per
    session, so the unit test and acceptance criterion 7 share the draws."""
    from dwedge import edgescale as es
    from dwedge import ensemble as ens
    from dwedge import measure as ms
    from dwedge import resolvent as rv
    from dwedge import rngstream

    two = ms.Atomic(locations=(-1.0, 1.0), weights=(0.5, 0.5))

    @functools.cache
    def median(n):
        t0 = time.time()
        eta = n ** (-2.0 / 3.0 - 0.05)
        spec = ens.EnsembleSpec(N=n, lam0=0.05, potential=ens.IIDFrom(two),
                                law=ens.GAUSSIAN)

        def window(rng):
            h, v = ens.sample_deformed(spec, rng)
            sc = es.build(ms.empirical_from_values(v), 0.05)
            return rv.optical_window(h, sc, eta, potential=v)

        x = np.asarray(rngstream.draws(909, "optc7",
                                       range(n * 100000, n * 100000 + 200), window))
        return (abs(np.median(x.real) + 1j * np.median(x.imag)),
                time.time() - t0)

    return median
