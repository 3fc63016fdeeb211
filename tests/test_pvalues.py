"""qflab's KS and chi-square p-values equal scipy.stats' bit for bit.

qflab computes them from ``scipy.special`` and its own copy of the
``kstwo`` survival function, so that it never imports ``scipy.stats``;
these tests import it as the reference.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

import qflab as qf
from qflab import _kstwo
from qflab import dynamics as dyn
from qflab._kstwo import kstwo_sf


def bits(x):
    return np.float64(x).view(np.uint64)


def boundary_cases():
    """(n, d) on both sides of every branch threshold of kstwo_sf.

    n = 60 and 140 take the n <= 140 branches, 2000 the n > 140 ones
    (n d^2 = 370 needs d < 1/2, so n > 1480) and 100001 the n > 10^5 ones.
    """
    cases = []
    for n in (60, 140, 2000, 100001):
        edges = [0.5 / n, 1.0 / n, (n - 1.0) / n, 0.5]
        if n <= 140:
            edges += [np.sqrt(0.754693 / n), np.sqrt(4 / n)]
        else:
            edges += [np.sqrt(2.2 / n), np.sqrt(370 / n), (1.4 / n) ** (2 / 3)]
        for d in edges:
            cases += [(n, float(np.nextafter(d, 0))), (n, float(d)), (n, float(np.nextafter(d, 1)))]
    # n d^1.5 = 1.4 exactly, and a d whose d**1.5 falls on either side of
    # 1.4 / n as a numpy scalar and as a 0-d array (the form scipy uses)
    return cases + [(141, 0.04619616764056786), (155, 0.043370812512879386)]


def with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test

    return decorate


@st.composite
def ks_arguments(draw):
    n = draw(st.integers(1, 300) | st.sampled_from([1000, 10**4, 100001]))
    # d spread over [0, 1] or concentrated where n d^2 picks the method
    if draw(st.booleans()):
        d = draw(st.floats(0.0, 1.0))
    else:
        d = float(np.sqrt(draw(st.floats(0.0, 6.0)) / n))
    return n, d


@settings(max_examples=200, deadline=None)
@with_examples(boundary_cases())
@given(ks_arguments())
def test_kstwo_sf_is_scipys(case):
    n, d = case
    assert bits(kstwo_sf(n, d)) == bits(stats.kstwo.sf(d, n))


def test_boundary_cases_reach_every_method(monkeypatch):
    # the boundary examples reach every method kstwo_sf chooses among
    seen = set()
    for name in ("_cdf_dmtw", "_cdf_pomeranz", "_cdf_pelz_good"):
        method = getattr(_kstwo, name)
        monkeypatch.setattr(
            _kstwo, name, lambda n, x, _m=method, _name=name: seen.add(_name) or _m(n, x)
        )
    def smirnov(n, x):
        seen.add("smirnov")
        return special.smirnov(n, x)

    monkeypatch.setattr(_kstwo, "special", SimpleNamespace(smirnov=smirnov))
    for n, d in boundary_cases():
        kstwo_sf(n, d)
    assert seen == {"_cdf_dmtw", "_cdf_pomeranz", "_cdf_pelz_good", "smirnov"}


@pytest.mark.parametrize("d", [0.0, -0.5, 1.0, 2.0])
def test_kstwo_sf_outside_the_open_interval(d):
    assert kstwo_sf(10, d) == stats.kstwo.sf(d, 10)


def gaussian_state(ndim):
    axes = tuple(qf.uniform_axis(-8.0, 8.0, 64) for _ in range(ndim))
    return qf.gaussian_packet(axes, [0.5] * ndim, [1.3] * ndim)


@st.composite
def sample_sets(draw):
    ndim = draw(st.integers(1, 2))
    n = draw(st.integers(1, 400))
    seed = draw(st.integers(0, 2**32 - 1))
    w = gaussian_state(ndim)
    if draw(st.booleans()):
        samples = dyn.born_sample_many(w, n, seed)
    else:
        # a law other than |psi|^2, so small p-values and large D occur too
        samples = np.random.default_rng(seed).uniform(-8.0, 8.0, size=(n, ndim))
    return w, samples, draw(st.integers(0, ndim - 1))


@settings(max_examples=150, deadline=None)
@given(sample_sets())
def test_ks_gof_is_scipys_kstest(case):
    w, samples, axis = case
    got = dyn.ks_gof(samples, w, axis)
    ref = stats.kstest(samples[:, axis], dyn._marginal_cdf(w, axis))
    assert bits(got.statistic) == bits(ref.statistic)
    assert bits(got.p_value) == bits(ref.pvalue)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5000), st.floats(0.0, 1e4))
def test_chdtrc_is_chi2_sf(dof, stat):
    assert bits(special.chdtrc(dof, stat)) == bits(stats.chi2.sf(stat, dof))


@pytest.mark.parametrize("n", [100, 400, 3000])
@pytest.mark.parametrize("born", [True, False])
@pytest.mark.parametrize("ndim", [1, 2])
def test_chi_square_gof_p_value_is_scipys(n, born, ndim, monkeypatch):
    calls = []

    def chdtrc(dof, stat):
        calls.append((dof, stat))
        return special.chdtrc(dof, stat)

    monkeypatch.setattr(dyn, "special", SimpleNamespace(chdtrc=chdtrc))
    w = gaussian_state(ndim)
    if born:
        samples = dyn.born_sample_many(w, n, seed=n)
    else:
        samples = np.random.default_rng(n).uniform(-8.0, 8.0, size=(n, ndim))
    got = dyn.chi_square_gof(samples, w)
    (dof, stat), = calls
    assert stat == got.statistic
    assert bits(got.p_value) == bits(stats.chi2.sf(stat, dof))
