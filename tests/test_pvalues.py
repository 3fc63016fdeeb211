"""qflab's KS and chi-square p-values, each against its own exact reference.

qflab computes them with numpy and ``math`` alone.  The chi-square p-value
is checked against mpmath's regularized incomplete gamma function at 40
digits.  ``kstwo_sf`` keeps the bits of ``scipy.stats.kstwo.sf`` in every
branch but the one-sided tail S_n(d), which scipy takes from
``scipy.special.smirnov`` and qflab from ``_kstwo._smirnov``; that one is
checked against the Birnbaum-Tingey sum in mpmath at 40 digits.  These
tests import scipy and mpmath as references.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

import qflab as qf
from qflab import _kstwo
from qflab import dynamics as dyn
from qflab._kstwo import kstwo_sf


def bits(x):
    return np.float64(x).view(np.uint64)


def relative_error(got, exact):
    return float(abs((mpmath.mpf(got) - exact) / exact))


def chi2_sf_exact(dof, stat):
    with mpmath.workdps(40):
        return mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(stat) / 2, mpmath.inf,
                               regularized=True)


def smirnov_exact(n, d):
    """The Birnbaum-Tingey sum for Pr(D_n^+ >= d), at 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(d)
        binomial, total = mpmath.mpf(1), mpmath.mpf(0)
        for j in range(int(mpmath.floor(n * (1 - x))) + 1):
            if j:
                binomial = binomial * (n - j + 1) / j
            total += binomial * (1 - x - mpmath.mpf(j) / n) ** (n - j) * (x + mpmath.mpf(j) / n) ** (j - 1)
        return x * total


def takes_smirnov(n, d):
    """Whether kstwo_sf(n, d) reaches the one-sided tail."""
    seen = []
    real = _kstwo._smirnov
    _kstwo._smirnov = lambda n, x: seen.append(1) or real(n, x)
    try:
        kstwo_sf(n, d)
    finally:
        _kstwo._smirnov = real
    return bool(seen)


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
    # scipy's bits in every branch but the one-sided tail, which scipy's
    # smirnov and qflab's sum give to within 1e-11 at these n
    n, d = case
    got, ref = kstwo_sf(n, d), stats.kstwo.sf(d, n)
    if takes_smirnov(n, d):
        assert got == pytest.approx(ref, rel=1e-11, abs=1e-300)
    else:
        assert bits(got) == bits(ref)


def smirnov_cases():
    """(n, d) in the one-sided tail, from just past n d = 1 to n d = n - 1."""
    cases = []
    for n in (2, 3, 10, 60, 140, 141, 1000, 10**4):
        for d in (np.nextafter(1.0 / n, 1), 1.5 / n, np.sqrt(2.2 / n), np.sqrt(4.0 / n),
                  np.sqrt(30.0 / n), 0.5, (n - 1.0) / n):
            if 1.0 / n < d < 1.0:
                cases.append((n, float(d)))
    return cases


@pytest.mark.parametrize("n, d", smirnov_cases())
def test_smirnov_is_the_exact_birnbaum_tingey_sum(n, d):
    exact, got = smirnov_exact(n, d), _kstwo._smirnov(n, d)
    if exact >= mpmath.mpf("1e-300"):
        assert relative_error(got, exact) <= 1e-11
    else:
        assert got <= 1e-290


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 2000), st.floats(0.0, 1.0))
def test_smirnov_is_the_exact_sum_anywhere(n, u):
    # d uniform over the open interval (1/n, (n - 1)/n) the sum is used on
    d = 1.0 / n + u * (n - 2.0) / n
    assume(1.0 / n < d < (n - 1.0) / n)
    exact = smirnov_exact(n, d)
    assume(exact >= mpmath.mpf("1e-300"))
    assert relative_error(_kstwo._smirnov(n, d), exact) <= 1e-11


def test_smirnov_at_the_ensemble_cap_sums_in_blocks():
    # n = 10^7 (the ensemble_size cap) in the one-sided tail: its 10^7 terms,
    # summed in blocks, never take an array of n terms
    n, d = 10**7, (3e-7) ** 0.5
    assert takes_smirnov(n, d)
    tracemalloc.start()
    try:
        p = kstwo_sf(n, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    # 2 S_n(d) ~ 2 exp(-2 n d^2) (1 - 2 d / 3 ...), n d^2 = 3
    assert p == pytest.approx(2 * math.exp(-6), rel=1e-2)


def test_boundary_cases_reach_every_method(monkeypatch):
    # the boundary examples reach every method kstwo_sf chooses among
    seen = set()
    for name in ("_cdf_dmtw", "_cdf_pomeranz", "_cdf_pelz_good", "_smirnov"):
        method = getattr(_kstwo, name)
        monkeypatch.setattr(
            _kstwo, name, lambda n, x, _m=method, _name=name: seen.add(_name) or _m(n, x)
        )
    for n, d in boundary_cases():
        kstwo_sf(n, d)
    assert seen == {"_cdf_dmtw", "_cdf_pomeranz", "_cdf_pelz_good", "_smirnov"}


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
    # D bit for bit; its p-value bit for bit off the one-sided tail, and
    # within 1e-11 on it
    w, samples, axis = case
    got = dyn.ks_gof(samples, w, axis)
    ref = stats.kstest(samples[:, axis], dyn._marginal_cdf(w, axis))
    assert bits(got.statistic) == bits(ref.statistic)
    if takes_smirnov(len(samples), got.statistic):
        assert got.p_value == pytest.approx(ref.pvalue, rel=1e-11, abs=1e-300)
    else:
        assert bits(got.p_value) == bits(ref.pvalue)


@settings(max_examples=300, deadline=None)
@example(1, 0.0)
@example(1, 1.175494351e-38)
@example(1, 5e-324)
@example(1, 1e4)
@example(5000, 5000.0)
@example(4778, 9153.23478400263)
@given(st.integers(1, 5000), st.floats(0.0, 1e4))
def test_chi2_sf_is_the_exact_incomplete_gamma(dof, stat):
    exact = chi2_sf_exact(dof, stat)
    assume(exact >= mpmath.mpf("1e-300"))
    assert relative_error(dyn._chi2_sf(dof, stat), exact) <= 1e-12


@pytest.mark.parametrize("stat", [-1.0, float("nan")])
def test_chi2_sf_outside_its_domain_is_nan(stat):
    assert math.isnan(dyn._chi2_sf(3, stat))
    assert math.isnan(dyn._chi2_sf(0, 1.0))
    assert dyn._chi2_sf(3, float("inf")) == 0.0


@pytest.mark.parametrize("n", [100, 400, 3000])
@pytest.mark.parametrize("born", [True, False])
@pytest.mark.parametrize("ndim", [1, 2])
def test_chi_square_gof_p_value_is_scipys(n, born, ndim, monkeypatch):
    # the statistic and dof go to the exact tail; scipy's chi2.sf, itself
    # within about 1e-11 of it, agrees to 1e-10
    calls = []
    real = dyn._chi2_sf
    monkeypatch.setattr(dyn, "_chi2_sf", lambda dof, stat: calls.append((dof, stat)) or real(dof, stat))
    w = gaussian_state(ndim)
    if born:
        samples = dyn.born_sample_many(w, n, seed=n)
    else:
        samples = np.random.default_rng(n).uniform(-8.0, 8.0, size=(n, ndim))
    got = dyn.chi_square_gof(samples, w)
    (dof, stat), = calls
    assert stat == got.statistic
    exact = chi2_sf_exact(dof, stat)
    if exact >= mpmath.mpf("1e-300"):
        assert relative_error(got.p_value, exact) <= 1e-12
    else:
        assert got.p_value <= 1e-290
    assert got.p_value == pytest.approx(stats.chi2.sf(stat, dof), rel=1e-10, abs=1e-300)
