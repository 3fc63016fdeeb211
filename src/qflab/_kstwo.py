"""Survival function of the two-sided one-sample Kolmogorov-Smirnov statistic.

``kstwo_sf(n, d)`` is Pr(D_n >= d), where D_n = sup_x |F_n(x) - F(x)| for n
samples drawn from a continuous F.  It is a trimmed copy of the
survival-function path of ``scipy.stats.kstwo`` in scipy 1.17
(``scipy/stats/_ksstats.py``: ``_kolmogn`` with ``cdf=False``), in numpy and
``math`` alone: qflab imports no scipy module.  Every branch but the
one-sided tail keeps scipy's arithmetic operation for operation, including
the long-double rescaling, and returns ``kstwo.sf(d, n)`` bit for bit; the
cdf, pdf and quantile paths are left out.

The one-sided tail S_n(d) = Pr(D_n^+ >= d), which scipy takes from
``scipy.special.smirnov``, is ``_smirnov``: the Birnbaum-Tingey sum (Ann.
Math. Stat. 22, 592, 1951) of positive terms, each evaluated in log space
with Stirling remainders so that large n do not cancel, and summed in
blocks of _BLOCK terms.  Its relative error is within 1e-11 of an exact
sum for n <= 10^4, and n = 10^7 takes well under a second.

The method is Simard & L'Ecuyer's choice among exact and asymptotic
formulas (J. Stat. Softw. 39(11), 2011), with scipy's thresholds:

- Ruben-Gambino closed forms for n d <= 1 and n d >= n - 1;
- 2 * S_n(d) (exact) for d >= 1/2;
- for n <= 140: Durbin's matrix algorithm in the form of Marsaglia, Tsang
  & Wang (J. Stat. Softw. 8(18), 2003) for n d^2 <= 0.754693, Pomeranz's
  recursion (CACM 17(12), 1974) for n d^2 <= 4, and 2 * S_n(d) above;
- for n > 140: 0 for n d^2 >= 370, 2 * S_n(d) for n d^2 >= 2.2, and
  otherwise one minus the CDF from Durbin/MTW (n <= 10^5 and
  n d^1.5 <= 1.4) or the Pelz-Good asymptotic series (Pelz & Good, JRSS B
  38(2), 1976).

Adapted from SciPy, which carries this notice:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math

import numpy as np

# Intermediate results are rescaled by 2**+-128 in long double, as scipy does;
# a product that picks up one of these factors stays long double until the end.
_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# Stirling coefficients B_{2j}/(2j)/(2j-1) for j = 8, ..., 1
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]
# below this argument the eight-term Stirling series is off by more than
# 1e-16, and the remainder is taken from math.lgamma instead
_STIRLING_MIN = 8
# terms of the one-sided sum evaluated together: a block's arrays stay in
# cache, and n = 10^7 needs no array of n terms
_BLOCK = 1 << 14


def kstwo_sf(n: int, d: float) -> float:
    """Pr(D_n >= d) for the two-sided KS statistic of n samples; equals
    ``scipy.stats.kstwo.sf(d, n)`` bit for bit off the one-sided tail."""
    # a 0-d array, as scipy's nditer hands it over: x**1.5 below rounds
    # differently on a numpy scalar, and it picks the branch
    x = np.asarray(d, dtype=np.float64)
    if np.isnan(x):
        return float("nan")
    if x >= 1.0:
        return 0.0
    if x <= 0.0:
        return 1.0
    return float(_sf(n, x))


def _clip(p):
    return np.clip(p, 0.0, 1.0)


def _sf(n, x):
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n+1) * (1.0/n) * (2*t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2*t-1))
        return _clip(1.0 - prob)
    if t >= n - 1:  # Ruben-Gambino
        return _clip(2 * (1.0 - x)**n)
    if x >= 0.5:  # Exact: 2 * smirnov
        return _clip(2 * _smirnov(n, x))

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return _clip(1.0 - _cdf_dmtw(n, x))
        if nxsquared <= 4:
            return _clip(1.0 - _cdf_pomeranz(n, x))
        # Miller approximation of 2*smirnov
        return _clip(2 * _smirnov(n, x))

    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return _clip(2 * _smirnov(n, x))
    if n <= 100000 and n * x**1.5 <= 1.4:
        cdfprob = _cdf_dmtw(n, x)
    else:
        cdfprob = _cdf_pelz_good(n, x)
    return _clip(1.0 - cdfprob)


def _stirling_remainder(a):
    """R(a) = log Gamma(a) - (a - 1/2) log a + a - log(2 pi) / 2 for a > 0,
    elementwise; log k! = k log k - k + log(2 pi k) / 2 + R(k).

    The eight-term Stirling series from _STIRLING_MIN on (absolute error
    below 1e-16), ``math.lgamma`` below it, where nothing large cancels."""
    a = np.asarray(a, dtype=np.float64)
    r = 1.0 / a
    out = np.asarray(r * np.polyval(_STIRLING_COEFFS, r * r))
    small = a < _STIRLING_MIN
    if small.any():
        out[small] = [
            math.lgamma(v) - (v - 0.5) * math.log(v) + v - _LOG_2PI / 2 for v in a[small].tolist()
        ]
    return out


def _smirnov(n, x):
    """S_n(x) = Pr(D_n^+ >= x) for 1 < n x < n, by the Birnbaum-Tingey sum

        S_n(x) = x sum_{j=0}^{floor(n(1-x))} C(n,j) (1-x-j/n)^(n-j) (x+j/n)^(j-1).

    Term j is t/(t+j) times the binomial probability of j successes in n
    trials of success probability x + j/n, with t = n x.  Its log is written
    through Stirling's formula with remainders R as

        j log1p(t/j) + (n-j) log1p(-t/(n-j)) + log(t/(t+j) sqrt(n/(2 pi j (n-j))))
        + R(n) - R(j) - R(n-j),

    whose large parts n log n, j log j, ... cancel before they are formed,
    so a term's relative error stays near eps * t.  Every term is positive;
    the sum is accumulated block by block against the largest log seen."""
    t = n * x
    # term 0, (1 - x)^n, starts the running sum
    top = n * math.log1p(-x)
    total = 1.0
    r_n = float(_stirling_remainder(n))
    last = math.floor(n - t)
    for start in range(1, last + 1, _BLOCK):
        j = np.arange(start, min(start + _BLOCK, last + 1), dtype=np.float64)
        m = n - j
        logs = j * np.log1p(t / j)
        # at j = n - t exactly the term is 0; rounding may put -t/m just below -1
        with np.errstate(divide="ignore"):
            logs += m * np.log1p(np.maximum(-t / m, -1.0))
        logs += np.log(t / (t + j) * np.sqrt(n / (2 * np.pi) / (j * m)))
        logs += r_n - _stirling_remainder(j) - _stirling_remainder(m)
        block_top = float(logs.max())
        if block_top > top:
            total *= math.exp(top - block_top)
            top = block_top
        total += float(np.exp(logs - top).sum())
    return total * math.exp(top)


def _log_nfactorial_div_n_pow_n(n):
    # log(n! / n**n) by Stirling's series, with n*log(n) removed up front to
    # avoid subtractive cancellation
    rn = 1.0/n
    return np.log(n)/2 - n + _LOG_2PI/2 + rn * np.polyval(_STIRLING_COEFFS, rn/n)


def _cdf_dmtw(n, d):
    """Pr(D_n <= d) by Durbin's matrix algorithm as Marsaglia, Tsang & Wang
    compute it: the k-th diagonal entry of (n!/n^n) H^n, scaled as it grows."""
    # Write d = (k-h)/n, where k is positive integer and 0 <= h < 1, and
    # build the m*m matrix H, m = 2k-1.  Memory O(m^2), work O(m^3 log n).
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])

    # v is the first column (and reversed last row) of H,
    #  v[j] = (1-h^(j+1))/(j+1)!  (except for v[-1]); w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2*h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])  # intermediate powers of H
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]

    # multiply by n!/n^n
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128

    if expnt != 0:
        p = np.ldexp(p, expnt)

    return _clip(p)


def _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf):
    """The endpoints of the interval of row i."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        # i + 1 = 2*ip1div2 + ip1mod2
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1

    return max(j1 + 2, 0), min(j2, n)


def _cdf_pomeranz(n, x):
    """Pr(D_n <= x) by Pomeranz's recursion.

    Each row of the n*(2n+2) matrix V is the convolution of the previous
    row with almost-Poisson weights; the answer is n! times the final entry.
    Only two rows, and only their few non-zero entries, are kept.
    """
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)  # fractional part of t
    g = min(f, 1.0 - f)
    ceilf = (1 if f > 0 else 0)
    roundf = (1 if f > 0.5 else 0)
    npwrs = 2 * (ll + 1)  # the most powers a convolution needs
    gpower = np.empty(npwrs)  # (g/n)^m/m!
    twogpower = np.empty(npwrs)  # (2g/n)^m/m!
    onem2gpower = np.empty(npwrs)  # ((1-2g)/n)^m/m!

    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g/n, 2*g/n, (1 - 2*g)/n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1  # first row
    V0s, V1s = 0, 0  # start indices of the two rows

    j1, j2 = _pomeranz_compute_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        # keep j1, V1, V1s, V0s from the last iteration
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = (twogpower if i % 2 else onem2gpower)
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1  # first index to use from conv
            conv_len = j2 - j1 + 1  # number of entries to use from conv
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:  # rescale against underflow
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    # multiply by n!
    ans = V1[n - V1s]
    for m in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m

    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return _clip(ans)


def _cdf_pelz_good(n, x):
    """Pelz-Good approximation to Pr(D_n <= x), 0 < x < 1.

    Li-Chien and Korolyuk's expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n**1.5 in z = x sqrt(n), with each K_i transformed through the
    Jacobi theta functional equation into a series that converges for
    small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return _clip(0.0)

    q = np.exp(qlog)

    # coefficients of the terms in the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner scheme for sum c_i q^(i^2), a sum over odd integers
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b*msquared,
                           k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    # z**10 > 0 as z > 0.04
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the other sum, over all integers k, summed directly:
    # K_2: (pi^2 k^2) q^(k^2); K_3: (3pi^2 k^2 z^2 - pi^4 k^4) q^(k^2)
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n

    return sum(K0to3)
