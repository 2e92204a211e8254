"""Quantiles of the chi-square and two-sided Kolmogorov-Smirnov laws.

chi2_ppf inverts the regularised lower incomplete gamma P(dof/2, x/2),
summed as a series below a + 1 and as a Lentz continued fraction above
(Numerical Recipes, 3rd ed., section 6.2), by Newton's method from the
Wilson-Hilferty approximation.

ks_ppf inverts Pr(D_n <= x) by the Illinois method.  The CDF follows
Simard & L'Ecuyer, "Computing the Two-Sided Kolmogorov-Smirnov
Distribution" (J. Stat. Softw. 39(11), 2011), with the branch points of
scipy.stats._ksstats: Ruben-Gambino near both ends, the exact one-sided
Smirnov sum, the Pomeranz recursion, the Durbin matrix as evaluated by
Marsaglia, Tsang & Wang (J. Stat. Softw. 8(18), 2003), and the Pelz-Good
series.
"""

from __future__ import annotations

import math
from operator import mul
from statistics import NormalDist

_EPS = 2.0**-52
_TINY = 2.0**-1022
_2P128 = 2.0**128
_2M128 = 2.0**-128
_PI2 = math.pi**2
_SQRT2PI = math.sqrt(2.0 * math.pi)


def _log_front(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a)), kept free of cancellation at large a."""
    if a < 30.0:
        return a * math.log(x) - x - math.lgamma(a)
    d = (x - a) / a
    # Stirling: lgamma(a) = (a - 1/2) log a - a + log(2 pi) / 2 + stirling
    stirling = (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * a * a))
                              / (a * a)) / (a * a)) / a
    return a * (math.log1p(d) - d) + 0.5 * math.log(a / (2.0 * math.pi)) - stirling


def _gamma_p_minus(a: float, x: float, p: float) -> tuple[float, float]:
    """P(a, x) - p and the Gamma(a) density at x > 0, where P is the
    regularised lower incomplete gamma: a series below a + 1, and above it
    a Lentz continued fraction for Q = 1 - P."""
    front = math.exp(_log_front(a, x))
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        while term > total * _EPS:
            ap += 1.0
            term *= x / ap
            total += term
        return total * front - p, front / x
    b = x + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / b
    h, i, delta = d, 0, 0.0
    while abs(delta - 1.0) > _EPS:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / ((an * d + b) or _TINY)
        c = (b + an / c) or _TINY
        delta = d * c
        h *= delta
    return (1.0 - p) - h * front, front / x


def chi2_ppf(p: float, dof: float) -> float:
    """The x with Pr(chi-square with dof degrees of freedom <= x) = p."""
    a = 0.5 * dof
    h = 2.0 / (9.0 * dof)
    x = 0.5 * dof * (1.0 - h + NormalDist().inv_cdf(p) * math.sqrt(h)) ** 3
    if x <= 0.0:  # far lower tail of few dof: P(a, x) ~ x^a / Gamma(a + 1)
        x = math.exp((math.log(p) + math.lgamma(a + 1.0)) / a)
    for _ in range(100):  # Newton, never shrinking x by more than half
        resid, density = _gamma_p_minus(a, x, p)
        x_old, x = x, max(x - resid / density, 0.5 * x)
        if abs(x - x_old) <= 1e-15 * x_old:
            break
    return 2.0 * x


def ks_ppf(p: float, n: int) -> float:
    """The x with Pr(D_n <= x) = p for the two-sided KS statistic D_n."""
    q = 1.0 - p
    delta = math.exp((math.log(p) - math.lgamma(n + 1)) / n)
    if delta <= 1.0 / n:  # Pr = n! (2x - 1/n)^n on [1/2n, 1/n]
        return (delta + 1.0 / n) / 2
    x = -math.expm1(math.log(q / 2.0) / n)
    if x >= 1.0 - 1.0 / n:  # Pr = 1 - 2 (1 - x)^n on [1 - 1/n, 1]
        return x
    # Dvoretzky-Kiefer-Wolfowitz with Massart's constant:
    # Pr(D_n > x) <= 2 exp(-2 n x^2), so the CDF reaches p by this x
    hi = min(math.sqrt(math.log(2.0 / q) / (2.0 * n)), 1.0 - 1.0 / n)
    return _illinois(lambda d: _ks_cdf(n, d) - p, 1.0 / n, hi, 1e-14)


def _ks_cdf(n: int, x: float) -> float:
    """Pr(D_n <= x) for 1/n <= x <= 1 - 1/n, the range ks_ppf searches."""
    t = n * x
    if t <= 1.0:
        return math.exp(math.lgamma(n + 1) + n * math.log((2.0 * t - 1.0) / n))
    if t >= n - 1:
        return 1.0 - 2.0 * (1.0 - x) ** n
    if x >= 0.5:
        return 1.0 - 2.0 * _smirnov_sf(n, x)
    nx2 = t * x
    if n <= 140:
        if nx2 <= 0.754693:
            return _durbin(n, x)
        if nx2 <= 4.0:
            return _pomeranz(n, x)
        return 1.0 - 2.0 * _smirnov_sf(n, x)
    if nx2 >= 18.0:
        return 1.0
    if n <= 100000 and n * x**1.5 <= 1.4:
        return _durbin(n, x)
    return _pelz_good(n, x)


def _smirnov_sf(n: int, x: float) -> float:
    """Pr(D_n^+ >= x) by the exact sum of Birnbaum & Tingey (1951)."""
    total = 0.0
    for j in range(int(n * (1.0 - x)) + 1):
        rest = 1.0 - x - j / n
        if rest <= 0.0:
            break
        total += math.exp(math.log(math.comb(n, j)) + (n - j) * math.log(rest)
                          + (j - 1) * math.log(x + j / n))
    return x * total


def _durbin(n: int, x: float) -> float:
    """Pr(D_n <= x) as n!/n^n times an entry of H^n, scaled by powers of 2."""
    k = math.ceil(n * x)
    h = k - n * x
    m = 2 * k - 1
    w, v, fac = [], [], 1.0
    for j in range(1, m + 1):
        w.append(fac)
        fac /= j
        v.append((1.0 - h**j) * fac)
    v[-1] = (1.0 + max(2.0 * h - 1.0, 0.0) ** m - 2.0 * h**m) * fac
    H = [[v[r]] + [w[r - i + 1] if r >= i - 1 else 0.0 for i in range(1, m)]
         for r in range(m - 1)] + [v[::-1]]

    def matmul(A, B):
        cols = list(zip(*B))
        return [[sum(map(mul, row, col)) for col in cols] for row in A]

    power, expnt, h_expnt, nn = None, 0, 0, n
    while nn:
        if nn % 2:
            power = H if power is None else matmul(power, H)
            expnt += h_expnt
        nn //= 2
        if nn:
            H = matmul(H, H)
            h_expnt *= 2
            if abs(H[k - 1][k - 1]) > _2P128:
                H = [[e * _2M128 for e in row] for row in H]
                h_expnt += 128
    p = power[k - 1][k - 1]
    for i in range(1, n + 1):
        p = i * p / n
        if abs(p) < _2M128:
            p *= _2P128
            expnt -= 128
    return math.ldexp(p, expnt)


def _pomeranz_bounds(i: int, n: int, ll: int, ceilf: int, roundf: int) -> tuple[int, int]:
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        half, rem = divmod(i + 1, 2)
        if rem == 0 and half == n + 1:
            j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
        elif rem == 0:
            j1, j2 = half - 2 - ll - roundf, half + ll - 2 + ceilf
        else:
            j1, j2 = half - 2 - ll, half + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _pomeranz(n: int, x: float) -> float:
    """Pr(D_n <= x) by the Pomeranz (1974) recursion, scaled by powers of 2."""
    t = n * x
    ll = int(t)
    f = t - ll
    g = min(f, 1.0 - f)
    ceilf, roundf = int(f > 0), int(f > 0.5)
    size = 2 * (ll + 1)

    def powers(c):  # (c/n)^m / m!
        out = [1.0]
        for m in range(1, size):
            out.append(out[-1] * (c / n) / m)
        return out

    gpow, twogpow, onem2gpow = powers(g), powers(2.0 * g), powers(1.0 - 2.0 * g)
    v0, v1 = [0.0] * size, [1.0] + [0.0] * (size - 1)
    v0s = v1s = expnt = 0
    j1, j2 = _pomeranz_bounds(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        v0, v0s, v1s = v1, v1s, v0s
        v1 = [0.0] * size
        j1, j2 = _pomeranz_bounds(i, n, ll, ceilf, roundf)
        pw = gpow if i in (1, 2 * n + 1) else (twogpow if i % 2 else onem2gpow)
        width = j2 - k1 + 1
        if width > 0:
            seg = v0[k1 - v0s:k1 - v0s + width]
            for c in range(j1 - k1, j2 - k1 + 1):
                v1[c - j1 + k1] = sum(map(mul, seg[:c + 1], pw[c::-1]))
            if 0.0 < max(v1) < _2M128:
                v1 = [e * _2P128 for e in v1]
                expnt -= 128
            v1s = v0s + j1 - k1
    ans = v1[n - v1s]
    for m in range(1, n + 1):
        if abs(ans) > _2P128:
            ans *= _2M128
            expnt += 128
        ans *= m
    return math.ldexp(ans, expnt)


def _pelz_good(n: int, x: float) -> float:
    """Pelz & Good (1976) series for Pr(D_n <= x), good at large n."""
    z = math.sqrt(n) * x
    z2 = z * z
    if _PI2 / 8.0 / z2 > 708.0:
        return 0.0
    q = math.exp(-_PI2 / 8.0 / z2)
    maxk = math.ceil(16.0 * z / math.pi)
    q_all = math.exp(-_PI2 / 2.0 / z2)
    k0 = k1 = k2 = k3 = sum2 = sum3 = 0.0
    for k in range(maxk, 0, -1):  # Horner in q^8 over odd m = 2k - 1, w = (m pi)^2
        w = (2 * k - 1) ** 2 * _PI2
        qpow = q ** (8 * k)
        k0 = k0 * qpow + 1.0
        k1 = k1 * qpow - z2 + w / 4.0
        k2 = (k2 * qpow + 6.0 * z2**3 + 2.0 * z2**2 + (2.0 * z2**2 - 5.0 * z2) * w / 4.0
              + (1.0 - 2.0 * z2) * w * w / 16.0)
        k3 = (k3 * qpow - 30.0 * z2**3 - 90.0 * z2**4 + (135.0 * z2**2 - 96.0 * z2**3) * w / 4.0
              + (212.0 * z2**2 - 60.0 * z2) * w * w / 16.0 + (5.0 - 30.0 * z2) * w**3 / 64.0)
        # the terms of K2 and K3 summed over every k, not only the odd m
        term = k * k * q_all ** (k * k)
        sum2 += term
        sum3 += (3.0 * z2 - _PI2 * k * k) * term
    front = q * _SQRT2PI
    k0, k1 = k0 * front / z, k1 * front / (6.0 * z2**2)
    k2 = k2 * front / (72.0 * z**7) - sum2 * _PI2 * _SQRT2PI / (36.0 * z**3)
    k3 = k3 * front / (6480.0 * z**10) + sum3 * _PI2 * _SQRT2PI / (216.0 * z2**3)
    return k0 + k1 / math.sqrt(n) + k2 / n + k3 / n**1.5


def _illinois(f, lo: float, hi: float, xtol: float) -> float:
    """Root of f on [lo, hi], f(lo) < 0 < f(hi): regula falsi that halves
    the weight of an end kept twice in a row (the Illinois rule)."""
    flo, fhi, kept = f(lo), f(hi), 0
    while hi - lo > xtol:
        x = (lo * fhi - hi * flo) / (fhi - flo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo, flo = x, fx
            fhi, kept = (0.5 * fhi if kept == 1 else fhi), 1
        else:
            hi, fhi = x, fx
            flo, kept = (0.5 * flo if kept == -1 else flo), -1
    return 0.5 * (lo + hi)
