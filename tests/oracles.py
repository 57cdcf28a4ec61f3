"""Independent slow-path integrals used to cross-check the fast kernel rules.

The building block is exact: for a polynomial F and a point z outside the
open interval (a, b), Taylor-expanding F about z turns

    int_a^b F(s) |s - z|^beta ds

into a finite sum of power integrals.  The sum cancels catastrophically in
floating point once z is far from the interval, so it is evaluated in mpmath
at escalating precision until the rounded double stops moving.  Moments and
jump entries therefore need no quadrature at all; a memory-matrix entry
needs one tanh-sinh pass for the outer time integral.  Nothing here calls
the package's Gauss rules.
"""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
from numpy.polynomial import legendre
from scipy.integrate import quad


@lru_cache(maxsize=64)
def _legendre_monomial(k):
    """Exact rational monomial coefficients of P_k (Bonnet recurrence)."""
    if k == 0:
        return (Fraction(1),)
    if k == 1:
        return (Fraction(0), Fraction(1))
    pm1, pm2 = _legendre_monomial(k - 1), _legendre_monomial(k - 2)
    out = [Fraction(0)] * (k + 1)
    for i, c in enumerate(pm1):
        out[i + 1] += (2 * k - 1) * c
    for i, c in enumerate(pm2):
        out[i] -= (k - 1) * c
    return tuple(c / k for c in out)


def _poly_derivatives_at(coeffs, x, m_max):
    """Values F(x), F'(x), ..., F^(m_max)(x) by mpf Horner on rational coeffs."""
    vals = []
    cur = [mp.mpf(c.numerator) / c.denominator for c in coeffs]
    for _ in range(m_max + 1):
        acc = mp.mpf(0)
        for c in reversed(cur):
            acc = acc * x + c
        vals.append(acc)
        cur = [i * c for i, c in enumerate(cur)][1:] or [mp.mpf(0)]
    return vals


def _stable_float(builder, start_dps=30, cap_dps=960):
    """Evaluate at doubling precision until the double-rounded value settles."""
    prev = None
    dps = start_dps
    while dps <= cap_dps:
        with mp.workdps(dps):
            val = float(builder())
        if prev is not None and (val == prev or abs(val - prev) <= 1e-14 * max(abs(val), abs(prev))):
            return val
        prev = val
        dps *= 2
    return prev


def _taylor_moment(a, b, t, k, alpha, deriv):
    """Mpf sum for int_a^min(b,t) F(s)(t-s)^alpha ds at current precision."""
    am, bm, tm = mp.mpf(a), mp.mpf(b), t if isinstance(t, mp.mpf) else mp.mpf(t)
    upper = bm if tm > bm else tm
    deg = k - 1 if deriv else k
    x = (2 * tm - (am + bm)) / (bm - am)
    chain = 2 / (bm - am)
    ders = _poly_derivatives_at(_legendre_monomial(k), x, deg + (1 if deriv else 0))
    if deriv:
        ders = ders[1:]
        shift = 1
    else:
        shift = 0
    al = mp.mpf(alpha)
    ta, tu = tm - am, tm - upper
    total = mp.mpf(0)
    for m in range(deg + 1):
        c = (-1) ** m * ders[m] * chain ** (m + shift) / mp.factorial(m)
        e = al + m + 1
        total += c * (ta**e - (tu**e if tu > 0 else mp.mpf(0))) / e
    return total


def moment_oracle(a, b, t, k, alpha, deriv=False):
    """Exact int_a^min(b,t) F(s) (t-s)^alpha ds, F = P_k mapped to (a, b).

    Requires t > a.  With deriv=True the integrand uses F' instead.
    """
    if not t > a:
        raise ValueError("moment oracle needs t > a")
    if deriv and k == 0:
        return 0.0
    return _stable_float(lambda: _taylor_moment(a, b, t, k, alpha, deriv))


def left_moment_oracle(a, b, z, k, beta):
    """Exact int_a^b F(t) (t-z)^beta dt for z <= a, F = P_k mapped to (a, b)."""
    if not z <= a:
        raise ValueError("left moment oracle needs z <= a")

    def build():
        am, bm, zm = mp.mpf(a), mp.mpf(b), mp.mpf(z)
        x = (2 * zm - (am + bm)) / (bm - am)
        chain = 2 / (bm - am)
        ders = _poly_derivatives_at(_legendre_monomial(k), x, k)
        be = mp.mpf(beta)
        bz, az = bm - zm, am - zm
        total = mp.mpf(0)
        for m in range(k + 1):
            c = ders[m] * chain**m / mp.factorial(m)
            e = be + m + 1
            total += c * (bz**e - (az**e if az > 0 else mp.mpf(0))) / e
        return total

    return _stable_float(build)


def jacobi_rule_moment_error(x, w, sigma):
    """Largest |sum_i w_i P_k(x_i) - int_{-1}^1 (1+x)^sigma P_k(x) dx| over
    k < 2n, n = x.size, relative to the weight's mass mu0 (k = 0), in 50
    digits from the exact values of the doubles x and w.  The moments are
    2^(sigma+1) Gamma(sigma+1)^2 / (Gamma(sigma+k+2) Gamma(sigma+1-k))
    (Gradshteyn & Ryzhik 7.127), products of beta-function factors that no
    sum cancels; the rule's sums take Bonnet's recurrence."""
    count = 2 * len(x)
    with mp.workdps(50):
        s = mp.mpf(sigma)
        scale = 2 ** (s + 1) * mp.gamma(s + 1) ** 2
        exact = [scale * mp.rgamma(s + k + 2) * mp.rgamma(s + 1 - k) for k in range(count)]
        sums = [mp.mpf(0)] * count
        for xi, wi in zip(map(mp.mpf, np.asarray(x).tolist()), map(mp.mpf, np.asarray(w).tolist())):
            previous, current = mp.mpf(0), mp.mpf(1)
            for k in range(count):
                sums[k] += wi * current
                previous, current = current, ((2 * k + 1) * xi * current - k * previous) / (k + 1)
        return float(max(abs(got - want) for got, want in zip(sums, exact)) / exact[0])


def jump_entry_oracle(anchor, tl, tr, alpha, i):
    """int_{I_n} P_i(t) (t - anchor)^alpha dt / Gamma(alpha+1), anchor <= tl."""
    return left_moment_oracle(tl, tr, anchor, i, alpha) / math.gamma(alpha + 1.0)


def block_entry_oracle(sl, sr, tl, tr, alpha, i, l):
    """One memory-matrix entry by an outer tanh-sinh pass over the exact inner:

    int_{I_n} P_i(t) [ int_{I_j cap (0,t)} (t-s)^alpha P_l'(s) ds ] dt
    divided by Gamma(alpha+1); I_j = (sl, sr), I_n = (tl, tr).
    """
    if l == 0:
        return 0.0
    ci = np.zeros(i + 1)
    ci[i] = 1.0

    def outer(t):
        x = (2 * t - (tl + tr)) / (tr - tl)
        pi_t = mp.mpf(float(legendre.legval(float(x), ci)))
        return pi_t * _taylor_moment(sl, sr, t, l, alpha, True)

    def build():
        return mp.quad(outer, [mp.mpf(tl), mp.mpf(tr)]) / mp.gamma(mp.mpf(alpha) + 1)

    return _stable_float(build, start_dps=25, cap_dps=100)


def kernel_mass(a, b, t, alpha):
    """Closed form int_a^min(b,t) (t-s)^alpha ds, the natural entry magnitude."""
    upper = min(b, t)
    return ((t - a) ** (alpha + 1.0) - (t - upper) ** (alpha + 1.0)) / (alpha + 1.0)


def block_anchor(sl, sr, tl, tr, alpha):
    """Magnitude scale for entries of the (j, n) block (two-term tolerances)."""
    return abs(kernel_mass(sl, sr, tr, alpha)) * (2.0 / (sr - sl)) * (tr - tl) / math.gamma(alpha + 1.0)


def legendre_poly(k, a, b):
    """Float callable for P_k mapped from (a, b) to the reference interval."""
    coeff = np.zeros(k + 1)
    coeff[k] = 1.0
    return lambda s: legendre.legval((2.0 * s - (a + b)) / (b - a), coeff)


def riemann_liouville_oracle(alpha, v_zero, v_prime, t):
    """B_alpha v(t) for continuous v via the differentiated representation,

        B v(t) = w_{alpha+1}(t) v(0+) + int_0^t w_{alpha+1}(t-s) v'(s) ds,

    with the integral done by tanh-sinh quadrature split at t/2 so both
    endpoint singularities (v' at 0, the kernel at t) are resolved.
    """
    with mp.workdps(40):
        t_mp = mp.mpf(t)
        a_mp = mp.mpf(alpha)

        def integrand(s):
            return mp.mpf(float(v_prime(float(s)))) * (t_mp - s) ** a_mp

        integral = mp.quad(integrand, [mp.mpf(0), t_mp / 2, t_mp])
        jump = v_zero * t_mp**a_mp
        return float((jump + integral) / mp.gamma(a_mp + 1))


def convolution_values(alpha, v, t, pieces):
    """int_0^t w(t-s) v(s) ds with w = s^alpha/Gamma(alpha+1) by adaptive quad.

    `pieces` lists breakpoints of v so the quadrature can split there.  Used
    to cross-check the differentiated convolution pointwise.
    """
    total = 0.0
    cuts = [p for p in pieces if p < t] + [t]
    lo = 0.0
    for hi in cuts:
        if hi <= lo:
            continue
        if hi == t:
            val, _ = quad(v, lo, hi, weight="alg", wvar=(0.0, alpha), epsabs=1e-14, epsrel=1e-12, limit=200)
        else:
            val, _ = quad(lambda s: v(s) * (t - s) ** alpha, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
        total += val
        lo = hi
    return total / math.gamma(alpha + 1.0)
