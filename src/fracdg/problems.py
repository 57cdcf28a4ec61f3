"""Manufactured problems with closed-form solutions and forcings.

Solutions are mode expansions u(x,t) = sum_m u_m(t) phi_m(x) whose time
profiles are finite sums of powers c t^e.  The forcing follows from the
power identity for the Riemann-Liouville operator of order -alpha,

    B_alpha t^nu = (Gamma(nu+1) / Gamma(nu+1+alpha)) t^{nu+alpha},

so f_m = u_m' + lambda_m B_alpha u_m stays a power sum that downstream
quadrature can integrate exactly.  Every forcing produced here is checked
against independent quadrature in the test suite before the solver trusts
it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernel import _alpha_of

__all__ = [
    "PowerSum",
    "ModeComponent",
    "ManufacturedProblem",
    "two_mode_problem",
    "power_mode_problem",
]

_MERGE_TOL = 1e-15


def _merged(pairs):
    acc = {}
    for coeff, exponent in pairs:
        exponent = float(exponent)
        acc[exponent] = acc.get(exponent, 0.0) + float(coeff)
    kept = [(c, e) for e, c in sorted(acc.items()) if abs(c) > _MERGE_TOL]
    return tuple(kept)


@dataclass(frozen=True)
class PowerSum:
    """Finite sum of real powers sum_k c_k t^{e_k} with e_k >= 0."""

    terms: tuple

    @classmethod
    def of(cls, *pairs):
        terms = _merged(pairs)
        if any(e < 0.0 for _, e in terms):
            raise ValueError("power-sum exponents must be nonnegative")
        return cls(terms)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for coeff, exponent in self.terms:
            if exponent == 0.0:
                out += coeff
            else:
                out += coeff * np.where(t > 0.0, t, 1.0) ** exponent * (t > 0.0)
        return float(out) if out.ndim == 0 else out

    def at_zero(self):
        return sum(c for c, e in self.terms if e == 0.0)

    def derivative(self):
        return PowerSum(_merged((c * e, e - 1.0) for c, e in self.terms if e != 0.0))

    def frac_derivative(self, order):
        """Apply B_alpha termwise via the power identity."""
        alpha = _alpha_of(order)
        return PowerSum(
            _merged(
                (c * math.gamma(e + 1.0) / math.gamma(e + 1.0 + alpha), e + alpha)
                for c, e in self.terms
            )
        )

    def frac_integral(self, order):
        """Apply the inverse operator I^{-alpha} termwise."""
        alpha = _alpha_of(order)
        return PowerSum(
            _merged(
                (c * math.gamma(e + 1.0) / math.gamma(e + 1.0 - alpha), e - alpha)
                for c, e in self.terms
            )
        )

    def scale(self, factor):
        return PowerSum(_merged((factor * c, e) for c, e in self.terms))

    def __add__(self, other):
        return PowerSum(_merged(self.terms + other.terms))

    def __neg__(self):
        return self.scale(-1.0)

    @property
    def min_exponent(self):
        return min((e for _, e in self.terms), default=0.0)


@dataclass(frozen=True)
class ModeComponent:
    """One scalar mode: eigenvalue, exact profile, closed-form forcing."""

    eigenvalue: float
    profile: PowerSum
    forcing: PowerSum

    @property
    def forcing_exponents(self):
        return tuple(e for _, e in self.forcing.terms)

    @property
    def singular_exponent(self):
        """Most singular non-integer forcing exponent below 1, if any."""
        candidates = [e for e in self.forcing_exponents if e < 1.0 and e != round(e)]
        return min(candidates) if candidates else None


def _mode(lam, profile, alpha):
    forcing = profile.derivative() + profile.frac_derivative(alpha).scale(lam)
    return ModeComponent(float(lam), profile, forcing)


@dataclass(frozen=True)
class ManufacturedProblem:
    """Named exact solution with per-mode forcing and regularity tag."""

    name: str
    alpha: float
    sigma: float
    diffusivity: float
    modes: tuple

    @property
    def mode_count(self):
        return len(self.modes)

    @property
    def eigenvalues(self):
        return np.array([m.eigenvalue for m in self.modes])

    def initial_coefficients(self):
        return np.array([m.profile.at_zero() for m in self.modes])

    def exact_coefficients(self, t):
        """Matrix of exact mode values, rows follow t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([m.profile(t) for m in self.modes])


def two_mode_problem(alpha, K=1.0):
    """Exact solution sin(pi x) - t^{alpha+2} sin(2 pi x) on (0,1).

    Profiles are stored in the orthonormal basis phi_m = sqrt(2) sin(m pi x),
    so the coefficient of mode 1 is 1/sqrt(2) and of mode 2 is
    -t^{alpha+2}/sqrt(2).  The regularity exponent is sigma = alpha + 2.
    """
    alpha = _alpha_of(alpha)
    if K <= 0.0:
        raise ValueError(f"diffusivity K must be positive, got {K}")
    lam = K * math.pi**2 * np.array([1.0, 4.0])
    root_half = 1.0 / math.sqrt(2.0)
    modes = (
        _mode(lam[0], PowerSum.of((root_half, 0.0)), alpha),
        _mode(lam[1], PowerSum.of((-root_half, alpha + 2.0)), alpha),
    )
    return ManufacturedProblem("two_mode", alpha, alpha + 2.0, float(K), modes)


def power_mode_problem(lam, nu, alpha):
    """Single scalar mode u = t^nu with its closed-form forcing."""
    alpha = _alpha_of(alpha)
    if nu < 0.0:
        raise ValueError(f"exponent nu must be >= 0, got {nu}")
    if nu + alpha <= -1.0:
        raise ValueError(f"forcing exponent nu+alpha = {nu + alpha} is non-integrable")
    modes = (_mode(lam, PowerSum.of((1.0, float(nu))), alpha),)
    sigma = float(nu) if nu > 0.0 else math.inf
    return ManufacturedProblem(f"power_{nu:g}", alpha, sigma, 1.0, modes)
