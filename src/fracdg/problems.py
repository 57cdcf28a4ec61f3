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

from .kernel import _check_alpha

__all__ = [
    "PowerSum",
    "ModeComponent",
    "ManufacturedProblem",
    "two_mode_problem",
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
    """Finite sum of real powers sum_k c_k t^{e_k}.

    `of` requires e_k >= 0, as a solution profile has; forcings and
    derivatives also carry exponents in (-1, 0), for example t^-0.7.
    """

    terms: tuple

    @classmethod
    def of(cls, *pairs):
        for coeff, exponent in pairs:
            if not (math.isfinite(coeff) and math.isfinite(exponent)):
                raise ValueError(f"power-sum terms must be finite, got {(coeff, exponent)}")
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

    def frac_derivative(self, alpha):
        """Apply B_alpha termwise via the power identity."""
        return PowerSum(
            _merged(
                (c * math.gamma(e + 1.0) / math.gamma(e + 1.0 + alpha), e + alpha)
                for c, e in self.terms
            )
        )

    def frac_integral(self, alpha):
        """Apply the inverse operator I^{-alpha}: B_alpha at order -alpha."""
        return self.frac_derivative(-alpha)

    def scale(self, factor):
        return PowerSum(_merged((factor * c, e) for c, e in self.terms))

    def __add__(self, other):
        return PowerSum(_merged(self.terms + other.terms))

    @property
    def min_exponent(self):
        return min((e for _, e in self.terms), default=0.0)


@dataclass(frozen=True)
class ModeComponent:
    """One scalar mode: eigenvalue, exact profile, closed-form forcing."""

    eigenvalue: float
    profile: PowerSum
    forcing: PowerSum


def _mode(lam, profile, alpha):
    forcing = profile.derivative() + profile.frac_derivative(alpha).scale(lam)
    return ModeComponent(float(lam), profile, forcing)


@dataclass(frozen=True)
class ManufacturedProblem:
    """Exact solution with per-mode forcing."""

    alpha: float
    diffusivity: float
    modes: tuple

    @property
    def mode_count(self):
        return len(self.modes)

    def initial_coefficients(self):
        return np.array([m.profile.at_zero() for m in self.modes])

    def exact_coefficients(self, t):
        """Matrix of exact mode values, rows follow t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([m.profile(t) for m in self.modes])


def two_mode_problem(alpha, K=1.0):
    """The problem every `fracdg` run solves: sin(pi x) - t^{alpha+2} sin(2 pi x) on (0,1).

    Profiles are stored in the orthonormal basis phi_m = sqrt(2) sin(m pi x),
    so the coefficient of mode 1 is 1/sqrt(2) and of mode 2 is
    -t^{alpha+2}/sqrt(2), so the solution's regularity exponent is alpha + 2.
    """
    alpha = _check_alpha(alpha)
    if not 0.0 < K < math.inf:
        raise ValueError(f"diffusivity K must be positive and finite, got {K}")
    lam = K * math.pi**2 * np.array([1.0, 4.0])
    root_half = 1.0 / math.sqrt(2.0)
    modes = (
        _mode(lam[0], PowerSum.of((root_half, 0.0)), alpha),
        _mode(lam[1], PowerSum.of((-root_half, alpha + 2.0)), alpha),
    )
    return ManufacturedProblem(alpha, float(K), modes)

