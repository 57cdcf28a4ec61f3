"""Manufactured problems: power-sum algebra and forcing verification."""

import math

import numpy as np
import pytest

from fracdg.problems import (
    ManufacturedProblem,
    PowerSum,
    _mode,
    two_mode_problem,
)

from oracles import riemann_liouville_oracle
from support import power_mode_problem


def test_power_sum_merging_and_eval():
    p = PowerSum.of((2.0, 1.0), (0.5, 0.0), (1.0, 1.0))
    assert p.terms == ((0.5, 0.0), (3.0, 1.0))
    assert p(2.0) == pytest.approx(6.5)
    assert p(np.array([0.0, 1.0])) == pytest.approx([0.5, 3.5])
    assert p.at_zero() == pytest.approx(0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        PowerSum.of((1.0, -0.5))


def test_power_sum_derivative():
    p = PowerSum.of((3.0, 2.0), (-1.0, 1.0), (7.0, 0.0))
    assert p.derivative().terms == ((-1.0, 0.0), (6.0, 1.0))
    assert PowerSum.of((1.0, 0.0)).derivative().terms == ()


def test_frac_derivative_of_constant():
    # B_alpha 1 = t^alpha / Gamma(alpha+1)
    alpha = -0.5
    b = PowerSum.of((1.0, 0.0)).frac_derivative(alpha)
    assert len(b.terms) == 1
    coeff, exponent = b.terms[0]
    assert exponent == pytest.approx(alpha)
    assert coeff == pytest.approx(1.0 / math.gamma(alpha + 1.0), rel=1e-14)


def test_frac_integral_inverts_frac_derivative():
    alpha = -0.3
    p = PowerSum.of((2.0, 0.5), (-1.0, 3.0))
    roundtrip = p.frac_integral(alpha).frac_derivative(alpha)
    for (c1, e1), (c2, e2) in zip(p.terms, roundtrip.terms):
        assert c2 == pytest.approx(c1, rel=1e-14)
        assert e2 == pytest.approx(e1, abs=1e-14)


def test_two_mode_structure():
    alpha = -0.7
    problem = two_mode_problem(alpha)
    # mode 2 is -t^(alpha+2)/sqrt(2): the regularity exponent is alpha + 2
    assert [exponent for _, exponent in problem.modes[1].profile.terms] == pytest.approx([alpha + 2.0])
    assert [m.eigenvalue for m in problem.modes] == pytest.approx([math.pi**2, 4.0 * math.pi**2])
    assert problem.initial_coefficients() == pytest.approx([1.0 / math.sqrt(2.0), 0.0])
    vals = problem.exact_coefficients([0.25, 1.0])
    assert vals.shape == (2, 2)
    assert vals[1, 1] == pytest.approx(-1.0 / math.sqrt(2.0))
    assert vals[0, 1] == pytest.approx(-(0.25 ** (alpha + 2.0)) / math.sqrt(2.0))


def test_two_mode_forcing_closed_form():
    alpha = -0.7
    lam1, lam2 = math.pi**2, 4.0 * math.pi**2
    problem = two_mode_problem(alpha)
    scale = 1.0 / math.sqrt(2.0)

    f1 = problem.modes[0].forcing
    assert len(f1.terms) == 1
    coeff, exponent = f1.terms[0]
    assert exponent == pytest.approx(alpha)
    assert coeff == pytest.approx(scale * lam1 / math.gamma(alpha + 1.0), rel=1e-14)

    f2 = problem.modes[1].forcing
    assert len(f2.terms) == 2
    (c_a, e_a), (c_b, e_b) = f2.terms
    assert e_a == pytest.approx(alpha + 1.0)
    assert c_a == pytest.approx(-scale * (alpha + 2.0), rel=1e-14)
    assert e_b == pytest.approx(2.0 * alpha + 2.0)
    ratio = math.gamma(alpha + 3.0) / math.gamma(2.0 * alpha + 3.0)
    assert c_b == pytest.approx(-scale * lam2 * ratio, rel=1e-14)


def _forcing_exponents(mode):
    return tuple(e for _, e in mode.forcing.terms)


def test_singular_exponents_recorded():
    alpha = -0.7
    problem = two_mode_problem(alpha)
    assert _forcing_exponents(problem.modes[0]) == (pytest.approx(alpha),)
    assert _forcing_exponents(problem.modes[1]) == (
        pytest.approx(alpha + 1.0),
        pytest.approx(2.0 * alpha + 2.0),
    )


def test_power_mode_constant():
    alpha, lam = -0.5, 3.0
    problem = power_mode_problem(lam, 0.0, alpha)
    f = problem.modes[0].forcing
    assert len(f.terms) == 1
    coeff, exponent = f.terms[0]
    assert exponent == pytest.approx(alpha)
    assert coeff == pytest.approx(lam / math.gamma(alpha + 1.0), rel=1e-14)


def test_power_mode_classical_limit():
    # nu=1 as alpha -> 0-: f -> 1 + lam t
    lam = 2.0
    problem = power_mode_problem(lam, 1.0, -1e-7)
    f = problem.modes[0].forcing
    for t in (0.3, 1.0, 1.7):
        assert f(t) == pytest.approx(1.0 + lam * t, rel=1e-5)


def test_power_mode_fractional_exponent():
    alpha = -0.7
    problem = power_mode_problem(1.0, alpha + 2.0, alpha)
    exponents = _forcing_exponents(problem.modes[0])
    assert any(e == pytest.approx(2.0 * alpha + 2.0) for e in exponents)
    assert exponents[-1] == pytest.approx(0.6)


def test_power_mode_validation():
    with pytest.raises(ValueError, match="nu"):
        power_mode_problem(1.0, -0.5, -0.5)


def test_forcing_residual_against_quadrature():
    # f_m must equal u_m' + lam B_alpha u_m; B_alpha evaluated by
    # independent singular quadrature, nothing shared with the package
    rng = np.random.default_rng(23)
    problems = [
        two_mode_problem(-0.5),
        two_mode_problem(-0.7),
        power_mode_problem(2.5, 1.75, -0.3),
        ManufacturedProblem(
            -0.4, 1.0,
            (
                _mode(1.0, PowerSum.of((1.0, 0.0), (0.5, 1.3)), -0.4),
                _mode(5.0, PowerSum.of((-2.0, 2.0)), -0.4),
            ),
        ),
    ]
    times = rng.uniform(0.02, 1.0, 50)
    for problem in problems:
        for mode in problem.modes:
            du = mode.profile.derivative()
            for t in times[:13] if problem.mode_count > 1 else times:
                frac = riemann_liouville_oracle(
                    problem.alpha, mode.profile.at_zero(), du, t
                )
                residual = du(t) + mode.eigenvalue * frac - mode.forcing(t)
                assert abs(residual) < 1e-9


def test_regularity_tags():
    # sampled |u^(j)|_1 t^{j-sigma} stays bounded toward t -> 0 for j <= 3,
    # sigma the regularity exponent: alpha + 2 for the two-mode problem and
    # nu for t^nu
    for problem, sigma in ((two_mode_problem(-0.7), -0.7 + 2.0), (power_mode_problem(4.0, 1.75, -0.3), 1.75)):
        lam = np.array([m.eigenvalue for m in problem.modes])
        times = np.logspace(-6, 0, 40)
        for j in (1, 2, 3):
            ders = [m.profile for m in problem.modes]
            for _ in range(j):
                ders = [d.derivative() for d in ders]
            vals = np.column_stack([d(times) for d in ders])
            norm = np.sqrt((vals**2) @ lam)
            ratio = norm * times ** (j - sigma)
            assert np.all(np.isfinite(ratio))
            assert ratio.max() <= 2.0 * ratio[-1] + 1e-12
