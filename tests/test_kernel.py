"""Oracle-first checks of the singular kernel rules and memory blocks.

Reference values come from tests/oracles.py (exact Taylor closed forms in
extended precision plus adaptive quadrature), from power-function identities
of the fractional operator, or from hand-derived constants.  Tolerances are
two-term: a relative part plus an absolute floor tied to the natural entry
magnitude, since entries far below that magnitude are pure cancellation
noise in double precision no matter how they are computed.
"""

import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fracdg import kernel
from fracdg import stepper as stepper_mod
from fracdg.config import _MAX_DEGREE, _MIN_ALPHA
from fracdg.mesh import TimeMesh, geometric_mesh, graded_mesh
from fracdg.problems import PowerSum, two_mode_problem
from fracdg.stepper import mode_problems, solve, stability_report
from support import (
    apply_per_source,
    block_and_jump_column,
    form_through,
    grouped_near_rows,
    grouped_right_power_rules,
    mapped_leggauss,
    matmul_far_block,
    matmul_legendre_derivative_values,
    near_t_layers,
    per_pair_jump_columns,
    power_moments,
)

# Largest Legendre degree the kernel rules are checked to; far beyond
# anything the hp studies use.
MAX_MOMENT_DEGREE = 64


def right_power_rule(a, b, z, beta, deg):
    """(nodes, weights) for int_a^b F(s) (z-s)^beta ds, z >= b: the
    one-point case of `kernel._right_power_rules`, one group of one rule."""
    _, nodes, weights, groups = kernel._right_power_rules(a, b, np.array([z], dtype=float), beta, deg)
    assert len(groups) == 1
    return nodes, weights


def frac_moment(a, b, t, k, alpha):
    """int_a^min(b, t) (t-s)^alpha P_k(s) ds with P_k the Legendre basis on (a, b)."""
    nodes, weights = right_power_rule(a, min(b, t), t, alpha, k)
    return float(weights @ kernel.legendre_values(nodes, a, b, k)[:, k])


def einsum_far_block(sl, sr, tl, tr, alpha, p_n, p_j):
    """Far block by one tensor einsum over weights, kernel and mapped bases."""
    if p_j == 0:
        return np.zeros((p_n + 1, p_j + 1))
    npts = max(p_n, p_j, 1) + kernel._FAR_PADDING
    t_nodes, t_w = kernel._gauss_legendre(npts, tl, tr)
    s_nodes, s_w = kernel._gauss_legendre(npts, sl, sr)
    kern = (t_nodes[:, None] - s_nodes[None, :]) ** alpha
    tvals = kernel.legendre_values(t_nodes, tl, tr, p_n)
    gvals = kernel.legendre_derivative_values(s_nodes, sl, sr, p_j, 1)
    mat = np.einsum("q,r,qr,qi,rl->il", t_w, s_w, kern, tvals, gvals)
    return mat * kernel._kernel_scale(alpha)


def longdouble_far_block(sl, sr, tl, tr, alpha, p_n, p_j):
    """The far block's tensor rule summed in long double, bases at the reference nodes."""
    from numpy.polynomial import legendre as leg

    npts = max(p_n, p_j, 1) + kernel._FAR_PADDING
    x, w = (v.astype(np.longdouble) for v in leg.leggauss(npts))
    t_nodes, _ = kernel._gauss_legendre(npts, tl, tr)
    s_nodes, _ = kernel._gauss_legendre(npts, sl, sr)
    kern = (t_nodes[:, None].astype(np.longdouble) - s_nodes[None, :]) ** np.longdouble(alpha)
    left = (w[:, None] * leg.legvander(x, p_n)).T
    right = w[:, None] * leg.legvander(x, max(p_j - 1, 0)) @ leg.legder(np.eye(p_j + 1), axis=0)
    half = np.longdouble(tr - tl) / 2
    return left @ kern @ right * half / np.longdouble(math.gamma(alpha + 1.0))


def frac_derivative_values(mesh, alpha, coeffs, times):
    """Pointwise (B v)(t) for a broken Legendre polynomial via the jump form."""
    scale = kernel._kernel_scale(alpha)
    jumps = kernel._jump_values(coeffs)
    nodes_arr = mesh.nodes
    out = np.empty(len(times))
    for idx, t in enumerate(times):
        if t <= 0.0 or t > mesh.horizon:
            raise ValueError(f"evaluation time {t} outside (0, T]")
        acc = 0.0
        for j in range(1, mesh.interval_count + 1):
            a = nodes_arr[j - 1]
            if a >= t:
                break
            acc += jumps[j - 1] * (t - a) ** alpha * scale
            p_j = len(coeffs[j - 1]) - 1
            if p_j == 0:
                continue
            b = min(nodes_arr[j], t)
            qn, qw = right_power_rule(a, b, t, alpha, p_j - 1)
            dvals = kernel.legendre_derivative_values(qn, nodes_arr[j - 1], nodes_arr[j], p_j, 1)
            acc += scale * float(qw @ (dvals @ coeffs[j - 1]))
        out[idx] = acc
    return out


# ---------------------------------------------------------------------------
# Constants and weights
# ---------------------------------------------------------------------------


def test_coercivity_constants_reference_values():
    c, d = kernel.coercivity_constants(-0.5)
    assert math.isclose(c, 0.4824008363721785, rel_tol=1e-13)
    assert math.isclose(d, math.sqrt(2.0), rel_tol=1e-13)


def test_coercivity_constants_formula():
    for alpha in (-0.1, -0.3, -0.7, -0.95):
        c, d = kernel.coercivity_constants(alpha)
        cos_half = math.cos(alpha * math.pi / 2.0)
        assert math.isclose(d, 1.0 / cos_half, rel_tol=1e-14)
        expected = cos_half / math.pi**alpha * abs(alpha) ** (-alpha) / (1.0 - alpha) ** (1.0 - alpha)
        assert math.isclose(c, expected, rel_tol=1e-14)


def test_coercivity_constants_tend_to_one():
    c, d = kernel.coercivity_constants(-1e-8)
    assert abs(c - 1.0) < 1e-5
    assert abs(d - 1.0) < 1e-12


def test_coercivity_constants_reject_orders_outside_range():
    for bad in (-1.0, 0.0, -1.5, 0.3):
        with pytest.raises(ValueError):
            kernel.coercivity_constants(bad)


def _alpha_entry_points():
    # every public entry point that takes alpha, on a small valid input
    mesh = graded_mesh(T=1.0, N=2, gamma=1.0, p=1)
    coeffs = [np.array([1.0, 0.5]), np.array([0.2, -0.1])]
    problems = mode_problems(two_mode_problem(-0.5))
    solution = solve(problems, mesh, -0.5)
    return {
        "solve": lambda alpha: solve(problems, mesh, alpha),
        "stability_report": lambda alpha: stability_report(solution, problems, alpha),
        "memory_form": lambda alpha: kernel.memory_form(mesh, alpha, coeffs, coeffs),
        "memory_block": lambda alpha: kernel.memory_block(mesh, 1, 2, alpha),
        "MemoryOperator": lambda alpha: kernel.MemoryOperator(mesh, alpha, mesh.degrees, mesh.degrees),
        "memory_operator": lambda alpha: kernel.memory_operator(mesh, alpha, mesh.degrees, mesh.degrees),
        "two_mode_problem": lambda alpha: two_mode_problem(alpha),
    }


@pytest.mark.parametrize(
    "entry",
    ["solve", "stability_report", "memory_form", "memory_block", "MemoryOperator",
     "memory_operator", "two_mode_problem"],
)
@pytest.mark.parametrize("alpha", [0.0, 0.3, -1.0, math.nan], ids=str)
def test_entry_points_reject_alpha_outside_range(entry, alpha):
    with pytest.raises(ValueError, match=r"fractional order alpha must lie in \(-1, 0\), got"):
        _alpha_entry_points()[entry](alpha)


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------


def test_gauss_jacobi_rule_plain_legendre_case():
    nodes, weights = kernel._jacobi_rule(2, 0.0, -1.0, 1.0, at_a=True)
    assert np.allclose(np.sort(nodes), [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], atol=1e-15)
    assert math.isclose(weights.sum(), 2.0, rel_tol=1e-15)


def test_gauss_jacobi_rule_singular_weight_example():
    # int_0^1 t^(-0.7) t^2 dt = 1/2.3, two points are already exact
    nodes, weights = kernel._jacobi_rule(2, -0.7, 0.0, 1.0, at_a=True)
    assert math.isclose(float(weights @ nodes**2), 1.0 / 2.3, rel_tol=1e-14)


def test_gauss_jacobi_rule_polynomial_exactness():
    rng = np.random.default_rng(1)
    for _ in range(40):
        a = rng.uniform(-1.0, 2.0)
        b = a + rng.uniform(0.2, 3.0)
        beta = rng.uniform(-0.95, 1.5)
        n = int(rng.integers(1, 7))
        nodes, weights = kernel._jacobi_rule(n, beta, a, b, at_a=True)
        for m in (0, 2 * n - 1):
            # exact reference by binomial expansion about the singular endpoint
            ref = sum(
                math.comb(m, r) * a ** (m - r) * (b - a) ** (beta + r + 1) / (beta + r + 1)
                for r in range(m + 1)
            )
            val = float(weights @ nodes**m)
            assert math.isclose(val, ref, rel_tol=1e-11, abs_tol=1e-13 * abs(ref) + 1e-15)


@pytest.mark.parametrize(
    "rule",
    [lambda: kernel._legendre_table(5),
     lambda: kernel._jacobi_ref(3, -0.5, True), lambda: kernel._jacobi_ref(3, -0.5, False)],
    ids=["legendre-table", "jacobi-at-a", "jacobi-at-b"],
)
def test_reference_rules_are_read_only(rule):
    # every later caller shares the stored arrays: one in-place write
    # would corrupt every later rule of that size in the process
    for array in rule():
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("counts", [[6], [4, 4, 7, 4], [2, 9, 9], [1, 60]])
def test_gathered_rules_are_the_single_count_rules_end_to_end(counts):
    x, w = kernel._legendre_rules(np.array(counts))
    singles = [np.polynomial.legendre.leggauss(count) for count in counts]
    assert same_bits(x, np.concatenate([nodes for nodes, _ in singles]))
    assert same_bits(w, np.concatenate([weights for _, weights in singles]))
    # one numpy integer count, as `power_rule` passes, also one past the table
    for count in [*counts, kernel._LEGENDRE[2].size]:
        got, want = kernel._legendre_rules(np.int64(count)), np.polynomial.legendre.leggauss(count)
        assert all(map(same_bits, got, want)), count


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    start=st.floats(-10.0, 10.0),
    rules=st.lists(
        st.tuples(
            st.integers(1, 60),
            st.floats(-9.0, 1.0),  # log10 of the width
            st.one_of(st.none(), st.floats(-9.0, 1.0)),  # adjacent, else log10 of the gap
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_mapped_rules_are_the_single_rules_end_to_end(start, rules):
    # the array form of `_gauss_legendre`, one count and one interval per
    # rule, is each rule mapped alone with the scalar arithmetic, bytewise
    counts, lo, hi = [], [], []
    b = start
    for count, log_width, log_gap in rules:
        a = b if log_gap is None else b + 10.0**log_gap
        b = a + 10.0**log_width
        counts.append(count)
        lo.append(a)
        hi.append(b)
    x, w = kernel._gauss_legendre(np.array(counts), np.array(lo), np.array(hi))
    singles = [mapped_leggauss(*rule) for rule in zip(counts, lo, hi)]
    assert same_bits(x, np.concatenate([nodes for nodes, _ in singles]))
    assert same_bits(w, np.concatenate([weights for _, weights in singles]))
    # one interval shared by every rule, given as floats
    x, w = kernel._gauss_legendre(np.array(counts), lo[0], hi[0])
    singles = [mapped_leggauss(count, lo[0], hi[0]) for count in counts]
    assert same_bits(x, np.concatenate([nodes for nodes, _ in singles]))
    assert same_bits(w, np.concatenate([weights for _, weights in singles]))


def test_legendre_table_grows_without_changing_a_rule(monkeypatch):
    # an empty table, grown twice, the second time by a gather past its end:
    # a rule read before the table grows, and the same rule read after, are
    # the 5-point rule, bit for bit
    monkeypatch.setattr(kernel, "_LEGENDRE", [np.empty(0), np.empty(0), np.zeros(1, dtype=int)])
    before = kernel._legendre_rules(np.array([5]))
    assert [array.size for array in kernel._legendre_table(1)] == [15, 15, 6]
    kernel._legendre_rules(np.array([2, 9]))
    assert [array.size for array in kernel._legendre_table(1)] == [45, 45, 10]
    rules = ((5, before), (5, kernel._legendre_rules(np.array([5]))), (9, kernel._legendre_rules(np.array([9]))))
    for count, rule in rules:
        reference = np.polynomial.legendre.leggauss(count)
        assert all(same_bits(got, want) for got, want in zip(rule, reference))


def test_power_rule_rejects_interior_singularity_and_bad_exponent():
    with pytest.raises(ValueError):
        kernel.power_rule(0.0, 1.0, 0.5, -0.5, 3)
    with pytest.raises(ValueError):
        kernel.power_rule(0.0, 1.0, 2.0, -1.0, 3)
    # a singular point right of a, on b or beyond it, is not power_rule's
    for z in (1e-300, 1.0, 2.0):
        with pytest.raises(ValueError, match="right of"):
            kernel.power_rule(0.0, 1.0, z, -0.5, 3)
    # a NaN singular point or exponent is refused by name
    with pytest.raises(ValueError, match="right of"):
        kernel.power_rule(0.0, 1.0, math.nan, -0.5, 3)
    for z in (-0.5, 0.0):
        with pytest.raises(ValueError, match="exceed -1"):
            kernel.power_rule(0.0, 1.0, z, math.nan, 3)


def test_power_rule_mass_identity():
    # applying the rule to F = 1 must reproduce the closed-form kernel mass
    for gap in (0.0, 1e-9, 0.02, 0.4, 1.0, 30.0):
        for beta in (-0.9, -0.4, 0.35):
            t = 1.0 + gap
            rounded_gap = t - 1.0
            nodes, weights = right_power_rule(0.0, 1.0, t, beta, 5)
            ref = (t ** (beta + 1) - rounded_gap ** (beta + 1)) / (beta + 1)
            assert math.isclose(float(weights.sum()), ref, rel_tol=1e-12)


def diff_switch_gaps(a, b, margin=1e-9):
    """Gaps `margin` below and above power_rule's difference-of-rules switch.

    rho = x + sqrt(x^2 - 1) with x = 1 + 2A/(b-a) reaches _DIFF_RHO at
    x = (rho + 1/rho)/2.
    """
    rho = kernel._DIFF_RHO
    switch = (b - a) / 2.0 * ((rho + 1.0 / rho) / 2.0 - 1.0)
    return switch * (1.0 - margin), switch * (1.0 + margin)


def assert_switch_branch(nodes, a, b, gap, below, k):
    """Below the switch the rule is two Jacobi rules, above it Gauss-Legendre."""
    if gap == below:
        assert nodes.size == 2 * (k // 2 + 1)
    else:
        assert nodes.size == kernel._gl_point_count(k, kernel._ellipse_rho(gap, b - a))


def test_power_rule_right_singularity_against_oracle():
    worst = 0.0
    below, above = diff_switch_gaps(0.3, 1.4)
    for gap in (0.0, 1e-12, 1e-3, below, above, 0.1, 0.5, 2.0, 50.0):
        for k in (0, 2, 5, 8):
            for alpha in (-0.2, -0.8):
                a, b, t = 0.3, 1.4, 1.4 + gap
                if gap in (below, above):
                    nodes, _ = right_power_rule(a, b, t, alpha, k)
                    assert_switch_branch(nodes, a, b, gap, below, k)
                ref = oracles.moment_oracle(a, b, t, k, alpha)
                mass = abs(oracles.kernel_mass(a, b, t, alpha))
                val = frac_moment(a, b, t, k, alpha)
                worst = max(worst, abs(val - ref) / (1e-10 * abs(ref) + 1e-13 * mass))
    assert worst <= 1.0


def test_power_rule_left_singularity_against_oracle():
    from numpy.polynomial import legendre as leg

    below, above = diff_switch_gaps(2.0, 3.5)
    for gap in (0.0, 1e-6, below, above, 0.05, 0.8, 20.0):
        for k in (0, 3, 7):
            for beta in (-0.6, 0.4):
                a, b = 2.0, 3.5
                z = a - gap
                ref = oracles.left_moment_oracle(a, b, z, k, beta)
                nodes, weights = kernel.power_rule(a, b, z, beta, k)
                if gap in (below, above):
                    assert_switch_branch(nodes, a, b, gap, below, k)
                coeff = np.zeros(k + 1)
                coeff[k] = 1.0
                val = float(weights @ leg.legval((2.0 * nodes - (a + b)) / (b - a), coeff))
                mass = ((b - z) ** (beta + 1) - (a - z) ** (beta + 1)) / (beta + 1)
                assert abs(val - ref) <= 1e-10 * abs(ref) + 1e-13 * abs(mass)


def power_rule_error(a, b, z, beta, k, moment=None):
    """Error of the P_moment moment (P_k by default) of power_rule's degree
    k rule against the oracle, in units of the two-term oracle tolerance of
    the tests above."""
    from numpy.polynomial import legendre as leg

    moment = k if moment is None else moment
    coeff = np.zeros(moment + 1)
    coeff[moment] = 1.0
    nodes, weights = (kernel.power_rule if z <= a else right_power_rule)(a, b, z, beta, k)
    val = float(weights @ leg.legval((2.0 * nodes - (a + b)) / (b - a), coeff))
    if z <= a:
        ref = oracles.left_moment_oracle(a, b, z, moment, beta)
        mass = ((b - z) ** (beta + 1) - (a - z) ** (beta + 1)) / (beta + 1)
    else:
        ref = oracles.moment_oracle(a, b, z, moment, beta)
        mass = oracles.kernel_mass(a, b, z, beta)
    return abs(val - ref) / (1e-10 * abs(ref) + 1e-13 * abs(mass))


# Just below the switch the two Gauss-Jacobi rules cancel by far more than
# the rho^deg the switch's comment allows: at degree 64 and beta = -0.95 the
# moment is off by about 1e7 tolerances on the left and 1e6 on the right
# (the left side misses from degree 15, the right from 16).  The config
# bounds every stepper degree at `config._MAX_DEGREE`, which
# test_difference_rule_to_the_degree_bound_against_oracle covers.
_DIFFERENCE_LOSES_DIGITS = pytest.mark.xfail(
    strict=True, reason="difference of Gauss-Jacobi rules at high degree below the switch"
)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize(
    "branch",
    ["exact", pytest.param("difference", marks=_DIFFERENCE_LOSES_DIGITS), "legendre"],
)
def test_power_rule_to_degree_64_against_oracle(side, branch):
    # each branch of power_rule from degree 9 up to MAX_MOMENT_DEGREE: the
    # singular point on the endpoint (A == 0), just below and just above the
    # difference-of-rules switch, and well beyond it
    a, b = 0.3, 1.4
    below, above = diff_switch_gaps(a, b)
    gaps = {"exact": (0.0,), "difference": (below,), "legendre": (above, 0.4, 3.0)}[branch]
    worst = 0.0
    for gap in gaps:
        z = a - gap if side == "left" else b + gap
        for k in (9, 16, 31, 48, MAX_MOMENT_DEGREE):
            for beta in (-0.95, -0.4, 0.4):
                worst = max(worst, power_rule_error(a, b, z, beta, k))
    assert worst <= 1.0


@pytest.mark.parametrize("side", ["left", "right"])
def test_difference_rule_to_the_degree_bound_against_oracle(side):
    # every moment of the difference-of-rules branch at each degree from 9
    # up to the config's bound, at three gaps below the switch, with
    # exponents from the config's lowest order (the jump columns and near
    # rows take alpha) to the loads' positive ones
    a, b = 0.3, 1.4
    below, _ = diff_switch_gaps(a, b)
    worst = 0.0
    for gap in (below, 0.7 * below, 0.3 * below):
        z = a - gap if side == "left" else b + gap
        for k in range(9, _MAX_DEGREE + 1):
            nodes, _ = (kernel.power_rule if side == "left" else right_power_rule)(a, b, z, -0.5, k)
            assert nodes.size == 2 * (k // 2 + 1)
            for beta in (_MIN_ALPHA, -0.95, -0.7, -0.4, 0.4, 2.5):
                for moment in range(k + 1):
                    worst = max(worst, power_rule_error(a, b, z, beta, k, moment))
    assert worst <= 1.0


def test_frac_moment_inside_interval():
    # upper limit is min(b, t): t inside the interval integrates only to t
    a, b, t, alpha = 0.0, 1.0, 0.6, -0.4
    ref = oracles.moment_oracle(a, b, t, 3, alpha)
    assert math.isclose(frac_moment(a, b, t, 3, alpha), ref, rel_tol=1e-11)


def test_legvander_is_bitwise_numpys():
    from numpy.polynomial import legendre as leg

    x = np.concatenate([[-1.0, 1.0], np.random.default_rng(8).uniform(-1.0, 1.0, 40)])
    for deg in range(MAX_MOMENT_DEGREE + 1):
        for nodes in (x, 0.37):
            got, ref = kernel._legvander(nodes, deg), leg.legvander(nodes, deg)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), deg


def test_legendre_values_keep_their_shape():
    assert kernel.legendre_values(0.4, 0.0, 1.0, 3).shape == (1, 4)
    assert kernel.legendre_values(np.linspace(0.0, 1.0, 5), 0.0, 1.0, 3).shape == (5, 4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    count=st.integers(1, 2000),
    max_degree=st.integers(0, 16),
    nderiv=st.integers(0, 2),
    start=st.floats(-10.0, 10.0),
    log_step=st.floats(-6.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(count=2000, max_degree=16, nderiv=1, start=0.0, log_step=0.0, seed=0)
@example(count=1, max_degree=0, nderiv=0, start=0.0, log_step=0.0, seed=0)
def test_legendre_derivative_values_equal_the_matmul_product_bytewise(
    count, max_degree, nderiv, start, log_step, seed
):
    a, b = start, start + 10.0**log_step
    s = np.random.default_rng(seed).uniform(a, b, count)
    got = kernel.legendre_derivative_values(s, a, b, max_degree, nderiv)
    assert same_bits(got, matmul_legendre_derivative_values(s, a, b, max_degree, nderiv))


def test_legendre_derivative_values_match_per_degree_evaluation():
    # the cached differentiation matrix against differentiating and
    # evaluating each P_k on its own
    from numpy.polynomial import legendre as leg

    a, b = 0.3, 0.9
    s = np.concatenate([[a, b], np.random.default_rng(5).uniform(a, b, 40)])
    x = (2.0 * s - (a + b)) / (b - a)
    for nderiv in (0, 1, 2):
        for max_degree in list(range(9)) + [MAX_MOMENT_DEGREE]:
            ref = np.zeros((s.size, max_degree + 1))
            for k in range(max_degree + 1):
                coeff = leg.legder(np.eye(max_degree + 1)[k], nderiv)
                ref[:, k] = leg.legval(x, coeff) * (2.0 / (b - a)) ** nderiv
            got = kernel.legendre_derivative_values(s, a, b, max_degree, nderiv)
            assert got.shape == ref.shape
            # derivatives of degree below nderiv vanish identically
            assert np.all(got[:, :nderiv] == 0.0)
            largest = np.max(np.abs(ref), axis=0)
            scale = np.where(largest > 0.0, largest, 1.0)
            tol = 64 * np.finfo(float).eps * (max_degree + 1)
            assert np.max(np.abs(got - ref) / scale) <= tol, (nderiv, max_degree)


# ---------------------------------------------------------------------------
# Memory blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("j, n, branch", [(2, 2, "local"), (1, 2, "near"), (1, 4, "far")],
                         ids=["local", "near", "far"])
def test_memory_block_piecewise_constant_jump_weight(j, n, branch):
    # a piecewise constant source has no derivative, so on every branch its
    # block is exactly zero; on the diagonal the jump column integrates the
    # kernel weight, giving w_{alpha+2}(k)
    alpha = -0.6
    mesh = TimeMesh(np.linspace(0.0, 1.0, 5), np.zeros(4, dtype=int))
    (sl, sr), (tl, tr) = mesh.interval(j), mesh.interval(n)
    far = tl - sr >= kernel._FAR_RATIO * max(tr - tl, sr - sl)
    assert branch == ("local" if j == n else "far" if far else "near")
    matrix, jump_column = block_and_jump_column(mesh, j, n, alpha)
    assert matrix.shape == (1, 1) and np.array_equal(matrix, np.zeros((1, 1)))
    if j == n:
        k = 0.25
        assert math.isclose(jump_column[0], k ** (alpha + 1.0) / math.gamma(alpha + 2.0), rel_tol=1e-13)


def test_memory_operator_zero_degree_sources_give_zero_slices():
    # constant sources against quadratic targets: every block, whatever its
    # branch, is an exact (3, 1) zero
    mesh = graded_mesh(T=1.0, N=6, gamma=1.0, p=2)
    operator = kernel.MemoryOperator(mesh, -0.4, np.zeros(6, dtype=int), np.full(6, 2))
    for matrices in operator.matrices:
        for block in matrices:
            assert block.shape == (3, 1) and np.array_equal(block, np.zeros((3, 1)))


@pytest.mark.parametrize(
    "degrees",
    [[2] * 7, [2] * 5, [2, 2, 2.5, 2, 2, 2], [2, 2, 2, -1, 2, 2], [2, 2, 2, 2, 2, np.nan], np.full((6, 1), 2), 2],
    ids=["one too many", "one too few", "not an integer", "negative", "nan", "a column", "a scalar"],
)
@pytest.mark.parametrize("name", ["source", "target"])
def test_operator_rejects_malformed_degree_vectors(degrees, name):
    # seven source degrees on six intervals built, and 2.5 became 2; the
    # others failed deep in the build
    mesh = graded_mesh(T=1.0, N=6, gamma=1.0, p=2)
    vectors = {"source": mesh.degrees, "target": mesh.degrees, name: degrees}
    for build in (kernel.MemoryOperator, kernel.memory_operator):
        with pytest.raises(ValueError, match=f"{name} degrees .* not one non-negative integer per interval of 6"):
            build(mesh, -0.4, vectors["source"], vectors["target"])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    alpha=st.floats(-0.95, -0.05),
    gamma=st.floats(1.0, 3.0),
    degrees=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=10),
    modes=st.one_of(st.none(), st.just(1), st.integers(2, 299)),
    seed=st.integers(0, 2**16),
)
# one entry per term, which numpy would sum pairwise; and table2_fem's mode count
@example(alpha=-0.5, gamma=1.0, degrees=[(0, 0), (2, 0)] * 5, modes=None, seed=0)
@example(alpha=-0.5, gamma=2.0, degrees=[(0, 0), (2, 0)] * 5, modes=1, seed=1)
@example(alpha=-0.7, gamma=2.0, degrees=[(1, 2), (1, 2), (3, 3)] * 3, modes=299, seed=2)
def test_stacked_apply_equals_the_per_source_loop_bytewise(alpha, gamma, degrees, modes, seed):
    # every target and every prefix J <= n of its sources, over mixed source
    # and target degrees, constant sources, vectors and 1 to 299 modes
    source_degrees, target_degrees = zip(*degrees)
    mesh = graded_mesh(1.0, len(degrees), gamma, 1)
    operator = kernel.MemoryOperator(mesh, alpha, source_degrees, target_degrees)
    rng = np.random.default_rng(seed)
    tail = () if modes is None else (modes,)
    coeffs = [rng.standard_normal((p + 1,) + tail) for p in source_degrees]
    stacked, jumps = kernel._stacked(coeffs), kernel._jump_values(coeffs)
    for n in range(1, len(degrees) + 1):
        for count in range(n + 1):
            got = operator.apply(n, stacked[:count], jumps[:count])
            want = apply_per_source(operator, n, coeffs[:count], jumps[:count])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.slow
def test_memory_block_entries_against_oracle():
    rng = np.random.default_rng(42)
    cases = [
        (geometric_mesh(T=2.0, T_1=1.0, delta=0.2, L=4, mu=1.0), -0.6,
         [(1, 1), (6, 6), (2, 3), (1, 5), (1, 6), (5, 6)]),
        (graded_mesh(T=1.0, N=8, gamma=2.5, p=3), -0.3,
         [(1, 1), (1, 2), (2, 3), (1, 7), (4, 8), (7, 8)]),
        (graded_mesh(T=1.0, N=4, gamma=1.0, p=8), -0.9, [(1, 2), (2, 4)]),
    ]
    for mesh, alpha, pairs in cases:
        for (j, n) in pairs:
            matrix, jump_column = block_and_jump_column(mesh, j, n, alpha)
            sl, sr = mesh.interval(j)
            tl, tr = mesh.interval(n)
            anchor = oracles.block_anchor(sl, sr, tl, tr, alpha)
            far = j < n and (tl - sr) >= 2.0 * max(tr - tl, sr - sl)
            rel, flo = (1e-8, 1e-12) if far else (1e-10, 1e-13)
            i = int(rng.integers(0, mesh.degree(n) + 1))
            ref = oracles.jump_entry_oracle(sl, tl, tr, alpha, i)
            assert abs(jump_column[i] - ref) <= 1e-10 * abs(ref) + 1e-13 * anchor
            for _ in range(3):
                i = int(rng.integers(0, mesh.degree(n) + 1))
                l = int(rng.integers(1, mesh.degree(j) + 1))
                ref = oracles.block_entry_oracle(sl, sr, tl, tr, alpha, i, l)
                assert abs(matrix[i, l] - ref) <= rel * abs(ref) + flo * anchor, (
                    f"block ({j},{n}) entry ({i},{l}) on a {mesh.interval_count}-interval mesh"
                )


def test_memory_block_derivative_column_is_zero():
    # P_0' = 0, so the first matrix column vanishes identically
    mesh = graded_mesh(T=1.0, N=5, gamma=2.0, p=2)
    for (j, n) in [(1, 1), (2, 4), (3, 4)]:
        assert np.all(kernel.memory_block(mesh, j, n, -0.5)[:, 0] == 0.0)


def test_memory_block_index_validation():
    mesh = graded_mesh(T=1.0, N=3, gamma=1.0, p=1)
    for j, n in ((0, 1), (2, 1), (1, 4)):
        with pytest.raises(IndexError):
            kernel.memory_block(mesh, j, n, -0.5)


def test_memory_block_identity_limit():
    # as alpha -> 0- the operator tends to the identity: the diagonal block
    # plus its jump column against the left-trace parity reproduces the
    # local mass matrix, and the assembled history over all source
    # intervals recovers the mass action of the target restriction
    alpha = -1e-6
    mesh = graded_mesh(T=1.0, N=2, gamma=1.0, p=3)
    matrix22, jump22 = block_and_jump_column(mesh, 2, 2, alpha)
    parity = (-1.0) ** np.arange(4)
    mass = np.diag(0.5 / (2.0 * np.arange(4) + 1.0))
    assert np.abs(matrix22 + np.outer(jump22, parity) - mass).max() < 1e-4
    rng = np.random.default_rng(17)
    c1, c2 = rng.standard_normal(4), rng.standard_normal(4)
    matrix12, jump12 = block_and_jump_column(mesh, 1, 2, alpha)
    jump_at_half = float(parity @ c2) - float(np.sum(c1))
    total = (
        matrix12 @ c1
        + jump12 * float(parity @ c1)
        + matrix22 @ c2
        + jump22 * jump_at_half
    )
    expected = 0.5 * c2 / (2.0 * np.arange(4) + 1.0)
    assert np.abs(total - expected).max() < 1e-4


def test_memory_block_deterministic():
    mesh = geometric_mesh(T=1.0, T_1=1.0, delta=0.25, L=3, mu=1.0)
    a = block_and_jump_column(mesh, 2, 4, -0.45)
    b = block_and_jump_column(mesh, 2, 4, -0.45)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


@pytest.mark.parametrize("where", ["exact", "below", "above"])
def test_jump_column_at_the_branch_switches(where):
    # target (2, 3.5) and a source whose left node, the jump column's
    # singular point, sits on the target (A == 0, j == n) or just below or
    # just above power_rule's difference-of-rules switch; the column is the
    # power_rule moment vector, bit for bit, alone and within a build
    alpha = -0.7
    tl, tr = 2.0, 3.5
    below, above = diff_switch_gaps(tl, tr)
    gap = {"exact": 0.0, "below": below, "above": above}[where]
    for p in (0, 1, 2, 5, 8):
        breaks = [0.0, tl - gap, tl, tr] if gap else [0.0, tl, tr]
        mesh = TimeMesh(breaks, [p] * (len(breaks) - 1))
        n = mesh.interval_count
        j = n - 1 if gap else n
        sl = mesh.interval(j)[0]
        nodes, weights = kernel.power_rule(tl, tr, sl, alpha, p)
        if gap:
            assert_switch_branch(nodes, tl, tr, gap, below, p)
        expected = (kernel.legendre_values(nodes, tl, tr, p).T @ weights) * kernel._kernel_scale(alpha)
        operator = kernel.MemoryOperator(mesh, alpha, mesh.degrees, mesh.degrees)
        assert np.array_equal(operator.jump_columns[n - 1][j - 1], expected)
        column = block_and_jump_column(mesh, j, n, alpha)[1]
        assert np.array_equal(column, expected)
        mass = ((tr - sl) ** (alpha + 1) - (tl - sl) ** (alpha + 1)) / (alpha + 1) / math.gamma(alpha + 1)
        for i in range(p + 1):
            ref = oracles.jump_entry_oracle(sl, tl, tr, alpha, i)
            assert abs(column[i] - ref) <= 1e-10 * abs(ref) + 1e-13 * abs(mass), (p, i)


def _mirrored_rows(sl, sr, t, alpha, p_j):
    # int_sl^sr (t-s)^alpha P_l'(s) ds one node at a time, reflected by
    # s -> -s so that power_rule takes its left-singularity branch, a code
    # path the grouped right-singularity rules do not share; `mass` holds
    # the same sums over absolute values, the size of their rounding
    rows = np.empty((t.size, p_j + 1))
    mass = np.empty((t.size, p_j + 1))
    for q, tq in enumerate(t):
        nodes, weights = kernel.power_rule(-sr, -sl, -tq, alpha, p_j - 1)
        dvals = kernel.legendre_derivative_values(-nodes, sl, sr, p_j, 1)
        rows[q] = weights @ dvals
        mass[q] = np.abs(weights) @ np.abs(dvals)
    return rows, mass


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    alpha=st.floats(-0.95, -0.05),
    gap_ratio=st.one_of(st.just(0.0), st.floats(1e-8, 1.999)),
    log_step_ratio=st.floats(-6.0, 6.0),
    p_j=st.integers(1, 8),
)
def test_near_rows_match_per_node_power_rules(alpha, gap_ratio, log_step_ratio, p_j):
    # source (2, 3); target k_n = ratio * k_j, gap below the far-field switch
    sl, sr = 2.0, 3.0
    k_n = 10.0**log_step_ratio
    gap = gap_ratio * max(k_n, sr - sl)
    tl = sr + gap
    layers = near_t_layers(tl, tl + k_n, gap, 2 * p_j)
    # the layers of the block plus a node on the singular endpoint (A == 0),
    # two straddling rho = _DIFF_RHO (distance 0.0125 k_j) and three with
    # different Gauss-Legendre point counts
    edge = (kernel._DIFF_RHO + 1.0 / kernel._DIFF_RHO) / 2.0 - 1.0
    probes = sr + (sr - sl) * np.array(
        [0.0, 0.5 * edge * (1.0 - 1e-6), 0.5 * edge * (1.0 + 1e-6), 0.3, 3.0, 40.0]
    )
    t = np.concatenate([nodes for nodes, _ in layers] + [probes])
    got = kernel._near_rows(sl, sr, t, alpha, p_j)
    ref, mass = _mirrored_rows(sl, sr, t, alpha, p_j)
    # rows far from the source cancel, so each column is measured against
    # its largest absolute-value sum rather than its largest value
    scale = np.max(mass, axis=0)
    scale[scale == 0.0] = 1.0
    tol = 64 * np.finfo(float).eps * (p_j + 1)
    assert np.max(np.abs(got - ref) / scale) <= tol


def same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def assert_flat_rules_match_groups(a, b, z, beta, deg):
    """The flat rule set of `_right_power_rules` is the per-group rules laid
    end to end, bit for bit; returns its groups."""
    rows, nodes, weights, groups = kernel._right_power_rules(a, b, z, beta, deg)
    reference = grouped_right_power_rules(a, b, z, beta, deg)
    assert groups == [(group_rows.size, group_nodes.shape) for group_rows, group_nodes, _ in reference]
    assert same_bits(rows, np.concatenate([group_rows for group_rows, _, _ in reference]))
    assert same_bits(nodes, np.concatenate([group_nodes.ravel() for _, group_nodes, _ in reference]))
    assert same_bits(weights, np.concatenate([w.ravel() for _, _, w in reference]))
    return groups


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    alpha=st.floats(-0.95, -0.05),
    gap_ratio=st.one_of(st.just(0.0), st.floats(1e-8, 1.999)),
    log_step_ratio=st.floats(-6.0, 6.0),
    p_j=st.integers(1, 8),
)
def test_near_rows_equal_the_per_group_loop_bitwise(alpha, gap_ratio, log_step_ratio, p_j):
    # the node sets of test_near_rows_match_per_node_power_rules: a block's
    # t-layers, a node on the singular endpoint, two straddling _DIFF_RHO
    # and three with different Gauss-Legendre point counts
    sl, sr = 2.0, 3.0
    k_n = 10.0**log_step_ratio
    gap = gap_ratio * max(k_n, sr - sl)
    tl = sr + gap
    layers = near_t_layers(tl, tl + k_n, gap, 2 * p_j)
    edge = (kernel._DIFF_RHO + 1.0 / kernel._DIFF_RHO) / 2.0 - 1.0
    probes = sr + (sr - sl) * np.array(
        [0.0, 0.5 * edge * (1.0 - 1e-6), 0.5 * edge * (1.0 + 1e-6), 0.3, 3.0, 40.0]
    )
    t = np.concatenate([nodes for nodes, _ in layers] + [probes])
    assert_flat_rules_match_groups(sl, sr, t, alpha, p_j - 1)
    assert same_bits(kernel._near_rows(sl, sr, t, alpha, p_j), grouped_near_rows(sl, sr, t, alpha, p_j))


# t - sr in units of the source step, and the groups they form: E exact,
# D difference of rules, G one Gauss-Legendre point count
_FLAT_RULE_CASES = {
    "every-row-exact": ([0.0, 0.0, 0.0], "E"),
    "no-smooth-row": ([0.0, 1e-9, 1e-3, 0.012, 0.0], "ED"),
    "single-point-count": ([40.0, 40.0 + 1e-9, 40.0 + 2e-9], "G"),
    "single-t-node": ([0.3], "G"),
    "several-point-counts": ([40.0, 0.3, 3.0, 0.3], "GGG"),
}


@pytest.mark.parametrize("p_j", [1, 4, 8])
@pytest.mark.parametrize("case", list(_FLAT_RULE_CASES))
def test_flat_rules_edge_cases_equal_the_per_group_loop(case, p_j):
    offsets, branches = _FLAT_RULE_CASES[case]
    sl, sr, alpha = 2.0, 3.0, -0.45
    t = sr + (sr - sl) * np.array(offsets)
    groups = assert_flat_rules_match_groups(sl, sr, t, alpha, p_j - 1)
    # the exact rule has (p_j - 1)//2 + 1 nodes, fewer than any Gauss-Legendre one
    exact_shape = ((p_j - 1) // 2 + 1,)
    kinds = ["D" if len(shape) == 2 else "E" if shape == exact_shape else "G" for _, shape in groups]
    assert "".join(kinds) == branches
    assert same_bits(kernel._near_rows(sl, sr, t, alpha, p_j), grouped_near_rows(sl, sr, t, alpha, p_j))


def test_near_block_evaluates_the_basis_once_per_block(monkeypatch):
    # one flat rule set and one basis evaluation for all t-layers of a
    # near block, not one per layer or per t node, and one reference-rule
    # gather for the t-layers and one for the rows' Gauss-Legendre counts;
    # the block builds no jump column (the operator's `_jump_columns`
    # does) and no power_rule
    real_rules = kernel._right_power_rules
    real_values = kernel.legendre_derivative_values
    real_power_rule = kernel.power_rule
    real_gather = kernel._legendre_rules
    calls, gathers, counts = [], [], {"values": 0, "power_rule": 0}

    def rules(a, b, z, beta, deg):
        flat = real_rules(a, b, z, beta, deg)
        calls.append((z.size, flat[3]))
        return flat

    def values(*args):
        counts["values"] += 1
        return real_values(*args)

    def power_rule(*args):
        counts["power_rule"] += 1
        return real_power_rule(*args)

    def gather(point_counts):
        # a single rule's count comes as an int
        gathers.append(tuple(np.atleast_1d(point_counts).tolist()))
        return real_gather(point_counts)

    monkeypatch.setattr(kernel, "_right_power_rules", rules)
    monkeypatch.setattr(kernel, "legendre_derivative_values", values)
    monkeypatch.setattr(kernel, "power_rule", power_rule)
    monkeypatch.setattr(kernel, "_legendre_rules", gather)
    mesh = geometric_mesh(T=1.0, T_1=1.0, delta=0.1, L=12, mu=1.0)
    for j, n in ((5, 6), (3, 6), (11, 12)):
        sl, sr = mesh.interval(j)
        tl, tr = mesh.interval(n)
        # the reference maps its layers through `_gauss_legendre` too: built
        # before the gathers are recorded
        expected = near_t_layers(tl, tr, tl - sr, mesh.degree(j) + mesh.degree(n))
        calls.clear()
        gathers.clear()
        counts.update(values=0, power_rule=0)
        kernel.memory_block(mesh, j, n, -0.7)
        assert len(expected) > 1
        assert [size for size, _ in calls] == [sum(nodes.size for nodes, _ in expected)]
        assert counts == {"values": 1, "power_rule": 0}
        # the grouping is real: fewer branch groups than t nodes
        ((size, groups),) = calls
        assert len(groups) < size
        # no t node lies on the source, so every 1-D group is Gauss-Legendre
        gauss_legendre = tuple(shape[0] for _, shape in groups if len(shape) == 1)
        assert len(gauss_legendre) > 1
        assert gathers == [tuple(nodes.size for nodes, _ in expected), gauss_legendre]


def per_layer_near_block(sl, sr, tl, tr, alpha, p_n, p_j):
    """The near block as one `_near_rows` and basis evaluation per t-layer."""
    if p_j == 0:
        return np.zeros((p_n + 1, p_j + 1))
    total = np.zeros((p_n + 1, p_j + 1))
    for t_nodes, t_w in near_t_layers(tl, tr, tl - sr, p_n + p_j):
        tvals = kernel.legendre_values(t_nodes, tl, tr, p_n)
        rows = kernel._near_rows(sl, sr, t_nodes, alpha, p_j)
        total += np.einsum("q,qi,ql->il", t_w, tvals, rows)
    return total * kernel._kernel_scale(alpha)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    alpha=st.floats(-0.95, -0.05),
    gap_ratio=st.one_of(st.just(0.0), st.floats(0.0, kernel._FAR_RATIO * (1.0 - 1e-9))),
    log_step_ratio=st.floats(-6.0, 6.0),
    p_n=st.integers(0, 8),
    p_j=st.integers(1, 8),
    source=st.tuples(st.floats(-10.0, 10.0), st.floats(-4.0, 2.0)),
)
# t-layers of several point counts, not monotone: 33, 33, 33, 31, 32 ...
@example(alpha=-0.7, gap_ratio=1e-4, log_step_ratio=3.0, p_n=4, p_j=4, source=(2.0, 0.0))
# ... 35, 35, 35, 35, 33, 31 ...
@example(alpha=-0.3, gap_ratio=1.9e-5, log_step_ratio=3.76, p_n=6, p_j=6, source=(2.0, 0.0))
# ... 33, 33, 31, 31: each run's layers are added to the total one by one ...
@example(alpha=-0.7, gap_ratio=6.9e-4, log_step_ratio=-0.02, p_n=4, p_j=5, source=(2.0, 0.0))
# ... and the smallest block, one row
@example(alpha=-0.5, gap_ratio=1e-4, log_step_ratio=3.0, p_n=0, p_j=1, source=(2.0, 0.0))
def test_near_block_equals_the_per_layer_sum_bitwise(alpha, gap_ratio, log_step_ratio, p_n, p_j, source):
    # source (sl, sl + 10^log_k_j); target k_n = ratio * k_j, gap below the far-field switch
    sl, log_k_j = source
    k_j = 10.0**log_k_j
    sr = sl + k_j
    k_n = k_j * 10.0**log_step_ratio
    tl = sr + gap_ratio * max(k_n, sr - sl)
    got = kernel._near_block(sl, sr, tl, tl + k_n, alpha, p_n, p_j)
    assert same_bits(got, per_layer_near_block(sl, sr, tl, tl + k_n, alpha, p_n, p_j))


def _ladder_offset(k_n, rungs):
    # the ladder's offset after `rungs` steps, multiplied as the ladder does
    offset = k_n
    for _ in range(rungs):
        offset *= kernel._NEAR_SIGMA
    return offset


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    log_step_ratio=st.floats(-6.0, 6.0),
    gap=st.one_of(
        st.just(("adjacent", 0, 0.0)),
        st.tuples(st.just("ratio"), st.just(0), st.floats(0.0, kernel._FAR_RATIO * (1.0 - 1e-9))),
        # on either side of the stop offset * _NEAR_SIGMA = gap after 1 to 19 rungs
        st.tuples(st.just("stop"), st.integers(1, 19), st.sampled_from([-1e-9, 1e-9])),
    ),
    deg=st.integers(1, 16),
)
@example(log_step_ratio=0.0, gap=("adjacent", 0, 0.0), deg=16)
@example(log_step_ratio=-6.0, gap=("stop", 19, -1e-9), deg=1)
@example(log_step_ratio=6.0, gap=("stop", 1, 1e-9), deg=7)
def test_flat_t_layers_equal_the_per_layer_rules_bytewise(log_step_ratio, gap, deg):
    # source (2, 3); target k_n = ratio * k_j, gap below the far-field switch
    sr = 3.0
    k_n = 10.0**log_step_ratio
    kind, rungs, value = gap
    if kind == "stop":
        gap = _ladder_offset(k_n, rungs) * (1.0 + value)
    else:
        gap = value * max(k_n, 1.0)
    tl = sr + gap
    nodes, weights, counts = kernel._near_t_layers(tl, tl + k_n, gap, deg)
    layers = near_t_layers(tl, tl + k_n, gap, deg)
    assert counts.tolist() == [layer_nodes.size for layer_nodes, _ in layers]
    assert same_bits(nodes, np.concatenate([layer_nodes for layer_nodes, _ in layers]))
    assert same_bits(weights, np.concatenate([layer_weights for _, layer_weights in layers]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    alpha=st.floats(-0.95, -0.05),
    gap_ratio=st.floats(2.0, 40.0),
    log_step_ratio=st.floats(-3.0, 3.0),
    p_n=st.integers(0, 8),
    p_j=st.integers(1, 8),
)
def test_far_block_matches_tensor_einsum(alpha, gap_ratio, log_step_ratio, p_n, p_j):
    # source (2, 3); target k_n = ratio * k_j at a gap on or beyond the switch.
    # memory_block never calls _far_block for a constant source (p_j = 0),
    # so p_j starts at 1; test_memory_block_piecewise_constant_jump_weight[far]
    # covers that case
    sl, sr = 2.0, 3.0
    k_n = 10.0**log_step_ratio
    tl = sr + gap_ratio * max(k_n, sr - sl)
    tr = tl + k_n
    got = kernel._far_block(sl, sr, tl, tr, alpha, p_n, p_j)
    ref = einsum_far_block(sl, sr, tl, tr, alpha, p_n, p_j)
    assert got.shape == ref.shape
    # the einsum maps its nodes back to [-1, 1], which loses about
    # eps * |endpoint| / step; the cached tables hold the reference nodes
    mapping = max(1.0, abs(tr) / (tr - tl)) + max(1.0, abs(sr) / (sr - sl))
    tol = 64 * np.finfo(float).eps * (max(p_n, p_j) + 1)
    assert np.max(np.abs(got - ref)) <= tol * mapping * np.max(np.abs(ref))
    exact = longdouble_far_block(sl, sr, tl, tr, alpha, p_n, p_j)
    assert np.max(np.abs(got - exact)) <= tol * np.max(np.abs(ref))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    alpha=st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True),
    p_n=st.integers(0, 12),
    p_j=st.integers(1, 12),
    log_steps=st.tuples(st.floats(-6.0, 2.0), st.floats(-6.0, 2.0)),
    gap_ratio=st.one_of(st.just(kernel._FAR_RATIO), st.floats(kernel._FAR_RATIO, 1e3)),
    start=st.floats(0.0, 10.0),
)
@example(alpha=-0.5, p_n=0, p_j=1, log_steps=(0.0, 0.0), gap_ratio=kernel._FAR_RATIO, start=0.0)
@example(alpha=-0.5, p_n=12, p_j=12, log_steps=(-6.0, 2.0), gap_ratio=kernel._FAR_RATIO, start=10.0)
def test_far_block_equals_the_matmul_chain_bytewise(alpha, p_n, p_j, log_steps, gap_ratio, start):
    # source of step k_j from `start`, target of step k_n at a gap of
    # gap_ratio times the larger step, on or beyond the far switch
    k_j, k_n = (10.0**log_step for log_step in log_steps)
    sl, sr = start, start + k_j
    tl = sr + gap_ratio * max(k_n, k_j)
    tr = tl + k_n
    got = kernel._far_block(sl, sr, tl, tr, alpha, p_n, p_j)
    assert same_bits(got, matmul_far_block(sl, sr, tl, tr, alpha, p_n, p_j))


# At the switch the kernel singularity sits at rho = 5 + sqrt(24) from both
# intervals, and the far rule's error on the top-degree entries is about
# rho^-8 = 1.08e-8 of their size: just over the far tolerance, which at
# p = 2 and alpha = -0.6 shows once the target step is twice the source's.
_MISSES_FAR_TOLERANCE = pytest.mark.xfail(
    strict=True, reason="far rule at the switch: (2, 2) entry off by 1.14x the tolerance"
)


@pytest.mark.parametrize(
    "branch, k_n",
    [
        ("far", 0.25),
        pytest.param("far", 1.0, marks=_MISSES_FAR_TOLERANCE),
        ("near", 0.25),
        ("near", 1.0),
    ],
)
def test_memory_block_at_the_far_switch_against_oracle(monkeypatch, branch, k_n):
    # source (0, 0.5) and a target of step k_n at a gap of exactly
    # _FAR_RATIO times the larger step (far) or just below it (near)
    real_far, real_near = kernel._far_block, kernel._near_block
    branches = []
    monkeypatch.setattr(kernel, "_far_block", lambda *a: branches.append("far") or real_far(*a))
    monkeypatch.setattr(kernel, "_near_block", lambda *a: branches.append("near") or real_near(*a))
    alpha, p = -0.6, 2
    sl, sr = 0.0, 0.5
    gap = kernel._FAR_RATIO * max(k_n, sr - sl)
    if branch == "near":
        gap *= 1.0 - 2.0**-30
    mesh = TimeMesh([sl, sr, sr + gap, sr + gap + k_n], [p, 1, p])
    matrix = kernel.memory_block(mesh, 1, 3, alpha)
    assert branches == [branch]
    tl, tr = mesh.interval(3)
    anchor = oracles.block_anchor(sl, sr, tl, tr, alpha)
    rel, flo = (1e-8, 1e-12) if branch == "far" else (1e-10, 1e-13)
    for i in range(p + 1):
        for l in range(1, p + 1):
            ref = oracles.block_entry_oracle(sl, sr, tl, tr, alpha, i, l)
            assert abs(matrix[i, l] - ref) <= rel * abs(ref) + flo * anchor, (i, l)


def test_far_block_evaluates_no_basis(monkeypatch):
    # the far matrix reads cached read-only reference tables and takes its
    # mapped nodes from the build's table, which holds nodes alone; the
    # block builds no jump column, so it evaluates no basis at all
    alpha = -0.7
    mesh = graded_mesh(T=1.0, N=40, gamma=2.3, p=2)
    pairs = ((1, 40), (10, 30), (25, 40))
    for j, n in pairs:
        kernel.memory_block(mesh, j, n, alpha)
    # one node entry per far target and source
    node_entries = len({n for _, n in pairs}) + len({j for j, _ in pairs})
    counts = {"values": 0, "derivative_values": 0, "legvander": 0, "far": 0}

    def counting(key, func):
        def wrapped(*args):
            counts[key] += 1
            return func(*args)

        return wrapped

    monkeypatch.setattr(kernel, "legendre_values", counting("values", kernel.legendre_values))
    monkeypatch.setattr(
        kernel, "legendre_derivative_values", counting("derivative_values", kernel.legendre_derivative_values)
    )
    monkeypatch.setattr(kernel, "_legvander", counting("legvander", kernel._legvander))
    monkeypatch.setattr(kernel, "_far_block", counting("far", kernel._far_block))
    kernel._interval_rule.cache_clear()
    for j, n in pairs:
        kernel.memory_block(mesh, j, n, alpha)
    assert kernel._interval_rule.cache_info().misses == node_entries
    assert counts == {"values": 0, "derivative_values": 0, "legvander": 0, "far": 3}
    for nderiv in (0, 1):
        table = kernel._weighted_reference_basis(2 + kernel._FAR_PADDING, 2, nderiv)
        assert table.flags.writeable is False
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


def _basis_asker(frame):
    """Name of the function that asked for a basis evaluation: the caller
    of `_legvander`, or of `legendre_values` when that called it."""
    if frame.f_code.co_name == "legendre_values":
        frame = frame.f_back
    return frame.f_code.co_name


def test_jump_columns_evaluate_the_basis_once_per_rule(monkeypatch):
    # within one build, one recurrence of the left-singular moment pass
    # evaluates the basis of every Gauss-Legendre jump column, over all its
    # (point count, target) groups, and one more that of every exact
    # (j == n) and difference column; none is made per pair, and no rule
    # evaluates it for them.  Graded N=40, then three steps each 100 times
    # the one before: their (n, n-1) pairs are difference pairs
    alpha = -0.7
    graded = graded_mesh(T=1.0, N=40, gamma=2.3, p=2)
    steps = np.diff(graded.nodes)[-1] * 100.0 ** np.arange(1, 4)
    mesh = TimeMesh(np.concatenate([graded.nodes, graded.nodes[-1] + np.cumsum(steps)]), np.full(43, 2))
    keys, difference = set(), 0
    for n in range(1, mesh.interval_count + 1):
        tl, tr = mesh.interval(n)
        for j in range(1, n):
            sl = mesh.interval(j)[0]
            if kernel._ellipse_rho(tl - sl, tr - tl) >= kernel._DIFF_RHO:
                keys.add((kernel.power_rule(tl, tr, sl, alpha, 2)[0].size, n))
            else:
                difference += 1
    assert len(keys) > 1 and difference > 1
    real_legvander = kernel._legvander
    counts = dict.fromkeys(["_left_moments", "_jump_columns", "_interval_rule", "power_rule"], 0)

    def legvander(*args):
        caller = _basis_asker(sys._getframe(1))
        if caller in counts:
            counts[caller] += 1
        return real_legvander(*args)

    monkeypatch.setattr(kernel, "_legvander", legvander)
    kernel.MemoryOperator(mesh, alpha, mesh.degrees, mesh.degrees)
    assert counts == {"_left_moments": 2, "_jump_columns": 0, "_interval_rule": 0, "power_rule": 0}


def test_each_build_starts_with_an_empty_table(monkeypatch):
    # no build reads another's entries: the jump columns neither read nor
    # fill the table, the first far block, its first reader, finds it
    # empty, two identical builds in a row miss the same number of times,
    # and every array the table shares is read-only
    alpha = -0.7
    mesh = graded_mesh(T=1.0, N=40, gamma=2.3, p=2)
    kernel.memory_block(mesh, 1, 40, alpha)
    assert kernel._interval_rule.cache_info().currsize > 0
    real_columns, real_far, real_rule = kernel._jump_columns, kernel._far_block, kernel._interval_rule
    sizes, far_sizes, shared = [], [], []

    def columns(*args):
        sizes.append(real_rule.cache_info().currsize)
        out = real_columns(*args)
        sizes.append(real_rule.cache_info().currsize)
        return out

    def far(*args):
        far_sizes.append(real_rule.cache_info().currsize)
        return real_far(*args)

    def rule(*key):
        entry = real_rule(*key)
        shared.append(entry)
        return entry

    rule.cache_clear = real_rule.cache_clear
    monkeypatch.setattr(kernel, "_jump_columns", columns)
    monkeypatch.setattr(kernel, "_far_block", far)
    monkeypatch.setattr(kernel, "_interval_rule", rule)
    misses = []
    for _ in range(2):
        sizes.clear()
        far_sizes.clear()
        kernel.MemoryOperator(mesh, alpha, mesh.degrees, mesh.degrees)
        assert sizes == [0, 0]
        assert far_sizes[0] == 0 and len(far_sizes) > 1
        misses.append(real_rule.cache_info().misses)
    assert misses[0] == misses[1] > 0
    assert shared
    for array in shared:
        assert array.flags.writeable is False
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_loads_evaluate_the_basis_once_per_solve(monkeypatch):
    # a load's rule (power_rule, singular point t_0 = 0) evaluates no basis:
    # the loads of a solve evaluate it at every Gauss-Legendre interval (all
    # past interval 1 here) in one recurrence, shared by every exponent,
    # and at the exact rules of interval 1, one per exponent, in one more
    real_legvander = kernel._legvander
    calls = []

    def legvander(*args):
        frame = sys._getframe(1)
        caller = _basis_asker(frame)
        while frame is not None and frame.f_code.co_name != "_power_moments":
            frame = frame.f_back
        if frame is not None:
            calls.append(caller)
        return real_legvander(*args)

    monkeypatch.setattr(kernel, "_legvander", legvander)
    problems = mode_problems(two_mode_problem(-0.7))
    forcings = stepper_mod._power_table([m.forcing for m in problems])
    assert len(forcings) > 1
    mesh = graded_mesh(1.0, 40, 2.3, 2)
    for n in range(2, mesh.interval_count + 1):
        a, b = mesh.interval(n)
        assert kernel._ellipse_rho(a, b - a) >= kernel._DIFF_RHO
    solve(problems, mesh, -0.7)
    assert calls == ["_left_moments"] * 2


def _straddling_intervals(tl, tr, margin, degrees):
    # four (step, degree) intervals, the last (tl, tr), whose sources 2 and
    # 3 have their left nodes just above and just below the difference
    # switch from it: one Gauss-Legendre and one difference pair
    below, above = diff_switch_gaps(tl, tr, margin)
    return list(zip([tl - above, above - below, below, tr - tl], degrees))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    alpha=st.floats(-0.95, -0.05),
    intervals=st.lists(
        st.tuples(st.floats(-4.0, 0.0).map(lambda e: 10.0**e), st.integers(0, 8)), min_size=1, max_size=16
    ),
)
@example(alpha=-0.7, intervals=_straddling_intervals(2.0, 3.5, 1e-9, (0, 3, 8, 5)))
@example(alpha=-0.3, intervals=_straddling_intervals(1.0, 2.0, 1e-6, (8, 1, 2, 8)))
@example(alpha=-0.5, intervals=list(zip(np.geomspace(1e-3, 1.0, 13).tolist(), (2,) * 10 + (0, 5, 8))))
def test_jump_columns_equal_the_per_pair_loop_bytewise(alpha, intervals):
    # log-uniform steps from 1e-4 to 1 give exact, difference and
    # Gauss-Legendre pairs; two examples straddle the difference switch,
    # and one has a run of ten targets of one degree, whose exact (j == n)
    # columns make one stacked product, next to runs of one
    steps, degrees = zip(*intervals)
    nodes = np.concatenate([[0.0], np.cumsum(steps)])
    got = kernel._jump_columns(nodes, alpha, degrees)
    want = per_pair_jump_columns(nodes, alpha, degrees)
    assert len(got) == len(want)
    for columns, expected in zip(got, want):
        assert columns.shape == expected.shape and columns.tobytes() == expected.tobytes()


# exponents of the drawn forcings: singular ones in (-1, 0) as a forcing
# has, 0 and positive ones; few, so that sums share them
_LOAD_EXPONENTS = (-0.7, -0.3, 0.0, 0.5, 1.0, 2.3)


def _load_switch_step(left, margin):
    """The step whose interval, left node `left`, sees t_0 = 0 a relative
    `margin` below (difference rule) or, for a negative margin, above
    (Gauss-Legendre) the difference switch."""
    below, above = diff_switch_gaps(0.0, 1.0, abs(margin))
    return left / (below if margin > 0.0 else above)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    intervals=st.lists(
        st.tuples(st.floats(-4.0, 0.0).map(lambda e: 10.0**e), st.integers(0, 8)), min_size=1, max_size=16
    ),
    switch=st.none() | st.tuples(st.integers(1, 15), st.sampled_from([1e-9, -1e-9, 1e-6, -1e-6])),
    sums=st.lists(
        st.lists(st.tuples(st.floats(-2.0, 2.0), st.sampled_from(_LOAD_EXPONENTS)), max_size=4),
        min_size=1,
        max_size=4,
    ),
)
@example(intervals=[(0.01, 3), (1.0, 8), (0.5, 0)], switch=(1, 1e-9), sums=[[(1.0, -0.7), (2.0, 0.5)], [(1.0, 0.5)]])
@example(intervals=[(0.01, 3), (1.0, 8), (0.5, 2)], switch=(1, -1e-9), sums=[[], [(1.0, 0.0)], [(-1.0, 2.3)]])
@example(intervals=[(0.3, 1), (0.2, 2)], switch=None, sums=[[], []])
# three exponents in one Gauss-Legendre group: one broadcast power over them
# rounds the square root differently from the scalar `** 0.5`
@example(intervals=[(1.0, 0), (0.24787904880642087, 0)], switch=None, sums=[[(0.0, -0.7), (0.0, -0.3), (1.0, 0.5)]])
def test_loads_equal_the_per_interval_loop_bytewise(intervals, switch, sums):
    # log-uniform steps give exact, difference and Gauss-Legendre loads, and
    # `switch` puts one interval just below or above the difference switch;
    # the drawn sums share exponents, lack some, or are empty
    steps = [step for step, _ in intervals]
    if switch is not None and switch[0] < len(steps):
        i, margin = switch
        steps[i] = _load_switch_step(sum(steps[:i]), margin)
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(steps)]), [p for _, p in intervals])
    table = stepper_mod._power_table([PowerSum(tuple(terms)) for terms in sums])
    got = stepper_mod._power_moments(table, len(sums), mesh)
    assert len(got) == mesh.interval_count
    for n, moments in enumerate(got, start=1):
        a, b = mesh.interval(n)
        expected = power_moments(table, len(sums), a, b, mesh.degree(n))
        assert moments.shape == expected.shape and moments.tobytes() == expected.tobytes()


def _mixed_degree_mesh():
    # steps a hundred and more times shorter than the next interval put
    # difference pairs into the jump columns
    steps = [0.2, 0.001, 0.3, 0.0005, 0.15, 0.002, 0.25, 0.0001, 0.1, 0.04]
    return TimeMesh(np.concatenate([[0.0], np.cumsum(steps)]), [3, 0, 5, 1, 8, 2, 4, 0, 6, 2])


def test_operator_arrays_keep_their_pinned_digest():
    # sha256 over every matrix, then every jump column, of each operator in
    # turn; an operator build must keep these bits
    mixed = _mixed_degree_mesh()
    nodes = mixed.nodes
    rho = [
        kernel._ellipse_rho(float(nodes[n - 1] - nodes[j - 1]), float(nodes[n] - nodes[n - 1]))
        for n in range(2, mixed.interval_count + 1)
        for j in range(1, n)
    ]
    assert sum(r < kernel._DIFF_RHO for r in rho) == 4
    # each with the entries its build leaves in the table, where pinned: one
    # far-node rule per interval of the graded N=150 mesh, and none for a
    # geometric mesh, which has no far block
    cases = [
        (graded_mesh(1.0, 150, 2.3, 2), -0.7, 150),
        (graded_mesh(1.0, 60, 2.3, 4), -0.3, None),
        (geometric_mesh(1.0, 1.0, 0.1, 12, 1.0), -0.5, 0),
        (mixed, -0.85, None),
    ]
    digest = hashlib.sha256()
    for mesh, alpha, entries in cases:
        operator = kernel.MemoryOperator(mesh, alpha, mesh.degrees, mesh.degrees)
        if entries is not None:
            # the march after the build adds no entry
            built = kernel._interval_rule.cache_info()
            assert built.currsize == built.misses == entries
            solve(mode_problems(two_mode_problem(alpha)), mesh, alpha)
            assert kernel._interval_rule.cache_info().currsize == entries
        for arrays in (operator.matrices, operator.jump_columns):
            for array in arrays:
                digest.update(array.tobytes())
    assert digest.hexdigest() == "d29b78624539cb691dd4f572407923f0fbf5504adcfe459a91c5979466595adf"


# ---------------------------------------------------------------------------
# Assembled forms
# ---------------------------------------------------------------------------


def _random_broken_coeffs(rng, mesh):
    return [rng.standard_normal(mesh.degree(n) + 1) for n in range(1, mesh.interval_count + 1)]


def test_l2_form_against_quadrature():
    from scipy.integrate import quad
    from numpy.polynomial import legendre as leg

    rng = np.random.default_rng(3)
    mesh = graded_mesh(T=1.5, N=4, gamma=1.8, p=3)
    v = _random_broken_coeffs(rng, mesh)
    w = _random_broken_coeffs(rng, mesh)
    ref = 0.0
    for n in range(1, 5):
        a, b = mesh.interval(n)
        f = lambda t: leg.legval((2 * t - (a + b)) / (b - a), v[n - 1]) * leg.legval(
            (2 * t - (a + b)) / (b - a), w[n - 1]
        )
        ref += quad(f, a, b, epsabs=1e-13, epsrel=1e-12)[0]
    assert math.isclose(kernel.l2_form(mesh, v, w), ref, rel_tol=1e-10)


def test_memory_form_coercivity_and_continuity():
    # Q(v,v) >= c_alpha T^alpha int v^2 and |Q(v,w)|^2 <= d^2 Q(v,v) Q(w,w)
    rng = np.random.default_rng(11)
    meshes = [
        graded_mesh(T=1.0, N=4, gamma=1.0, p=2),
        graded_mesh(T=2.0, N=5, gamma=2.2, p=3),
        geometric_mesh(T=1.0, T_1=1.0, delta=0.3, L=3, mu=1.0),
    ]
    for trial in range(24):
        mesh = meshes[trial % len(meshes)]
        alpha = float(rng.uniform(-0.95, -0.05))
        c_alpha, d_alpha = kernel.coercivity_constants(alpha)
        v = _random_broken_coeffs(rng, mesh)
        w = _random_broken_coeffs(rng, mesh)
        qvv = kernel.memory_form(mesh, alpha, v, v)
        qww = kernel.memory_form(mesh, alpha, w, w)
        qvw = kernel.memory_form(mesh, alpha, v, w)
        norm_v = kernel.l2_form(mesh, v, v)
        lower = c_alpha * mesh.horizon**alpha * norm_v
        assert qvv >= lower - 1e-8 * max(abs(lower), 1.0)
        bound = d_alpha**2 * qvv * qww
        assert qvw**2 <= bound * (1.0 + 1e-8) + 1e-10


def test_memory_form_power_function_identity():
    # for v = t^2 and w = t the form has the closed value
    # Gamma(3)/Gamma(3+alpha) * T^(4+alpha) / (4+alpha)
    alpha, T = -0.4, 1.3
    mesh = graded_mesh(T=T, N=5, gamma=1.7, p=2)
    v, w = [], []
    for n in range(1, 6):
        a, b = mesh.interval(n)
        c0, c1 = (a + b) / 2.0, (b - a) / 2.0
        v.append(np.array([c0**2 + c1**2 / 3.0, 2.0 * c0 * c1, 2.0 * c1**2 / 3.0]))
        w.append(np.array([c0, c1, 0.0]))
    ref = math.gamma(3.0) / math.gamma(3.0 + alpha) * T ** (4.0 + alpha) / (4.0 + alpha)
    assert math.isclose(kernel.memory_form(mesh, alpha, v, w), ref, rel_tol=1e-10)


@pytest.mark.parametrize("count", [2, 4])
def test_forms_reject_a_block_count_other_than_the_intervals(count):
    # fewer blocks used to raise a bare IndexError, and more were dropped
    mesh = graded_mesh(1.0, 3, 1.0, 2)
    good = [np.ones(3)] * 3
    bad = [np.ones(3)] * count
    forms = [
        lambda v, w: kernel.memory_form(mesh, -0.5, v, w),
        lambda v, w: kernel.l2_form(mesh, v, w),
    ]
    for form in forms:
        for name, v, w in (("v", bad, good), ("w", good, bad)):
            with pytest.raises(ValueError, match=f"{name} has {count} coefficient blocks, expected 3"):
                form(v, w)
    # an empty block raised IndexError from memory_form and gave l2_form 0.0;
    # a block that is not a vector is refused too
    for block, shape in ((np.ones(0), r"\(0,\)"), (np.ones((3, 1)), r"\(3, 1\)"), (np.float64(1.0), r"\(\)")):
        malformed = [np.ones(3), block, np.ones(3)]
        for form in forms:
            for name, v, w in (("v", malformed, good), ("w", good, malformed)):
                with pytest.raises(ValueError, match=f"{name} block 2 has shape {shape}, not a non-empty vector"):
                    form(v, w)


# ---------------------------------------------------------------------------
# Sharing the memory operator while something holds it
# ---------------------------------------------------------------------------


def _counted_blocks(monkeypatch):
    # the (j, n) of every memory_block call from now on
    real_block = kernel.memory_block
    calls = []

    def block(mesh, j, n, order, **kwargs):
        calls.append((j, n))
        return real_block(mesh, j, n, order, **kwargs)

    monkeypatch.setattr(kernel, "memory_block", block)
    return calls


def test_memory_form_through_a_shared_operator_is_a_fresh_build_bit_for_bit(monkeypatch):
    # the mesh's own degrees share the solution's operator; gate-6-style
    # degrees miss and build; either way the value is a fresh build's
    rng = np.random.default_rng(5)
    alpha = -0.45
    mesh = geometric_mesh(1.0, 1.0, 0.3, 3, 1.0)
    assert list(mesh.degrees) == [1, 2, 3, 4]
    solution = solve(mode_problems(two_mode_problem(alpha)), mesh, alpha)
    assert kernel.memory_operator(mesh, alpha, mesh.degrees, mesh.degrees) is solution.memory_operator
    own_v, own_w = _random_broken_coeffs(rng, mesh), _random_broken_coeffs(rng, mesh)
    other_v = [rng.standard_normal(k) for k in (3, 1, 4, 2)]
    other_w = [rng.standard_normal(k) for k in (2, 4, 1, 5)]
    calls = _counted_blocks(monkeypatch)
    for v, w, built in ((own_v, own_w, 0), (other_v, other_w, 10)):
        calls.clear()
        value = kernel.memory_form(mesh, alpha, v, w)
        assert len(calls) == built
        fresh = kernel.MemoryOperator(mesh, alpha, [len(c) - 1 for c in v], [len(c) - 1 for c in w])
        assert value == form_through(fresh, v, w)


def test_memory_operator_shares_only_on_an_exact_key():
    alpha = -0.45
    mesh = graded_mesh(1.0, 4, 1.5, 2)
    nodes = mesh.nodes.copy()
    nodes[2] = np.nextafter(nodes[2], 1.0)
    moved = TimeMesh(nodes, mesh.degrees)
    assert moved.nodes.size == mesh.nodes.size and not np.array_equal(moved.nodes, mesh.nodes)
    # an equal key in other types, on a copy of the mesh, hits
    copy = TimeMesh(mesh.nodes.copy(), mesh.degrees)
    held = kernel.memory_operator(mesh, alpha, mesh.degrees, mesh.degrees)
    assert kernel.memory_operator(copy, np.float64(alpha), [2, 2, 2, 2], (2, 2, 2, 2)) is held
    misses = {
        "alpha": (mesh, -0.3, mesh.degrees, mesh.degrees),
        "source degrees": (mesh, alpha, [2, 2, 1, 2], mesh.degrees),
        "target degrees": (mesh, alpha, mesh.degrees, [2, 3, 2, 2]),
        "nodes one ulp apart": (moved, alpha, mesh.degrees, mesh.degrees),
    }
    for name, key in misses.items():
        other = kernel.memory_operator(*key)
        assert other is not held and other.key == kernel._operator_key(*key), name
        # a miss displaces no live operator, and is shared itself while held
        assert kernel.memory_operator(mesh, alpha, mesh.degrees, mesh.degrees) is held, name
        assert kernel.memory_operator(*key) is other, name


def test_every_live_operator_is_shared_by_its_key(monkeypatch):
    # builds of other keys in between displace nothing: while the solution
    # lives, a form on its own key builds no block
    rng = np.random.default_rng(9)
    alpha, N = -0.45, 6
    mesh = graded_mesh(1.0, N, 1.5, 2)
    problems = mode_problems(two_mode_problem(alpha))
    solution = solve(problems, mesh, alpha)
    own_v, own_w = _random_broken_coeffs(rng, mesh), _random_broken_coeffs(rng, mesh)
    other_v = [rng.standard_normal(k) for k in (3, 1, 4, 2, 3, 2)]
    calls = _counted_blocks(monkeypatch)
    others = [
        lambda: kernel.memory_form(mesh, alpha, other_v, other_v),
        lambda: stability_report(solution, problems, -0.3),
    ]
    for other in others:
        calls.clear()
        other()
        assert len(calls) == N * (N + 1) // 2
        calls.clear()
        own = kernel.memory_form(mesh, alpha, own_v, own_w)
        assert calls == []
        assert own == form_through(solution.memory_operator, own_v, own_w)


def test_nothing_is_retained_once_the_solution_is_dropped(monkeypatch):
    rng = np.random.default_rng(8)
    alpha, N = -0.45, 6
    mesh = graded_mesh(1.0, N, 1.5, 2)
    solution = solve(mode_problems(two_mode_problem(alpha)), mesh, alpha)
    v = _random_broken_coeffs(rng, mesh)
    calls = _counted_blocks(monkeypatch)
    shared = kernel.memory_form(mesh, alpha, v, v)
    assert calls == []
    del solution
    for _ in range(2):
        # neither the solution's operator nor the form's own build outlives its caller
        calls.clear()
        assert kernel.memory_form(mesh, alpha, v, v) == shared
        assert len(calls) == N * (N + 1) // 2


def test_a_shared_operator_is_read_only():
    mesh = graded_mesh(1.0, 4, 1.5, 2)
    operator = solve(mode_problems(two_mode_problem(-0.45)), mesh, -0.45).memory_operator
    for arrays in (operator.matrices, operator.jump_columns):
        with pytest.raises(ValueError):
            arrays[0][0] = 1.0


# ---------------------------------------------------------------------------
# Pointwise operator values
# ---------------------------------------------------------------------------


def test_frac_derivative_power_identity():
    # B t^2 = Gamma(3)/Gamma(3+alpha) t^(2+alpha); t^2 is continuous so the
    # jump representation must reproduce it across any partition
    alpha = -0.7
    mesh = graded_mesh(T=1.0, N=5, gamma=2.0, p=2)
    v = []
    for n in range(1, 6):
        a, b = mesh.interval(n)
        c0, c1 = (a + b) / 2.0, (b - a) / 2.0
        v.append(np.array([c0**2 + c1**2 / 3.0, 2.0 * c0 * c1, 2.0 * c1**2 / 3.0]))
    times = np.array([0.05, 0.31, 0.5, 0.77, 1.0])
    vals = frac_derivative_values(mesh, alpha, v, times)
    ref = math.gamma(3.0) / math.gamma(3.0 + alpha) * times ** (2.0 + alpha)
    assert np.allclose(vals, ref, rtol=1e-10, atol=0.0)


def test_frac_derivative_matches_differentiated_convolution():
    from numpy.polynomial import legendre as leg

    rng = np.random.default_rng(7)
    alpha = -0.55
    mesh = graded_mesh(T=1.0, N=3, gamma=1.0, p=2)
    coeffs = _random_broken_coeffs(rng, mesh)

    def v(s):
        n = max(1, int(np.searchsorted(mesh.nodes, s)))
        a, b = mesh.interval(n)
        return leg.legval((2.0 * s - (a + b)) / (b - a), coeffs[n - 1])

    pieces = list(mesh.nodes[1:-1])
    h = 1e-5
    for t in (0.21, 0.52, 0.9):
        fd = (
            oracles.convolution_values(alpha, v, t + h, pieces)
            - oracles.convolution_values(alpha, v, t - h, pieces)
        ) / (2.0 * h)
        mine = frac_derivative_values(mesh, alpha, coeffs, np.array([t]))[0]
        assert abs(fd - mine) <= 1e-6 * (abs(mine) + 1.0)


def test_frac_derivative_rejects_times_outside_domain():
    mesh = graded_mesh(T=1.0, N=2, gamma=1.0, p=1)
    coeffs = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    with pytest.raises(ValueError):
        frac_derivative_values(mesh, -0.5, coeffs, np.array([0.0]))
    with pytest.raises(ValueError):
        frac_derivative_values(mesh, -0.5, coeffs, np.array([1.5]))
