"""Oracle-first checks of the singular kernel rules and memory blocks.

Reference values come from tests/oracles.py (exact Taylor closed forms in
extended precision plus adaptive quadrature), from power-function identities
of the fractional operator, or from hand-derived constants.  Tolerances are
two-term: a relative part plus an absolute floor tied to the natural entry
magnitude, since entries far below that magnitude are pure cancellation
noise in double precision no matter how they are computed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fracdg import kernel
from fracdg.mesh import geometric_mesh, graded_mesh, manual_mesh, uniform_mesh


def frac_moment(a, b, t, k, alpha):
    """int_a^min(b, t) (t-s)^alpha P_k(s) ds with P_k the Legendre basis on (a, b)."""
    nodes, weights = kernel.power_rule(a, min(b, t), t, alpha, k)
    return float(weights @ kernel.legendre_values(nodes, a, b, k)[:, k])


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


def test_fractional_order_carries_constants():
    order = kernel.FractionalOrder.of(-0.5)
    c, d = kernel.coercivity_constants(-0.5)
    assert order.alpha == -0.5
    assert order.c_alpha == c and order.d_alpha == d
    with pytest.raises(ValueError):
        kernel.FractionalOrder.of(-1.2)


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------


def test_gauss_jacobi_rule_plain_legendre_case():
    nodes, weights = kernel.gauss_jacobi_rule(2, 0.0, (-1.0, 1.0))
    assert np.allclose(np.sort(nodes), [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], atol=1e-15)
    assert math.isclose(weights.sum(), 2.0, rel_tol=1e-15)


def test_gauss_jacobi_rule_singular_weight_example():
    # int_0^1 t^(-0.7) t^2 dt = 1/2.3, two points are already exact
    nodes, weights = kernel.gauss_jacobi_rule(2, -0.7, (0.0, 1.0))
    assert math.isclose(float(weights @ nodes**2), 1.0 / 2.3, rel_tol=1e-14)


def test_gauss_jacobi_rule_polynomial_exactness():
    rng = np.random.default_rng(1)
    for _ in range(40):
        a = rng.uniform(-1.0, 2.0)
        b = a + rng.uniform(0.2, 3.0)
        beta = rng.uniform(-0.95, 1.5)
        n = int(rng.integers(1, 7))
        nodes, weights = kernel.gauss_jacobi_rule(n, beta, (a, b))
        for m in (0, 2 * n - 1):
            # exact reference by binomial expansion about the singular endpoint
            ref = sum(
                math.comb(m, r) * a ** (m - r) * (b - a) ** (beta + r + 1) / (beta + r + 1)
                for r in range(m + 1)
            )
            val = float(weights @ nodes**m)
            assert math.isclose(val, ref, rel_tol=1e-11, abs_tol=1e-13 * abs(ref) + 1e-15)


def test_power_rule_rejects_interior_singularity_and_bad_exponent():
    with pytest.raises(ValueError):
        kernel.power_rule(0.0, 1.0, 0.5, -0.5, 3)
    with pytest.raises(ValueError):
        kernel.power_rule(0.0, 1.0, 2.0, -1.0, 3)


def test_power_rule_mass_identity():
    # applying the rule to F = 1 must reproduce the closed-form kernel mass
    for gap in (0.0, 1e-9, 0.02, 0.4, 1.0, 30.0):
        for beta in (-0.9, -0.4, 0.35):
            t = 1.0 + gap
            rounded_gap = t - 1.0
            nodes, weights = kernel.power_rule(0.0, 1.0, t, beta, 5)
            ref = (t ** (beta + 1) - rounded_gap ** (beta + 1)) / (beta + 1)
            assert math.isclose(float(weights.sum()), ref, rel_tol=1e-12)


def test_power_rule_right_singularity_against_oracle():
    worst = 0.0
    for gap in (0.0, 1e-12, 1e-3, 0.1, 0.5, 2.0, 50.0):
        for k in (0, 2, 5, 8):
            for alpha in (-0.2, -0.8):
                a, b, t = 0.3, 1.4, 1.4 + gap
                ref = oracles.moment_oracle(a, b, t, k, alpha)
                mass = abs(oracles.kernel_mass(a, b, t, alpha))
                val = frac_moment(a, b, t, k, alpha)
                worst = max(worst, abs(val - ref) / (1e-10 * abs(ref) + 1e-13 * mass))
    assert worst <= 1.0


def test_power_rule_left_singularity_against_oracle():
    from numpy.polynomial import legendre as leg

    for gap in (0.0, 1e-6, 0.05, 0.8, 20.0):
        for k in (0, 3, 7):
            for beta in (-0.6, 0.4):
                a, b = 2.0, 3.5
                z = a - gap
                ref = oracles.left_moment_oracle(a, b, z, k, beta)
                nodes, weights = kernel.power_rule(a, b, z, beta, k)
                coeff = np.zeros(k + 1)
                coeff[k] = 1.0
                val = float(weights @ leg.legval((2.0 * nodes - (a + b)) / (b - a), coeff))
                mass = ((b - z) ** (beta + 1) - (a - z) ** (beta + 1)) / (beta + 1)
                assert abs(val - ref) <= 1e-10 * abs(ref) + 1e-13 * abs(mass)


def test_frac_moment_inside_interval():
    # upper limit is min(b, t): t inside the interval integrates only to t
    a, b, t, alpha = 0.0, 1.0, 0.6, -0.4
    ref = oracles.moment_oracle(a, b, t, 3, alpha)
    assert math.isclose(frac_moment(a, b, t, 3, alpha), ref, rel_tol=1e-11)


def test_legendre_derivative_values_match_per_degree_evaluation():
    # the cached differentiation matrix against differentiating and
    # evaluating each P_k on its own
    from numpy.polynomial import legendre as leg

    a, b = 0.3, 0.9
    s = np.concatenate([[a, b], np.random.default_rng(5).uniform(a, b, 40)])
    x = (2.0 * s - (a + b)) / (b - a)
    for nderiv in (0, 1, 2):
        for max_degree in list(range(9)) + [kernel.MAX_MOMENT_DEGREE]:
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


def test_memory_block_piecewise_constant_jump_weight():
    # one-step history of a piecewise constant: the jump column integrates
    # the kernel weight, giving w_{alpha+2}(k) on the diagonal block
    alpha = -0.6
    mesh = uniform_mesh(T=1.0, N=4, p=0)
    blk = kernel.memory_block(mesh, 2, 2, alpha)
    k = 0.25
    assert math.isclose(blk.jump_column[0], k ** (alpha + 1.0) / math.gamma(alpha + 2.0), rel_tol=1e-13)
    assert blk.matrix.shape == (1, 1) and blk.matrix[0, 0] == 0.0


def test_memory_block_entries_against_oracle():
    rng = np.random.default_rng(42)
    cases = [
        (geometric_mesh(T=2.0, T_1=1.0, delta=0.2, L=4, mu=1.0), -0.6,
         [(1, 1), (6, 6), (2, 3), (1, 5), (1, 6), (5, 6)]),
        (graded_mesh(T=1.0, N=8, gamma=2.5, p=3), -0.3,
         [(1, 1), (1, 2), (2, 3), (1, 7), (4, 8), (7, 8)]),
        (uniform_mesh(T=1.0, N=4, p=8), -0.9, [(1, 2), (2, 4)]),
    ]
    for mesh, alpha, pairs in cases:
        for (j, n) in pairs:
            blk = kernel.memory_block(mesh, j, n, alpha)
            sl, sr = mesh.interval(j)
            tl, tr = mesh.interval(n)
            anchor = oracles.block_anchor(sl, sr, tl, tr, alpha)
            far = j < n and (tl - sr) >= 2.0 * max(tr - tl, sr - sl)
            rel, flo = (1e-8, 1e-12) if far else (1e-10, 1e-13)
            i = int(rng.integers(0, mesh.degree(n) + 1))
            ref = oracles.jump_entry_oracle(sl, tl, tr, alpha, i)
            assert abs(blk.jump_column[i] - ref) <= 1e-10 * abs(ref) + 1e-13 * anchor
            for _ in range(3):
                i = int(rng.integers(0, mesh.degree(n) + 1))
                l = int(rng.integers(1, mesh.degree(j) + 1))
                ref = oracles.block_entry_oracle(sl, sr, tl, tr, alpha, i, l)
                assert abs(blk.matrix[i, l] - ref) <= rel * abs(ref) + flo * anchor, (
                    f"block ({j},{n}) entry ({i},{l}) on {mesh.family}"
                )


def test_memory_block_derivative_column_is_zero():
    # P_0' = 0, so the first matrix column vanishes identically
    mesh = graded_mesh(T=1.0, N=5, gamma=2.0, p=2)
    for (j, n) in [(1, 1), (2, 4), (3, 4)]:
        blk = kernel.memory_block(mesh, j, n, -0.5)
        assert np.all(blk.matrix[:, 0] == 0.0)


def test_memory_block_index_validation():
    mesh = uniform_mesh(T=1.0, N=3, p=1)
    for j, n in ((0, 1), (2, 1), (1, 4)):
        with pytest.raises(IndexError):
            kernel.memory_block(mesh, j, n, -0.5)


def test_memory_block_identity_limit():
    # as alpha -> 0- the operator tends to the identity: the diagonal block
    # plus its jump column against the left-trace parity reproduces the
    # local mass matrix, and the assembled history over all source
    # intervals recovers the mass action of the target restriction
    alpha = -1e-6
    mesh = uniform_mesh(T=1.0, N=2, p=3)
    blk = kernel.memory_block(mesh, 2, 2, alpha)
    parity = (-1.0) ** np.arange(4)
    mass = np.diag(0.5 / (2.0 * np.arange(4) + 1.0))
    assert np.abs(blk.matrix + np.outer(blk.jump_column, parity) - mass).max() < 1e-4
    rng = np.random.default_rng(17)
    c1, c2 = rng.standard_normal(4), rng.standard_normal(4)
    blk12 = kernel.memory_block(mesh, 1, 2, alpha)
    jump_at_half = float(parity @ c2) - float(np.sum(c1))
    total = (
        blk12.matrix @ c1
        + blk12.jump_column * float(parity @ c1)
        + blk.matrix @ c2
        + blk.jump_column * jump_at_half
    )
    expected = 0.5 * c2 / (2.0 * np.arange(4) + 1.0)
    assert np.abs(total - expected).max() < 1e-4


def test_memory_block_deterministic():
    mesh = geometric_mesh(T=1.0, T_1=1.0, delta=0.25, L=3, mu=1.0)
    a = kernel.memory_block(mesh, 2, 4, -0.45)
    b = kernel.memory_block(mesh, 2, 4, -0.45)
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.jump_column, b.jump_column)


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
    layers = kernel._near_t_layers(tl, tl + k_n, gap, 2 * p_j)
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


def test_near_block_evaluates_the_basis_once_per_layer(monkeypatch):
    # one grouped rule set and one basis evaluation per t-layer, not one
    # power rule per t node; the only per-block power_rule is the jump column
    real_rules = kernel._right_power_rules
    real_values = kernel.legendre_derivative_values
    real_power_rule = kernel.power_rule
    layers, counts = [], {"values": 0, "power_rule": 0}

    def rules(a, b, z, beta, deg):
        groups = real_rules(a, b, z, beta, deg)
        layers.append((z.size, len(groups)))
        return groups

    def values(*args):
        counts["values"] += 1
        return real_values(*args)

    def power_rule(*args):
        counts["power_rule"] += 1
        return real_power_rule(*args)

    monkeypatch.setattr(kernel, "_right_power_rules", rules)
    monkeypatch.setattr(kernel, "legendre_derivative_values", values)
    monkeypatch.setattr(kernel, "power_rule", power_rule)
    mesh = geometric_mesh(T=1.0, T_1=1.0, delta=0.1, L=12, mu=1.0)
    for j, n in ((5, 6), (3, 6), (11, 12)):
        layers.clear()
        counts.update(values=0, power_rule=0)
        kernel.memory_block(mesh, j, n, -0.7)
        sl, sr = mesh.interval(j)
        tl, tr = mesh.interval(n)
        expected = kernel._near_t_layers(tl, tr, tl - sr, mesh.degree(j) + mesh.degree(n))
        assert [size for size, _ in layers] == [nodes.size for nodes, _ in expected]
        assert counts == {"values": len(expected), "power_rule": 1}
        # the grouping is real: fewer branch groups than t nodes
        assert sum(groups for _, groups in layers) < sum(size for size, _ in layers)


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
        uniform_mesh(T=1.0, N=4, p=2),
        graded_mesh(T=2.0, N=5, gamma=2.2, p=3),
        geometric_mesh(T=1.0, T_1=1.0, delta=0.3, L=3, mu=1.0),
    ]
    for trial in range(24):
        mesh = meshes[trial % len(meshes)]
        alpha = float(rng.uniform(-0.95, -0.05))
        order = kernel.FractionalOrder.of(alpha)
        v = _random_broken_coeffs(rng, mesh)
        w = _random_broken_coeffs(rng, mesh)
        qvv = kernel.memory_form(mesh, order, v, v)
        qww = kernel.memory_form(mesh, order, w, w)
        qvw = kernel.memory_form(mesh, order, v, w)
        norm_v = kernel.l2_form(mesh, v, v)
        lower = order.c_alpha * mesh.horizon**alpha * norm_v
        assert qvv >= lower - 1e-8 * max(abs(lower), 1.0)
        bound = order.d_alpha**2 * qvv * qww
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
    vals = kernel.frac_derivative_values(mesh, alpha, v, times)
    ref = math.gamma(3.0) / math.gamma(3.0 + alpha) * times ** (2.0 + alpha)
    assert np.allclose(vals, ref, rtol=1e-10, atol=0.0)


def test_frac_derivative_matches_differentiated_convolution():
    from numpy.polynomial import legendre as leg

    rng = np.random.default_rng(7)
    alpha = -0.55
    mesh = uniform_mesh(T=1.0, N=3, p=2)
    coeffs = _random_broken_coeffs(rng, mesh)

    def v(s):
        n = mesh.locate(s)
        a, b = mesh.interval(n)
        return leg.legval((2.0 * s - (a + b)) / (b - a), coeffs[n - 1])

    pieces = list(mesh.nodes[1:-1])
    h = 1e-5
    for t in (0.21, 0.52, 0.9):
        fd = (
            oracles.convolution_values(alpha, v, t + h, pieces)
            - oracles.convolution_values(alpha, v, t - h, pieces)
        ) / (2.0 * h)
        mine = kernel.frac_derivative_values(mesh, alpha, coeffs, np.array([t]))[0]
        assert abs(fd - mine) <= 1e-6 * (abs(mine) + 1.0)


def test_frac_derivative_rejects_times_outside_domain():
    mesh = uniform_mesh(T=1.0, N=2, p=1)
    coeffs = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    with pytest.raises(ValueError):
        kernel.frac_derivative_values(mesh, -0.5, coeffs, np.array([0.0]))
    with pytest.raises(ValueError):
        kernel.frac_derivative_values(mesh, -0.5, coeffs, np.array([1.5]))


def test_fractional_integral_power_identities():
    alpha = -0.35
    times = np.array([0.0, 0.2, 0.8, 1.6])
    # smooth: I t^2 = Gamma(3)/Gamma(3-alpha) t^(2-alpha)
    vals = kernel.fractional_integral_values(alpha, lambda s: s**2, times)
    ref = math.gamma(3.0) / math.gamma(3.0 - alpha) * times ** (2.0 - alpha)
    assert np.allclose(vals, ref, rtol=1e-12, atol=1e-14)
    # singular with declared exponent: I t^(alpha+2) = Gamma(alpha+3)/Gamma(3) t^2
    sig = alpha + 2.0
    vals = kernel.fractional_integral_values(alpha, lambda s: s**sig, times, singular_exponent=sig)
    ref = math.gamma(sig + 1.0) / math.gamma(3.0) * times**2
    assert np.allclose(vals, ref, rtol=1e-12, atol=1e-14)
    # constant: I 1 = t^(-alpha)/Gamma(1-alpha)
    vals = kernel.fractional_integral_values(alpha, lambda s: 1.0, times)
    ref = times ** (-alpha) / math.gamma(1.0 - alpha)
    assert np.allclose(vals, ref, rtol=1e-12, atol=1e-14)


def test_fractional_integral_validation():
    with pytest.raises(ValueError):
        kernel.fractional_integral_values(0.5, lambda s: 1.0, np.array([1.0]))
    with pytest.raises(ValueError):
        kernel.fractional_integral_values(-0.5, lambda s: 1.0, np.array([-1.0]))
