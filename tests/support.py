"""Helpers the tests share that the package itself never calls: the
one-mode manufactured problem t^nu, the loads of one interval one
exponent at a time that the grouped loads of `stepper._power_moments`
must reproduce, the interpolatory projection of power-sum profiles, the
semilog fit of an hp convergence history, the
bilinear form through a given operator, the history sum one source at a
time that the stacked `MemoryOperator.apply` must reproduce, one memory
block with its jump column, the jump columns one pair at a time that
the flat pass of `kernel._jump_columns` must reproduce, one
Gauss-Legendre rule mapped alone, the per-group
near-field rows that the flat rule set of
`kernel._right_power_rules` must reproduce, the per-layer t-rules that
the flat t-layers of `kernel._near_t_layers` must reproduce, the far
block and the basis derivative values as the matmul products whose bits
their `ndarray.dot` products must keep, and the canonical config text
that the round trip reads back."""

import numpy as np

from fracdg import config
from fracdg.kernel import (
    _DIFF_RHO,
    _FAR_PADDING,
    _NEAR_SIGMA,
    _check_alpha,
    _ellipse_rho,
    _gauss_legendre,
    _gl_point_count,
    _jacobi_rule,
    _jump_columns,
    _jump_values,
    _kernel_scale,
    _legendre_derivative_matrix,
    _legvander,
    _map_to_reference,
    _stacked,
    _weighted_reference_basis,
    legendre_derivative_values,
    legendre_values,
    memory_block,
    power_rule,
)
from fracdg.problems import ManufacturedProblem, PowerSum, _mode
from fracdg.stepper import DgSolution, _power_table


def power_mode_problem(lam, nu, alpha):
    """Single scalar mode u = t^nu with its closed-form forcing."""
    alpha = _check_alpha(alpha)
    if nu < 0.0:
        raise ValueError(f"exponent nu must be >= 0, got {nu}")
    if nu + alpha <= -1.0:
        raise ValueError(f"forcing exponent nu+alpha = {nu + alpha} is non-integrable")
    modes = (_mode(lam, PowerSum.of((1.0, float(nu))), alpha),)
    return ManufacturedProblem(alpha, 1.0, modes)


def power_moments(table, count, a, b, p):
    """Moments int_a^b u P_i dt, i <= p, of each of the `count` power sums
    u of a `stepper._power_table`, one row per sum; exact.

    One `power_rule` and one moment per exponent, added only into the rows
    of the sums that carry it, in increasing exponent order.
    """
    moments = np.zeros((count, p + 1))
    for exponent, rows, coeffs in table:
        nodes, weights = power_rule(a, b, 0.0, exponent, p)
        moments[rows] += coeffs * (weights @ legendre_values(nodes, a, b, p))
    return moments


def pi_projection(profiles, mesh):
    """Interpolatory projection: right-endpoint match plus orthogonality
    of the residual to P_{p_n - 1} on each interval.  The moments come
    exactly from `kernel.power_rule` (`power_moments`), as the loads of
    `solve` do."""
    table = _power_table(profiles)
    coeffs = []
    for n in range(1, mesh.interval_count + 1):
        a, b = mesh.interval(n)
        p = mesh.degree(n)
        width = b - a
        moments = power_moments(table, len(profiles), a, b, p)
        block = np.empty((p + 1, len(profiles)))
        for m, u in enumerate(profiles):
            c = np.zeros(p + 1)
            ell = np.arange(p)
            c[:p] = moments[m, :p] * (2.0 * ell + 1.0) / width
            c[p] = u(b) - c[:p].sum()
            block[:, m] = c
        coeffs.append(block)
    initial = np.array([u.at_zero() for u in profiles])
    return DgSolution(mesh, initial, tuple(coeffs))


def semilog_fit(errors, dofs):
    """Least-squares line ln(error) = intercept - slope*sqrt(dofs).

    Returns (slope, intercept, r_squared); slope is the fitted decay
    coefficient b of error ~ C exp(-b sqrt(dofs)).
    """
    x = np.sqrt(np.asarray(dofs, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    coeffs = np.polyfit(x, y, 1)
    residuals = y - np.polyval(coeffs, x)
    total = y - y.mean()
    r_squared = 1.0 - residuals @ residuals / (total @ total)
    return -coeffs[0], coeffs[1], float(r_squared)


def form_through(operator, coeffs_v, coeffs_w):
    """int_0^T (B v)(t) w(t) dt applied through `operator`, built for the
    degrees of v and w, in the order of summation `kernel.memory_form` uses."""
    stacked, jumps = _stacked(coeffs_v), _jump_values(coeffs_v)
    return sum(
        float(w_n @ operator.apply(n, stacked[:n], jumps[:n]))
        for n, w_n in enumerate(coeffs_w, start=1)
    )


def apply_per_source(operator, n, coeffs, jumps):
    """`MemoryOperator.apply` one source at a time: coeffs[j-1] the unpadded
    coefficients of source j, and M_jn c_j, then J_jn (x) [c]_j, added to a
    zero sum for j = 1, 2, ... in turn."""
    matrices = operator.matrices[n - 1]
    jump_columns = operator.jump_columns[n - 1]
    out = np.zeros(matrices.shape[1:2] + np.shape(jumps)[1:])
    for j, (c, jump) in enumerate(zip(coeffs, jumps)):
        out += matrices[j, :, : len(c)] @ c
        out += np.multiply.outer(jump_columns[j], jump)
    return out


def block_and_jump_column(mesh, j, n, order, degrees=None):
    """(matrix, jump column) of source j on target n: `memory_block`'s
    matrix and the column `MemoryOperator` pairs with it, from
    `_jump_columns` over the first n intervals."""
    matrix = memory_block(mesh, j, n, order, degrees)
    q = mesh.degree(n) if degrees is None else degrees[1]
    return matrix, _jump_columns(mesh.nodes[: n + 1], _check_alpha(order), (q,) * n)[n - 1][j - 1]


def per_pair_jump_columns(nodes, alpha, target_degrees):
    """`kernel._jump_columns` one (j, n) pair at a time: each column the
    moment vector of its own `power_rule` against its own basis
    values, contracted alone."""
    columns = []
    for n, q in enumerate(target_degrees, start=1):
        tl, tr = float(nodes[n - 1]), float(nodes[n])
        target = np.empty((n, q + 1))
        for j in range(1, n + 1):
            x, weights = power_rule(tl, tr, float(nodes[j - 1]), alpha, q)
            target[j - 1] = (legendre_values(x, tl, tr, q).T @ weights) * _kernel_scale(alpha)
        columns.append(target)
    return columns


def mapped_leggauss(count, a, b):
    """numpy's `leggauss(count)` mapped onto (a, b), floats, with the scalar
    arithmetic of one rule: the rule that `kernel._gauss_legendre` must give,
    bit for bit, for each of the rules it maps at once."""
    x, w = np.polynomial.legendre.leggauss(count)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), w * half


def grouped_right_power_rules(a, b, z, beta, deg):
    """The right-singularity rules of `kernel._right_power_rules` built one
    group at a time, each Gauss-Legendre point count with its own mapped
    rule, mask and power: a list of (rows, nodes, weights), weights[r] the
    rule of z[rows[r]] and nodes of the same shape or, for a group whose
    rules share their nodes, one row of them."""
    dist = z - b
    rho = _ellipse_rho(dist, b - a)
    npts = deg // 2 + 1
    groups = []
    exact = dist == 0.0
    if exact.any():
        rows = np.flatnonzero(exact)
        nodes, w = _jacobi_rule(npts, beta, a, b, at_a=False)
        groups.append((rows, nodes, np.tile(w, (rows.size, 1))))
    diff = (rho < _DIFF_RHO) & ~exact
    if diff.any():
        rows = np.flatnonzero(diff)
        zr = z[rows, None]
        n_full, w_full = _jacobi_rule(npts, beta, a, zr, at_a=False)
        n_cut, w_cut = _jacobi_rule(npts, beta, b, zr, at_a=False)
        groups.append((rows, np.hstack([n_full, n_cut]), np.hstack([w_full, -w_cut])))
    smooth = np.flatnonzero(rho >= _DIFF_RHO)
    counts = _gl_point_count(deg, rho[smooth])
    for count in np.unique(counts):
        rows = smooth[counts == count]
        nodes, w = _gauss_legendre(count, a, b)
        groups.append((rows, nodes, w * (z[rows, None] - nodes) ** beta))
    return groups


def grouped_near_rows(sl, sr, t, alpha, p_j):
    """`kernel._near_rows` through `grouped_right_power_rules`: one basis
    evaluation at the concatenated nodes, then one product per group
    written to its rows."""
    groups = grouped_right_power_rules(sl, sr, t, alpha, p_j - 1)
    dvals = legendre_derivative_values(
        np.concatenate([s_nodes.ravel() for _, s_nodes, _ in groups]), sl, sr, p_j, 1
    )
    out = np.empty((t.size, p_j + 1))
    start = 0
    for rows, s_nodes, s_w in groups:
        group_dvals = dvals[start : start + s_nodes.size].reshape(s_nodes.shape + (p_j + 1,))
        start += s_nodes.size
        out[rows] = (s_w[:, None, :] @ group_dvals)[:, 0]
    return out


def near_t_layers(tl, tr, gap, deg):
    """Gauss-Legendre rules (nodes, weights) of the t-layers of a near block,
    one `_gauss_legendre` per layer: the list that `kernel._near_t_layers`
    lays end to end.

    The inner integral loses analyticity in t as t approaches the source
    interval, which ends `gap` below tl, so the layers grade geometrically
    toward tl; the ladder stops at the gap (or at a machine-negligible
    sliver when the intervals are adjacent, which is dropped).
    """
    k_n = tr - tl
    offsets = [k_n]
    while offsets[-1] * _NEAR_SIGMA > max(gap, 1e-16 * k_n):
        offsets.append(offsets[-1] * _NEAR_SIGMA)
    offsets.append(0.0)
    layers = []
    for hi_off, lo_off in zip(offsets[:-1], offsets[1:]):
        width = hi_off - lo_off
        if width <= 1e-15 * k_n:
            continue
        lo = tl + lo_off
        # singularity sits at sr = tl - gap, below the layer by gap + lo_off
        rho = _ellipse_rho(gap + lo_off, width)
        layers.append(_gauss_legendre(_gl_point_count(deg, rho), lo, lo + width))
    return layers


def matmul_far_block(sl, sr, tl, tr, alpha, p_n, p_j):
    """`kernel._far_block` as the matmul chain `left @ kern @ right * scale`
    on freshly mapped `_gauss_legendre` nodes: the bits its `ndarray.dot`
    products must keep."""
    npts = max(p_n, p_j) + _FAR_PADDING
    t_nodes = _gauss_legendre(npts, tl, tr)[0]
    s_nodes = _gauss_legendre(npts, sl, sr)[0]
    kern = (t_nodes[:, None] - s_nodes[None, :]) ** alpha
    left = _weighted_reference_basis(npts, p_n, 0).T
    right = _weighted_reference_basis(npts, p_j, 1)
    return left @ kern @ right * (0.5 * (tr - tl) * _kernel_scale(alpha))


def matmul_legendre_derivative_values(s, a, b, max_degree, nderiv):
    """`kernel.legendre_derivative_values` with the product `@`: the bits its
    `ndarray.dot` product must keep."""
    x = _map_to_reference(s, a, b)
    scale = (2.0 / (b - a)) ** nderiv
    deriv = _legendre_derivative_matrix(max_degree, nderiv)
    return _legvander(x, deriv.shape[0] - 1) @ deriv * scale


def serialize(cfg):
    """Canonical config text that parse_config reads back to an equal
    config: fixed key order, unset keys and empty sections left out."""
    return config._render(cfg, config._SECTIONS, {})
