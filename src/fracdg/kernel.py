"""Weakly singular kernel machinery for the fractional time operator.

The operator of order alpha in (-1, 0) acts on a function v through

    (B v)(t) = d/dt int_0^t w(t-s) v(s) ds,    w(t) = t^alpha / Gamma(alpha+1).

For a piecewise polynomial v with breakpoints t_0 < t_1 < ... integration by
parts turns this into the jump representation

    (B v)(t) = w(t) v(0+) + sum_{t_i < t} w(t - t_i) [v]^i
               + int_0^t w(t - s) v'(s) ds,

where [v]^i = v(t_i+) - v(t_i-).  Every integral a DG time stepper then needs
is a polynomial against a pure power kernel.  This module evaluates those
integrals with Gauss-Jacobi rules (exact for the singular near-diagonal
cases), differences of such rules, or Gauss-Legendre once the singularity is
well separated from the integration interval, and assembles them into the
memory-matrix blocks that discretize the history term.  Where many time
nodes share one source interval (the near-field blocks), the rules of all
of them are built together: grouped by branch, one array per group.

`MemoryOperator` holds every block of one mesh, order and pair of degree
vectors, built once; the DG march, the stability report and the bilinear
form `memory_form` all apply the memory operator through it.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as _leg
from scipy.special import roots_jacobi

__all__ = [
    "FractionalOrder",
    "MemoryBlock",
    "MemoryOperator",
    "coercivity_constants",
    "gauss_jacobi_rule",
    "memory_block",
    "memory_form",
    "operator_form",
    "l2_form",
    "frac_derivative_values",
    "fractional_integral_values",
    "MAX_MOMENT_DEGREE",
]

# Largest Legendre degree the kernel rules are checked to; far beyond
# anything the hp studies use.
MAX_MOMENT_DEGREE = 64


def coercivity_constants(alpha):
    """Coercivity and continuity constants of the fractional operator.

    c_alpha = cos(alpha pi/2) / pi^alpha * |alpha|^(-alpha) / (1-alpha)^(1-alpha)
    d_alpha = 1 / cos(alpha pi/2)

    The bilinear form Q(v, w) = int_0^T (B v) w dt satisfies
    Q(v, v) >= c_alpha T^alpha int v^2 and |Q(v, w)|^2 <= d_alpha^2 Q(v,v) Q(w,w).
    Both constants tend to 1 as alpha -> 0-.
    """
    if not -1.0 < alpha < 0.0:
        raise ValueError(f"fractional order alpha must lie in (-1, 0), got {alpha}")
    cos_half = math.cos(alpha * math.pi / 2.0)
    c_alpha = (cos_half / math.pi**alpha) * abs(alpha) ** (-alpha) / (1.0 - alpha) ** (1.0 - alpha)
    d_alpha = 1.0 / cos_half
    return c_alpha, d_alpha


@dataclass(frozen=True)
class FractionalOrder:
    """The order alpha in (-1, 0) together with its derived constants."""

    alpha: float
    c_alpha: float
    d_alpha: float

    @classmethod
    def of(cls, alpha):
        alpha = float(alpha)
        c_alpha, d_alpha = coercivity_constants(alpha)
        return cls(alpha, c_alpha, d_alpha)

    def __post_init__(self):
        if not -1.0 < self.alpha < 0.0:
            raise ValueError(f"fractional order alpha must lie in (-1, 0), got {self.alpha}")


def _alpha_of(order):
    return order.alpha if isinstance(order, FractionalOrder) else float(order)


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _jacobi_left_ref(npoints, exponent):
    # weight (1+x)^exponent on [-1, 1]
    x, w = roots_jacobi(npoints, 0.0, float(exponent))
    return x, w


@lru_cache(maxsize=4096)
def _jacobi_right_ref(npoints, exponent):
    # weight (1-x)^exponent on [-1, 1]
    x, w = roots_jacobi(npoints, float(exponent), 0.0)
    return x, w


@lru_cache(maxsize=1024)
def _legendre_ref(npoints):
    x, w = np.polynomial.legendre.leggauss(npoints)
    return x, w


def gauss_jacobi_rule(npoints, exponent, interval):
    """Nodes and weights integrating (s-a)^exponent * poly over (a, b).

    Exact for polynomials up to degree 2*npoints - 1.
    """
    if npoints < 1:
        raise ValueError(f"npoints must be >= 1, got {npoints}")
    if exponent <= -1.0:
        raise ValueError(f"weight exponent must exceed -1, got {exponent}")
    a, b = interval
    if not b > a:
        raise ValueError(f"empty interval ({a}, {b})")
    x, w = _jacobi_left_ref(int(npoints), float(exponent))
    half = 0.5 * (b - a)
    nodes = a + half * (x + 1.0)
    weights = w * half ** (exponent + 1.0)
    return nodes, weights


def _gauss_jacobi_right(npoints, exponent, a, b):
    # weight (b-s)^exponent on (a, b); b may be a column of right endpoints
    x, w = _jacobi_right_ref(int(npoints), float(exponent))
    half = 0.5 * (b - a)
    nodes = a + half * (x + 1.0)
    weights = w * half ** (exponent + 1.0)
    return nodes, weights


def _gauss_legendre(npoints, a, b):
    x, w = _legendre_ref(int(npoints))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), w * half


# Singularity-to-interval distance ratio below which the difference-of-rules
# closed form is used; above it plain Gauss-Legendre converges geometrically.
# Diff-of-Jacobi cancellation grows like rho^deg with rho the Bernstein
# ellipse parameter of the singular point; restricting the branch to
# rho < 1.25 bounds the loss at 1.25^64 never arising in practice and
# ~1.25^8 = 6 ulps for the degrees the stepper uses.  Beyond that the
# Gauss-Legendre error rho^(-2n) converges fast enough that
# n = deg//2 + 2 + 22/ln(rho) points reach machine precision.
_DIFF_RHO = 1.25


def _ellipse_rho(dist, length):
    # Bernstein ellipse parameter of a point `dist` beyond an interval of `length`
    x = 1.0 + 2.0 * dist / length
    return x + np.sqrt(x * x - 1.0)


def _gl_point_count(deg, rho):
    # rho a float or an array of them
    return deg // 2 + 2 + np.ceil(22.0 / np.log(rho)).astype(int)


def power_rule(a, b, z, beta, deg):
    """Signed quadrature (nodes, weights) for int_a^b F(s) |s-z|^beta ds.

    The singular point z must lie outside (a, b): z <= a (kernel (s-z)^beta)
    or z >= b (kernel (z-s)^beta).  Exact for polynomials F up to degree
    `deg` when a Jacobi branch applies; the Gauss-Legendre branch resolves
    the kernel to near machine precision by scaling its point count with
    the distance of z from the interval.

    Branches on A = dist(z, nearest endpoint) and the ellipse parameter
    rho = x + sqrt(x^2 - 1), x = 1 + 2A/(b-a):
      A == 0          single Gauss-Jacobi rule (exact),
      rho < 1.25      difference of two Gauss-Jacobi rules anchored at z
                      (exact; some nodes fall just outside (a,b), polynomial
                      evaluation there is legitimate),
      otherwise       Gauss-Legendre with a rho-dependent point count.
    A singular point to the right is the one-point case of
    `_right_power_rules`.
    """
    if beta <= -1.0:
        raise ValueError(f"weight exponent must exceed -1, got {beta}")
    if z <= a:
        A = a - z
        npts = deg // 2 + 1
        if A == 0.0:
            return gauss_jacobi_rule(npts, beta, (a, b))
        rho = _ellipse_rho(A, b - a)
        if rho < _DIFF_RHO:
            n_full, w_full = gauss_jacobi_rule(npts, beta, (z, b))
            n_cut, w_cut = gauss_jacobi_rule(npts, beta, (z, a))
            return np.concatenate([n_full, n_cut]), np.concatenate([w_full, -w_cut])
        nodes, w = _gauss_legendre(_gl_point_count(deg, rho), a, b)
        return nodes, w * (nodes - z) ** beta
    if z >= b:
        ((_, nodes, weights),) = _right_power_rules(a, b, np.array([z], dtype=float), beta, deg)
        return nodes.reshape(-1), weights[0]
    raise ValueError(f"singular point z={z} lies inside the interval ({a}, {b})")


def _right_power_rules(a, b, z, beta, deg):
    """power_rule(a, b, z_q, beta, deg) for every singular point z_q >= b.

    The branch of z_q depends only on its rho, and within a branch every
    z_q shares one reference rule, so the points are grouped by branch
    (and Gauss-Legendre point count) and each group is built as one array.
    Returns a list of (rows, nodes, weights): weights[r] is the rule of
    z[rows[r]], and nodes is either of the same shape or, for a group whose
    rules share their nodes, one row of them.
    """
    dist = z - b
    rho = _ellipse_rho(dist, b - a)
    npts = deg // 2 + 1
    groups = []
    exact = dist == 0.0
    if exact.any():
        rows = np.flatnonzero(exact)
        nodes, w = _gauss_jacobi_right(npts, beta, a, b)
        groups.append((rows, nodes, np.tile(w, (rows.size, 1))))
    diff = (rho < _DIFF_RHO) & ~exact
    if diff.any():
        rows = np.flatnonzero(diff)
        zr = z[rows, None]
        n_full, w_full = _gauss_jacobi_right(npts, beta, a, zr)
        n_cut, w_cut = _gauss_jacobi_right(npts, beta, b, zr)
        groups.append((rows, np.hstack([n_full, n_cut]), np.hstack([w_full, -w_cut])))
    smooth = np.flatnonzero(rho >= _DIFF_RHO)
    counts = _gl_point_count(deg, rho[smooth])
    for count in np.unique(counts):
        rows = smooth[counts == count]
        nodes, w = _gauss_legendre(count, a, b)
        groups.append((rows, nodes, w * (z[rows, None] - nodes) ** beta))
    return groups


# ---------------------------------------------------------------------------
# Local Legendre basis helpers
# ---------------------------------------------------------------------------


def _map_to_reference(s, a, b):
    return (2.0 * np.asarray(s, dtype=float) - (a + b)) / (b - a)


@lru_cache(maxsize=256)
def _legendre_derivative_matrix(max_degree, nderiv):
    # column k holds the Legendre coefficients of the nderiv-th derivative of P_k
    mat = _leg.legder(np.eye(max_degree + 1), nderiv, axis=0)
    mat.setflags(write=False)
    return mat


def legendre_values(s, a, b, max_degree):
    """Matrix of mapped Legendre values, column k = P_k(ref(s)), k <= max_degree."""
    x = _map_to_reference(s, a, b)
    return _leg.legvander(x, max_degree)


def legendre_derivative_values(s, a, b, max_degree, nderiv):
    """Values of the nderiv-th derivative of the mapped Legendre basis.

    Returns matrix with column k = d^nderiv/ds^nderiv P_k(ref(s)).  The chain
    rule contributes (2/(b-a))^nderiv per derivative.
    """
    x = np.atleast_1d(_map_to_reference(s, a, b))
    scale = (2.0 / (b - a)) ** nderiv
    deriv = _legendre_derivative_matrix(max_degree, nderiv)
    return _leg.legvander(x, deriv.shape[0] - 1) @ deriv * scale


# ---------------------------------------------------------------------------
# Memory blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemoryBlock:
    """Discretized history contribution of source interval j to target n.

    matrix[i, l] = int_{I_n} P_i(t) * [int_{I_j cap (0,t)} w(t-s) P_l'(s) ds] dt
    jump_column[i] = int_{I_n} P_i(t) w(t - t_{j-1}) dt

    (bases mapped to their intervals; w the convolution kernel including the
    1/Gamma(alpha+1) factor).  jump_column multiplies v(0+) for j=1 and the
    jump of v at t_{j-1} for j >= 2.
    """

    source: int
    target: int
    matrix: np.ndarray
    jump_column: np.ndarray


# reciprocal Gamma factor applied to every kernel integral
def _kernel_scale(alpha):
    return 1.0 / math.gamma(alpha + 1.0)


def _local_block(tl, tr, alpha, p_n, p_j):
    """Exact j == n block via the Duffy-type split of the self-convolution.

    With tau = t - t_{n-1} and s = t_{n-1} + tau*xi the double integral
    int_{I_n} P_i(t) int_{t_{n-1}}^t (t-s)^alpha P_l'(s) ds dt becomes
    int_0^k tau^(alpha+1) P_i(t_{n-1}+tau) [int_0^1 (1-xi)^alpha P_l'(...) dxi] dtau,
    a polynomial against each weight, so tensor Gauss-Jacobi is exact.
    """
    k = tr - tl
    if p_j == 0:
        return np.zeros((p_n + 1, p_j + 1))
    n_inner = (p_j - 1) // 2 + 1
    n_outer = (p_n + p_j - 1) // 2 + 1
    xi, w_xi = _jacobi_right_ref(n_inner, alpha)
    xi = 0.5 * (xi + 1.0)
    w_xi = w_xi * 0.5 ** (alpha + 1.0)
    tau, w_tau = gauss_jacobi_rule(n_outer, alpha + 1.0, (0.0, k))
    # derivative basis at s = tl + tau_q * xi_r, target basis at t = tl + tau_q
    s_grid = tl + tau[:, None] * xi[None, :]
    dvals = legendre_derivative_values(s_grid.ravel(), tl, tr, p_j, 1).reshape(tau.size, xi.size, p_j + 1)
    inner = np.einsum("r,qrl->ql", w_xi, dvals)
    tvals = legendre_values(tl + tau, tl, tr, p_n)
    mat = np.einsum("q,qi,ql->il", w_tau, tvals, inner)
    return mat * _kernel_scale(alpha)


# Layer ratio for the graded t-quadrature of near blocks.  Each layer sees
# the kernel singularity at ellipse parameter rho >= 1.87, and sigma^19
# puts the truncated sliver below machine precision.
_NEAR_SIGMA = 0.15

# Far-field switch.  Once the gap between source and target reaches
# _FAR_RATIO times the larger step, the kernel singularity sits at ellipse
# parameter rho >= 5 + sqrt(24) ~ 9.9 in both directions, and tensor
# Gauss-Legendre with max degree + _FAR_PADDING points per direction is
# accurate to about rho^-8 ~ 1e-8 relative, the tolerance of the far-field
# oracle tests.
_FAR_RATIO = 2.0
_FAR_PADDING = 4


def _near_t_layers(tl, tr, gap, deg):
    """Gauss-Legendre rules (nodes, weights) of the t-layers of a near block.

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


def _near_rows(sl, sr, t, alpha, p_j):
    """Rows int_sl^sr (t_q - s)^alpha P_l'(s) ds, l <= p_j, for an array t >= sr.

    One basis evaluation at the nodes of every rule, then one product per
    branch group of the power rules; neither is repeated per t_q.
    """
    groups = _right_power_rules(sl, sr, t, alpha, p_j - 1)
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


def _near_block(sl, sr, tl, tr, alpha, p_n, p_j):
    """Block for intervals too close for smooth tensor quadrature.

    At every time node the s-integral against the kernel is a signed power
    rule, stable at any ratio of step sizes; the t-integral sums the graded
    layers of `_near_t_layers`, each layer's rows built by `_near_rows`.
    """
    if p_j == 0:
        return np.zeros((p_n + 1, p_j + 1))
    total = np.zeros((p_n + 1, p_j + 1))
    for t_nodes, t_w in _near_t_layers(tl, tr, tl - sr, p_n + p_j):
        tvals = legendre_values(t_nodes, tl, tr, p_n)
        total += np.einsum("q,qi,ql->il", t_w, tvals, _near_rows(sl, sr, t_nodes, alpha, p_j))
    return total * _kernel_scale(alpha)


def _far_block(sl, sr, tl, tr, alpha, p_n, p_j):
    """Tensor Gauss-Legendre for well-separated intervals (smooth kernel)."""
    if p_j == 0:
        return np.zeros((p_n + 1, p_j + 1))
    npts = max(p_n, p_j, 1) + _FAR_PADDING
    t_nodes, t_w = _gauss_legendre(npts, tl, tr)
    s_nodes, s_w = _gauss_legendre(npts, sl, sr)
    kern = (t_nodes[:, None] - s_nodes[None, :]) ** alpha
    tvals = legendre_values(t_nodes, tl, tr, p_n)
    gvals = legendre_derivative_values(s_nodes, sl, sr, p_j, 1)
    mat = np.einsum("q,r,qr,qi,rl->il", t_w, s_w, kern, tvals, gvals)
    return mat * _kernel_scale(alpha)


def memory_block(mesh, j, n, order, degrees=None):
    """Memory-matrix block of source interval j acting on target interval n.

    Intervals are 1-based.  `degrees` optionally overrides (p_j, p_n) from the
    mesh.  Near-diagonal blocks (and the jump columns) use exact closed forms;
    once the gap t_{n-1} - t_j reaches _FAR_RATIO times the larger of the two
    step sizes, the smooth Gauss-Legendre branch takes over with max degree +
    _FAR_PADDING points per direction.
    """
    if not 1 <= j <= n <= mesh.interval_count:
        raise IndexError(f"interval pair (j={j}, n={n}) outside 1..{mesh.interval_count}")
    alpha = _alpha_of(order)
    tl, tr = mesh.interval(n)
    sl, sr = mesh.interval(j)
    if degrees is None:
        p_j, p_n = mesh.degree(j), mesh.degree(n)
    else:
        p_j, p_n = degrees
    # jump column: kernel anchored at the source interval's left node
    nodes, weights = power_rule(tl, tr, sl, alpha, p_n)
    jump_col = (legendre_values(nodes, tl, tr, p_n).T @ weights) * _kernel_scale(alpha)
    if j == n:
        mat = _local_block(tl, tr, alpha, p_n, p_j)
    else:
        gap = tl - sr
        if gap >= _FAR_RATIO * max(tr - tl, sr - sl):
            mat = _far_block(sl, sr, tl, tr, alpha, p_n, p_j)
        else:
            mat = _near_block(sl, sr, tl, tr, alpha, p_n, p_j)
    return MemoryBlock(j, n, mat, jump_col)


# ---------------------------------------------------------------------------
# The assembled memory operator, its bilinear form, pointwise evaluation
# ---------------------------------------------------------------------------


def _parity(p):
    return (-1.0) ** np.arange(p + 1)


def _jump_values(coeffs):
    """Values multiplying each source's jump column: v(0+), then [v]^1, [v]^2, ...

    Each entry of `coeffs` is one interval's Legendre coefficients, a vector
    or a (p+1, modes) block; the result has one row per interval.
    """
    vals = []
    left = None
    for c in coeffs:
        right_limit = _parity(len(c) - 1) @ c
        vals.append(right_limit if left is None else right_limit - left)
        left = np.sum(c, axis=0)
    return np.array(vals)


class MemoryOperator:
    """Every memory block of one mesh and order, built once, stacked per target.

    Source interval j carries degree source_degrees[j-1] and target n degree
    target_degrees[n-1]; both are the mesh's degrees for the DG march, and
    those of the two arguments for a bilinear form.  For target n,
    matrices[n-1] has shape (n, q_n+1, P+1) with q_n its degree and P the
    largest source degree: slice j-1 holds the block of source j in its
    first p_j+1 columns and zeros after them.  jump_columns[n-1] has shape
    (n, q_n+1), row j-1 the jump column of source j.  Each block comes from
    `memory_block`, once per (j, n).
    """

    def __init__(self, mesh, order, source_degrees, target_degrees):
        width = int(max(source_degrees)) + 1
        matrices = []
        jump_columns = []
        for n in range(1, mesh.interval_count + 1):
            q = int(target_degrees[n - 1])
            target_matrices = np.zeros((n, q + 1, width))
            target_jumps = np.empty((n, q + 1))
            for j in range(1, n + 1):
                p = int(source_degrees[j - 1])
                blk = memory_block(mesh, j, n, order, degrees=(p, q))
                target_matrices[j - 1, :, : p + 1] = blk.matrix
                target_jumps[j - 1] = blk.jump_column
            matrices.append(target_matrices)
            jump_columns.append(target_jumps)
        self.alpha = _alpha_of(order)
        self.matrices = tuple(matrices)
        self.jump_columns = tuple(jump_columns)

    def apply(self, n, coeffs, jumps):
        """Sum over the sources supplied of M_jn c_j + J_jn (x) [c]_j on target n.

        coeffs[j-1] are the coefficients of source j (a vector, or a block
        with one column per mode) and jumps[j-1] the values multiplying its
        jump column (`_jump_values`); sources j = 1..len(coeffs) <= n.
        """
        matrices = self.matrices[n - 1]
        jump_columns = self.jump_columns[n - 1]
        out = np.zeros(matrices.shape[1:2] + np.shape(jumps)[1:])
        for j, (c, jump) in enumerate(zip(coeffs, jumps)):
            out += matrices[j, :, : len(c)] @ c
            out += np.multiply.outer(jump_columns[j], jump)
        return out


def operator_form(operator, coeffs_v, coeffs_w):
    """int_0^T (B v)(t) w(t) dt with an operator built for the degrees of v and w."""
    jumps = _jump_values(coeffs_v)
    return sum(
        float(w_n @ operator.apply(n, coeffs_v[:n], jumps[:n]))
        for n, w_n in enumerate(coeffs_w, start=1)
    )


def memory_form(mesh, order, coeffs_v, coeffs_w):
    """Bilinear form int_0^T (B v)(t) w(t) dt for broken Legendre coefficients.

    The degrees of v and w need not be the mesh's; the operator is built for
    theirs and applied once.
    """
    operator = MemoryOperator(
        mesh, order, [len(c) - 1 for c in coeffs_v], [len(c) - 1 for c in coeffs_w]
    )
    return operator_form(operator, coeffs_v, coeffs_w)


def l2_form(mesh, coeffs_v, coeffs_w):
    """int_0^T v w dt for broken Legendre coefficients (orthogonality-exact)."""
    total = 0.0
    for n in range(1, mesh.interval_count + 1):
        a, b = mesh.interval(n)
        v, w = coeffs_v[n - 1], coeffs_w[n - 1]
        size = min(len(v), len(w))
        ell = np.arange(size)
        total += float((b - a) * np.sum(v[:size] * w[:size] / (2.0 * ell + 1.0)))
    return total


def frac_derivative_values(mesh, order, coeffs, times):
    """Pointwise (B v)(t) for a broken Legendre polynomial via the jump form."""
    alpha = _alpha_of(order)
    scale = _kernel_scale(alpha)
    jumps = _jump_values(coeffs)
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
            qn, qw = power_rule(a, b, t, alpha, p_j - 1)
            dvals = legendre_derivative_values(qn, nodes_arr[j - 1], nodes_arr[j], p_j, 1)
            acc += scale * float(qw @ (dvals @ coeffs[j - 1]))
        out[idx] = acc
    return out


def fractional_integral_values(alpha, f, times, singular_exponent=None, npoints=32):
    """Fractional integral int_0^t (t-s)^(-alpha-1) f(s) ds / Gamma(-alpha).

    The inverse of the order-alpha operator.  `singular_exponent` declares an
    algebraic singularity f(s) ~ s^e at the origin so the quadrature can
    absorb it into a two-sided Jacobi weight.
    """
    alpha = _alpha_of(alpha)
    if not -1.0 < alpha < 0.0:
        raise ValueError(f"fractional order alpha must lie in (-1, 0), got {alpha}")
    e = 0.0 if singular_exponent is None else float(singular_exponent)
    x, w = roots_jacobi(npoints, -alpha - 1.0, e)
    out = np.empty(len(times))
    inv_gamma = 1.0 / math.gamma(-alpha)
    for idx, t in enumerate(times):
        if t < 0.0:
            raise ValueError(f"fractional integral requires t >= 0, got {t}")
        if t == 0.0:
            out[idx] = 0.0
            continue
        half = 0.5 * t
        s = half * (x + 1.0)
        weights = w * half ** (-alpha - 1.0 + e + 1.0)
        if e == 0.0:
            vals = np.array([f(si) for si in s])
        else:
            vals = np.array([f(si) / si**e for si in s])
        out[idx] = inv_gamma * float(weights @ vals)
    return out
