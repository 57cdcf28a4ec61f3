"""Weakly singular kernel machinery for the fractional time operator.

The operator of order alpha in (-1, 0) acts on a function v through

    (B v)(t) = d/dt int_0^t w(t-s) v(s) ds,    w(t) = t^alpha / Gamma(alpha+1).

For a piecewise polynomial v with breakpoints t_0 < t_1 < ... integration by
parts turns this into the jump representation

    (B v)(t) = sum_{t_i < t} w(t - t_i) [v]^i + int_0^t w(t - s) v'(s) ds,

where [v]^i = v(t_i+) - v(t_i-) and [v]^0 = v(0+), the history before t_0
being zero.  Every integral a DG time stepper then needs is a polynomial
against a pure power kernel.  This module evaluates those
integrals with Gauss-Jacobi rules (`_jacobi_rule`, singular at either end;
exact for the near-diagonal cases), differences of such rules, or
Gauss-Legendre once the singularity is well separated from the integration
interval, and assembles them into the memory-matrix blocks that discretize
the history term.  Every Gauss-Legendre rule comes from one table of the
reference rules laid end to end (`_legendre_rules`) and is mapped onto its
interval by one function, `_gauss_legendre`, one rule or many at once.
A singular point left of its interval takes `power_rule`: a load's
t_0 = 0, and a jump column's source node (one column per source node and
target interval).  One function computes every such moment, the jump
columns' (`_jump_columns`) and the loads': `_left_moments`, over any
pairs of target and singular point and any exponents.  Its Gauss-Legendre
rules do not depend on the exponent: pairs sorted by target and point
count, every group's rule mapped and the basis evaluated at all their
nodes at once, then each group takes its kernel power per exponent and
one stacked product.  Its exact and difference rules depend on the
exponent: one `power_rule` per exponent and pair, one basis evaluation
for all of them, and one product per rule.  A singular point
right of its interval arises only where many time nodes share one source
interval (the near-field blocks).  A near block's time nodes are its
graded t-layers (`_near_t_layers`), a geometric composite Gauss rule
toward the source, mapped in one step; `_right_power_rules` builds the
rules of all of them as one flat rule set: rows sorted by branch and point
count, every Gauss-Legendre rule mapped and every kernel power taken at
once.  Only the contraction with the basis values stays one product per
group (`_near_rows`).  The t-sum takes one einsum per run of consecutive
layers of one point count, with a layer axis that keeps each layer's
bits, and one accumulate adds the layers in order: merging layers into
one sum, or reducing over them (numpy may sum pairwise), would round
differently.
A far-field block is L K R: cached tables of the weighted basis at
reference Gauss-Legendre nodes on either side of the kernel matrix
K = (t_q - s_r)^alpha, the only factor built per pair.  On the graded
meshes of the paper almost every block is far, and a far block takes a
few microseconds, so its fixed costs count: the far blocks share one
table of mapped Gauss-Legendre nodes (`_interval_rule`), each rule a
read-only column, emptied when each operator build starts; K is formed
and raised to its power in place; and both products are `ndarray.dot`,
which calls the same BLAS routine as `@` and gives the same bits in
about half the time, without the matmul ufunc's dispatch.  Only 2-D
products that go to BLAS take `.dot` (the far block's and
`legendre_derivative_values`'): a stacked product done as one 2-D
product, or a 1-D one done by `.dot`, rounds differently.

`MemoryOperator` holds every block and jump column of one mesh, order and
pair of degree vectors, built once; the DG march, the stability report and
the bilinear form `memory_form` all get it from `memory_operator`, which
shares every live operator by its key and retains none.  `apply` takes
the sources' coefficients zero-padded and stacked (`_stacked`): one product
per run of sources of one degree, never over the padding, and one sum of
the terms in the order of a loop over the sources, so stacking moves no
bit.
"""

import math
import weakref
from functools import lru_cache
from itertools import groupby

import numpy as np
from numpy.polynomial import legendre as _leg
from scipy.special import roots_jacobi

__all__ = [
    "MemoryOperator",
    "coercivity_constants",
    "memory_block",
    "memory_form",
    "memory_operator",
    "l2_form",
]


def _check_alpha(alpha):
    """alpha as a float; ValueError unless it lies in (-1, 0)."""
    alpha = float(alpha)
    if not -1.0 < alpha < 0.0:
        raise ValueError(f"fractional order alpha must lie in (-1, 0), got {alpha}")
    return alpha


def coercivity_constants(alpha):
    """Coercivity and continuity constants of the fractional operator.

    c_alpha = cos(alpha pi/2) / pi^alpha * |alpha|^(-alpha) / (1-alpha)^(1-alpha)
    d_alpha = 1 / cos(alpha pi/2)

    The bilinear form Q(v, w) = int_0^T (B v) w dt satisfies
    Q(v, v) >= c_alpha T^alpha int v^2 and |Q(v, w)|^2 <= d_alpha^2 Q(v,v) Q(w,w).
    Both constants tend to 1 as alpha -> 0-.
    """
    alpha = _check_alpha(alpha)
    cos_half = math.cos(alpha * math.pi / 2.0)
    c_alpha = (cos_half / math.pi**alpha) * abs(alpha) ** (-alpha) / (1.0 - alpha) ** (1.0 - alpha)
    d_alpha = 1.0 / cos_half
    return c_alpha, d_alpha


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------


def _read_only(*arrays):
    # the arrays, read-only: a cached rule is shared by every later caller
    for array in arrays:
        array.setflags(write=False)
    return arrays


@lru_cache(maxsize=4096)
def _jacobi_ref(npoints, exponent, at_a):
    # read-only rule of weight (1+x)^exponent on [-1, 1] at_a, else (1-x)^exponent
    rule = roots_jacobi(npoints, 0.0, exponent) if at_a else roots_jacobi(npoints, exponent, 0.0)
    return _read_only(*rule)


# Every Gauss-Legendre rule on [-1, 1] of 1, 2, ..., n points, laid end to
# end as read-only (x, w), with start[m] = m(m-1)/2 the first entry of the
# m-point rule, m <= n.  `_legendre_table` grows it to the largest point
# count asked for; it is the one store of these rules, and no entry changes
# once written.
_LEGENDRE = [np.empty(0), np.empty(0), np.zeros(1, dtype=int)]


def _legendre_table(npoints):
    """`_LEGENDRE` as (x, w, start), first grown to hold the npoints-point rule."""
    x, w, start = _LEGENDRE
    if start.size <= npoints:
        rules = [np.polynomial.legendre.leggauss(count) for count in range(start.size, npoints + 1)]
        x = np.concatenate([x, *(nodes for nodes, _ in rules)])
        w = np.concatenate([w, *(weights for _, weights in rules)])
        counts = np.arange(npoints + 1)
        _LEGENDRE[:] = _read_only(x, w, counts * (counts - 1) // 2)
    return tuple(_LEGENDRE)


def _legendre_rules(counts):
    """The Gauss-Legendre rules on [-1, 1] of the point counts `counts` (an
    int, or an int array), laid end to end as (x, w): one gather from the
    table, so every rule keeps its bits.  `_gauss_legendre` maps them, and
    `_weighted_reference_basis` tabulates the basis at them.
    """
    counts = np.atleast_1d(counts)
    x, w, start = _LEGENDRE
    try:
        first = start[counts]
    except IndexError:
        # a count past the table: grow it
        x, w, start = _legendre_table(int(counts.max()))
        first = start[counts]
    # rule k is table entries first[k] on, and result entries ends[k] - counts[k] on
    ends = counts.cumsum()
    index = (first - (ends - counts)).repeat(counts)
    index += np.arange(ends[-1])
    return x[index], w[index]


def _jacobi_rule(npoints, exponent, a, b, at_a):
    # weight (s-a)^exponent on (a, b) at_a, else (b-s)^exponent; a or b may be a column
    x, w = _jacobi_ref(int(npoints), float(exponent), at_a)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), w * half ** (exponent + 1.0)


def _gauss_legendre(counts, a, b):
    """The Gauss-Legendre rules of `counts` points (an int, or an int array
    of one count per rule) mapped onto (a, b), laid end to end as (nodes,
    weights); a and b are floats, or arrays of one entry per rule.  The one
    mapping of a reference Gauss-Legendre rule: an endpoint repeated per
    node rounds as the same float, so a rule mapped with others keeps the
    bits it has alone.
    """
    if isinstance(a, np.ndarray):
        a, b = a.repeat(counts), b.repeat(counts)
    x, w = _legendre_rules(counts)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), w * half


# Bernstein ellipse parameter rho of the singular point below which the
# difference-of-rules closed form is used; above it plain Gauss-Legendre
# converges geometrically, its error rho^(-2n) small enough that
# n = deg//2 + 2 + 22/ln(rho) points reach machine precision.  The
# difference cancels digits as the degree grows: against the mpmath oracle
# its moments meet the tolerance on both sides up to degree 11, the
# config's bound on every stepper degree, for exponents from -0.99 up, but
# at -0.95 miss it from degree 15 on the left and 16 on the right, and by
# about 1e6 (right) to 1e7 (left) at degree 64, the strict xfails of
# test_power_rule_to_degree_64_against_oracle (ROADMAP item 6).
_DIFF_RHO = 1.25


def _ellipse_rho(dist, length):
    # Bernstein ellipse parameter of a point `dist` beyond an interval of `length`
    x = 1.0 + 2.0 * dist / length
    return x + np.sqrt(x * x - 1.0)


def _gl_point_count(deg, rho):
    # rho a float or an array of them; np.log (math.log differs in the last ulp)
    return deg // 2 + 2 + np.ceil(22.0 / np.log(rho)).astype(int)


def power_rule(a, b, z, beta, deg):
    """Quadrature (nodes, weights) for int_a^b F(s) (s-z)^beta ds, z <= a.

    Exact for polynomials F up to degree `deg` when a Jacobi branch applies;
    the Gauss-Legendre branch resolves the kernel to near machine precision
    by scaling its point count with the distance of z from a.  Branches on
    A = a - z and rho = x + sqrt(x^2 - 1), x = 1 + 2A/(b-a):
      A == 0          single Gauss-Jacobi rule, `_jacobi_rule` (exact),
      rho < 1.25      difference of two `_jacobi_rule`s anchored at z
                      (exact; some nodes fall just outside (a,b), polynomial
                      evaluation there is legitimate),
      otherwise       Gauss-Legendre with a rho-dependent point count.
    ValueError unless beta > -1 and z <= a, so also for a NaN beta or z:
    every load of `solve` has its singular point t_0 = 0 left of the
    interval, and the near field's right singularities are
    `_right_power_rules`.  The loads and the jump columns take it where the
    rule is exact or a difference; their Gauss-Legendre rules come from
    `_left_moments`, bit for bit.
    """
    if not beta > -1.0:
        raise ValueError(f"weight exponent must exceed -1, got {beta}")
    if not z <= a:
        raise ValueError(f"singular point z={z} lies right of a={a}")
    A = a - z
    npts = deg // 2 + 1
    if A == 0.0:
        return _jacobi_rule(npts, beta, a, b, at_a=True)
    rho = _ellipse_rho(A, b - a)
    if rho >= _DIFF_RHO:
        nodes, w = _gauss_legendre(_gl_point_count(deg, rho), a, b)
        return nodes, _left_weights(nodes, w, z, beta)
    n_full, w_full = _jacobi_rule(npts, beta, z, b, at_a=True)
    n_cut, w_cut = _jacobi_rule(npts, beta, z, a, at_a=True)
    return np.concatenate([n_full, n_cut]), np.concatenate([w_full, -w_cut])


def _left_weights(x, w, z, beta):
    """Weights w (x - z)^beta of a Gauss-Legendre rule (x, w) against the
    kernel (s - z)^beta: the arithmetic every left-singular rule, the loads
    and the jump columns share, so that each keeps the bits of `power_rule`."""
    return w * (x - z) ** beta


def _right_power_rules(a, b, z, beta, deg):
    """Signed rules for int_a^b F(s) (z_q-s)^beta ds at each z_q >= b of the
    array z, beta > -1, as one flat rule set.

    With A = z_q - b and rho = x + sqrt(x^2 - 1), x = 1 + 2A/(b-a), A == 0
    takes one Gauss-Jacobi rule singular at b and rho < 1.25 the difference
    of two anchored at z_q, both exact for F of degree <= `deg`; otherwise
    Gauss-Legendre with a rho-dependent point count, near machine precision.
    The branch of z_q depends only on its rho, and within a branch every
    z_q shares one reference rule, so the points fall into groups: the
    exact ones, the difference ones, then the Gauss-Legendre ones by
    ascending point count.  When no z_q has rho < 1.25, the exact and
    difference branches are skipped.  The Gauss-Legendre groups are built
    together: one `_gauss_legendre` call maps the rules of their ascending
    point counts to (a, b), and the weights of every (z_q, node) pair come
    from one gathered power.

    Returns (rows, nodes, weights, groups), the groups laid end to end:
    group g is groups[g] = (size, shape), the rules of z[rows[i]] for the
    next `size` entries i of rows; its nodes are the next prod(shape)
    entries of nodes, shape (count,) when its rules share them and
    (size, count) when each has its own, and its weights the next
    size * count entries of weights, one rule after another.
    """
    dist = z - b
    rho = _ellipse_rho(dist, b - a)
    parts, groups = [], []
    near = rho < _DIFF_RHO
    if near.any():
        npts = deg // 2 + 1
        exact = dist == 0.0
        if exact.any():
            group_rows = exact.nonzero()[0]
            group_nodes, w = _jacobi_rule(npts, beta, a, b, at_a=False)
            parts.append((group_rows, group_nodes, np.tile(w, group_rows.size)))
            groups.append((group_rows.size, group_nodes.shape))
        diff = near & ~exact
        if diff.any():
            group_rows = diff.nonzero()[0]
            zr = z[group_rows, None]
            n_full, w_full = _jacobi_rule(npts, beta, a, zr, at_a=False)
            n_cut, w_cut = _jacobi_rule(npts, beta, b, zr, at_a=False)
            group_nodes = np.hstack([n_full, n_cut])
            parts.append((group_rows, group_nodes.ravel(), np.hstack([w_full, -w_cut]).ravel()))
            groups.append((group_rows.size, group_nodes.shape))
    smooth = (rho >= _DIFF_RHO).nonzero()[0]
    if smooth.size:
        counts = _gl_point_count(deg, rho[smooth])
        by_count = counts.argsort(kind="stable")
        row_counts = counts[by_count]
        rows_per_count = np.bincount(counts)
        unique = rows_per_count.nonzero()[0]
        sizes = rows_per_count[unique]
        group_nodes, w = _gauss_legendre(unique, a, b)
        # pair (row i, node k) reads node first[i] + k, first[i] its count's first node
        first = (unique.cumsum() - unique).repeat(sizes)
        pair_node = (first - (row_counts.cumsum() - row_counts)).repeat(row_counts)
        pair_node += np.arange(pair_node.size)
        group_rows = smooth[by_count]
        pair_z = z[group_rows].repeat(row_counts)
        parts.append((group_rows, group_nodes, w[pair_node] * (pair_z - group_nodes[pair_node]) ** beta))
        groups.extend(zip(sizes.tolist(), ((count,) for count in unique.tolist())))
    rows, nodes, weights = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    return rows, nodes, weights, groups


# ---------------------------------------------------------------------------
# Local Legendre basis helpers
# ---------------------------------------------------------------------------


def _map_to_reference(s, a, b):
    return (2.0 * np.asarray(s, dtype=float) - (a + b)) / (b - a)


@lru_cache(maxsize=256)
def _legendre_derivative_matrix(max_degree, nderiv):
    # column k holds the Legendre coefficients of the nderiv-th derivative of P_k
    return _read_only(_leg.legder(np.eye(max_degree + 1), nderiv, axis=0))[0]


def _legvander(x, deg):
    """numpy's `legvander` for a scalar or 1-D x, bitwise equal and without its
    generic axis handling: the same forward recurrence, operation for
    operation, fills a (deg+1, n) array that is returned transposed.
    """
    x = np.array(x, copy=None, ndmin=1) + 0.0
    if x.ndim != 1:
        raise ValueError(f"Legendre nodes must be a scalar or 1-D, got shape {x.shape}")
    v = np.empty((deg + 1,) + x.shape, dtype=x.dtype)
    v[0] = x * 0 + 1
    if deg > 0:
        v[1] = x
        for i in range(2, deg + 1):
            v[i] = (v[i - 1] * x * (2 * i - 1) - v[i - 2] * (i - 1)) / i
    return v.T


def legendre_values(s, a, b, max_degree):
    """Matrix of mapped Legendre values, column k = P_k(ref(s)), k <= max_degree."""
    x = _map_to_reference(s, a, b)
    return _legvander(x, max_degree)


def legendre_derivative_values(s, a, b, max_degree, nderiv):
    """Values of the nderiv-th derivative of the mapped Legendre basis.

    Returns matrix with column k = d^nderiv/ds^nderiv P_k(ref(s)).  The chain
    rule contributes (2/(b-a))^nderiv per derivative.
    """
    x = _map_to_reference(s, a, b)
    scale = (2.0 / (b - a)) ** nderiv
    deriv = _legendre_derivative_matrix(max_degree, nderiv)
    return _legvander(x, deriv.shape[0] - 1).dot(deriv) * scale


@lru_cache(maxsize=256)
def _weighted_reference_basis(npts, max_degree, nderiv):
    """Read-only table w_r P_k^(nderiv)(x_r) at the npts-point Gauss-Legendre
    rule (x, w) on [-1, 1], one row per node r, column k <= max_degree.
    """
    x, w = _legendre_rules(npts)
    return _read_only(w[:, None] * legendre_derivative_values(x, -1.0, 1.0, max_degree, nderiv))[0]


def _left_rule_order(nodes, degrees, target, z):
    """The pairs of `_left_moments` by branch: (singular, pairs, starts,
    group_target, group_count).  `pairs` indexes the Gauss-Legendre pairs
    sorted by target and point count, and group g, of target
    group_target[g] and group_count[g] points, is pairs[starts[g]:] up to
    the next start.  A function of its own so that its per-pair
    temporaries are freed before the rules are mapped."""
    rho = _ellipse_rho(nodes[target] - z, nodes[target + 1] - nodes[target])
    singular = np.flatnonzero(rho < _DIFF_RHO)
    pairs = np.flatnonzero(rho >= _DIFF_RHO)
    counts = _gl_point_count(degrees[target[pairs]], rho[pairs])
    by_group = np.lexsort((counts, target[pairs]))
    pairs, counts = pairs[by_group], counts[by_group]
    targets = target[pairs]
    # a group starts where the target or the point count changes
    first = np.ones(pairs.size, dtype=bool)
    first[1:] = (targets[1:] != targets[:-1]) | (counts[1:] != counts[:-1])
    starts = np.flatnonzero(first)
    return singular, pairs, starts, targets[starts], counts[starts]


def _left_moments(nodes, degrees, target, z, betas):
    """Moments int_{I_n} P_i(t) (t - z)^beta dt, z <= t_{n-1}, for the pairs
    (0-based target n = target[k], z = z[k]) of two arrays and each beta of
    `betas`: out[b, k] holds the moment vector of `power_rule(t_{n-1}, t_n,
    z, betas[b], q_n)`, q_n = degrees[n], against P_0..P_{q_n}, bit for
    bit, and zeros past it up to the widest of `degrees`.

    `_left_rule_order` sorts the pairs by branch, in a function of its own
    (inlined, it raised the traced peak of a graded N=600 jump-column pass
    from 19.0 to 24.7 MB).  A Gauss-Legendre rule does not depend on beta:
    one `_gauss_legendre` call maps the rule of every group of one target
    and point count, one basis recurrence evaluates them all, and each
    group takes its kernel powers (`_left_weights`) one scalar beta at a
    time, then one stacked product for all of them, which rounds as the
    one-pair product.  One broadcast power over two betas or more would
    round some square roots (beta = 0.5) differently.  An exact or difference rule depends
    on beta: each (beta, pair) takes `power_rule`, one basis recurrence
    covers all their nodes, and each rule makes its own product.  The
    moments fill one buffer in rule order, slice by slice, scattered to the
    pairs' order once (written in place by fancy index, the graded N=150
    jump columns took 7.8 ms against 7.0).
    """
    degrees = np.asarray(degrees)
    singular, pairs, starts, group_target, group_count = _left_rule_order(nodes, degrees, target, z)
    # rows in the order of `pairs`, then of `singular`
    moments = np.zeros((len(betas), target.size, int(degrees.max()) + 1))
    if pairs.size:
        a, b, group_degrees = nodes[group_target], nodes[group_target + 1], degrees[group_target].tolist()
        x, w = _gauss_legendre(group_count, a, b)
        values = legendre_values(x, a.repeat(group_count), b.repeat(group_count), max(group_degrees))
        pair_z = z[pairs, None]
        pair_bounds = [*starts.tolist(), pairs.size]
        node_bounds = [0, *group_count.cumsum().tolist()]
        for g, q in enumerate(group_degrees):
            lo, hi, first, last = node_bounds[g], node_bounds[g + 1], pair_bounds[g], pair_bounds[g + 1]
            group_x, group_w, group_z = x[lo:hi], w[lo:hi], pair_z[first:last]
            weights = np.array([_left_weights(group_x, group_w, group_z, beta) for beta in betas])
            moments[:, first:last, : q + 1] = np.matmul(weights[:, :, None, :], values[lo:hi, : q + 1])[:, :, 0]
    if singular.size:
        n = target[singular]
        tl, tr, q, points = nodes[n].tolist(), nodes[n + 1].tolist(), degrees[n].tolist(), z[singular].tolist()
        rules = [power_rule(a, b, s, beta, p) for beta in betas for a, b, s, p in zip(tl, tr, points, q)]
        sizes = [x.size for x, _ in rules]
        values = legendre_values(
            np.concatenate([x for x, _ in rules]),
            np.array(tl * len(betas)).repeat(sizes),
            np.array(tr * len(betas)).repeat(sizes),
            max(q),
        )
        # the rows of the rules, in their order: beta, then pair
        rows = (row for beta_rows in moments[:, pairs.size :] for row in beta_rows)
        node = 0
        for row, (_, w), p, size in zip(rows, rules, q * len(betas), sizes):
            row[: p + 1] = w @ values[node : node + size, : p + 1]
            node += size
    out = np.empty_like(moments)
    out[:, np.concatenate([pairs, singular])] = moments
    return out


@lru_cache(maxsize=None)
def _interval_rule(npts, a, b):
    """The build's table: the nodes of the npts-point Gauss-Legendre rule
    mapped to (a, b), a read-only (npts, 1) column, the t or s nodes of
    every far block on that interval.  Unbounded: each build empties it,
    and a graded N=150, p=2 build fills 150 entries, one per interval that
    is a far block's target or source."""
    return _read_only(_gauss_legendre(npts, a, b)[0].reshape(npts, 1))[0]


# ---------------------------------------------------------------------------
# Memory blocks
# ---------------------------------------------------------------------------


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
    n_inner = (p_j - 1) // 2 + 1
    n_outer = (p_n + p_j - 1) // 2 + 1
    xi, w_xi = _jacobi_rule(n_inner, alpha, 0.0, 1.0, at_a=False)
    tau, w_tau = _jacobi_rule(n_outer, alpha + 1.0, 0.0, tr - tl, at_a=True)
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
# accurate to about rho^-8 ~ 1e-8 relative.  That is the far-field oracle
# tolerance itself, so at the switch some blocks miss it, by up to 2.66x
# (p = 2, alpha = -0.95): the strict xfail of
# test_memory_block_at_the_far_switch_against_oracle[far-1.0] (ROADMAP
# item 4); further out the rule meets it.  Both directions use the same
# reference rule, so the block is L K R with L and R cached per (points,
# degree) (`_far_block`).
_FAR_RATIO = 2.0
_FAR_PADDING = 4


def _near_t_layers(tl, tr, gap, deg):
    """Gauss-Legendre rules of the t-layers of a near block, laid end to
    end: (nodes, weights, counts), layer k the next counts[k] entries.

    The inner integral loses analyticity in t as t approaches the source
    interval, which ends `gap` below tl, so the layers grade geometrically
    toward tl; the ladder stops at the gap (or at a machine-negligible
    sliver when the intervals are adjacent, which is dropped).  Each
    layer's point count follows from its own ellipse parameter, and one
    `_gauss_legendre` call maps every layer's rule, each keeping the bits
    of its own.
    """
    k_n = tr - tl
    offsets = [k_n]
    while offsets[-1] * _NEAR_SIGMA > max(gap, 1e-16 * k_n):
        offsets.append(offsets[-1] * _NEAR_SIGMA)
    offsets.append(0.0)
    offsets = np.array(offsets)
    lo_off = offsets[1:]
    width = offsets[:-1] - lo_off
    kept = width > 1e-15 * k_n
    lo_off, width = lo_off[kept], width[kept]
    # singularity sits at sr = tl - gap, below each layer by gap + lo_off
    counts = _gl_point_count(deg, _ellipse_rho(gap + lo_off, width))
    lo = tl + lo_off
    return (*_gauss_legendre(counts, lo, lo + width), counts)


def _near_rows(sl, sr, t, alpha, p_j):
    """Rows int_sl^sr (t_q - s)^alpha P_l'(s) ds, l <= p_j, for an array t >= sr.

    One flat rule set (`_right_power_rules`) and one basis evaluation at
    all its nodes; neither is repeated per t_q or per group.  Only the
    contraction of each group's weights with its basis values, a stacked
    (size, 1, count) @ (1 or size, count, p_j+1) product, stays one matmul
    per group: a single 2-D product, an einsum or a zero-padded node count
    each round differently, and the rows must keep their bits.  The loop
    reads each group's node span from its shape: `count` nodes when its
    rules share them, size * count when each has its own.  The products
    fill one buffer in group order, scattered to the rows of t once.
    """
    rows, nodes, weights, groups = _right_power_rules(sl, sr, t, alpha, p_j - 1)
    dvals = legendre_derivative_values(nodes, sl, sr, p_j, 1)
    by_group = np.empty((t.size, 1, p_j + 1))
    row = node = pair = 0
    for size, shape in groups:
        count = shape[-1]
        stop = pair + size * count
        # a shared node set spans `count` nodes, one per rule `size * count`
        span = count if len(shape) == 1 else stop - pair
        np.matmul(
            weights[pair:stop].reshape(size, 1, count),
            dvals[node : node + span].reshape(-1, count, p_j + 1),
            out=by_group[row : row + size],
        )
        row, node, pair = row + size, node + span, stop
    out = np.empty((t.size, p_j + 1))
    out[rows] = by_group[:, 0]
    return out


def _near_block(sl, sr, tl, tr, alpha, p_n, p_j):
    """Block for intervals too close for smooth tensor quadrature.

    At every time node the s-integral against the kernel is a signed power
    rule, stable at any ratio of step sizes; the t-integral sums the graded
    layers of `_near_t_layers`, which come laid end to end with their point
    counts.  The rows and target basis values of every layer's nodes come
    from one `_near_rows` and one `legendre_values` call.  Each run of
    consecutive layers of one point count is contracted by one einsum
    with a layer axis, which keeps each layer's sum as its own einsum
    gives it, into slot 1, 2, ... of a stack whose slot 0 is zeros; one
    accumulate then adds the layers onto zeros one after another, in
    layer order.  Merging layers into one sum over their nodes, or
    reducing the stack (which numpy may do pairwise), would round
    differently.
    """
    t_nodes, t_w, counts = _near_t_layers(tl, tr, tl - sr, p_n + p_j)
    tvals = legendre_values(t_nodes, tl, tr, p_n)
    rows = _near_rows(sl, sr, t_nodes, alpha, p_j)
    layers = np.zeros((counts.size + 1, p_n + 1, p_j + 1))
    layer = node = 0
    for count, run in groupby(counts.tolist()):
        size = len(list(run))
        stop = node + size * count
        np.einsum(
            "kq,kqi,kql->kil",
            t_w[node:stop].reshape(size, count),
            tvals[node:stop].reshape(size, count, p_n + 1),
            rows[node:stop].reshape(size, count, p_j + 1),
            out=layers[layer + 1 : layer + 1 + size],
        )
        layer, node = layer + size, stop
    return np.add.accumulate(layers)[-1] * _kernel_scale(alpha)


def _far_block(sl, sr, tl, tr, alpha, p_n, p_j):
    """Tensor Gauss-Legendre for well-separated intervals (smooth kernel).

    One reference rule (x, w) mapped to both intervals makes the block
    L K R (k_n/2): L[i, q] = w_q P_i(x_q) and R[r, l] = w_r P_l'(x_r) are
    cached reference tables (the source half-step cancels against the chain
    rule of the derivative), the mapped nodes come from the build's table
    (`_interval_rule`) as columns, and only K[q, r] = (t_q - s_r)^alpha is
    built per pair, in place.  The two products are `ndarray.dot`: the same
    BLAS calls as `left @ kern @ right`, so the same bits, without the
    matmul ufunc's dispatch; the scale is applied after them, in place,
    as `(left @ kern @ right) * scale` rounds.
    """
    npts = max(p_n, p_j) + _FAR_PADDING
    kern = _interval_rule(npts, tl, tr) - _interval_rule(npts, sl, sr).T
    kern **= alpha
    left = _weighted_reference_basis(npts, p_n, 0).T
    right = _weighted_reference_basis(npts, p_j, 1)
    out = left.dot(kern).dot(right)
    out *= 0.5 * (tr - tl) * _kernel_scale(alpha)
    return out


def memory_block(mesh, j, n, order, degrees=None):
    """Memory-matrix block of source interval j acting on target interval n.

    matrix[i, l] = int_{I_n} P_i(t) * [int_{I_j cap (0,t)} w(t-s) P_l'(s) ds] dt

    with the bases mapped to their intervals and w the convolution kernel
    including the 1/Gamma(alpha+1) factor; shape (p_n+1, p_j+1).
    Intervals are 1-based and `order` is alpha.  `degrees` optionally
    overrides (p_j, p_n) from the mesh.  Near-diagonal blocks use exact
    closed forms; once the gap t_{n-1} - t_j reaches _FAR_RATIO times the
    larger of the two step sizes, the smooth Gauss-Legendre branch takes
    over with max degree + _FAR_PADDING points per direction.  The jump
    column that pairs with the block depends on the source only through
    its left node; `MemoryOperator` builds every one of a mesh at once
    (`_jump_columns`).
    """
    if not 1 <= j <= n <= mesh.interval_count:
        raise IndexError(f"interval pair (j={j}, n={n}) outside 1..{mesh.interval_count}")
    alpha = _check_alpha(order)
    nodes = mesh._node_list
    sl, sr, tl, tr = nodes[j - 1], nodes[j], nodes[n - 1], nodes[n]
    if degrees is None:
        p_j, p_n = mesh.degree(j), mesh.degree(n)
    else:
        p_j, p_n = degrees
    if p_j == 0:
        # a constant source has no derivative: only its jump column acts
        return np.zeros((p_n + 1, 1))
    if j == n:
        return _local_block(tl, tr, alpha, p_n, p_j)
    if tl - sr >= _FAR_RATIO * max(tr - tl, sr - sl):
        return _far_block(sl, sr, tl, tr, alpha, p_n, p_j)
    return _near_block(sl, sr, tl, tr, alpha, p_n, p_j)


def _jump_columns(nodes, alpha, target_degrees):
    """Every jump column of a mesh with these nodes, one (n, q_n+1) array per
    target n, row j-1 that of source j:

        column[i] = int_{I_n} P_i(t) w(t - t_{j-1}) dt,

    the weight of the jump [v]^{j-1}, with [v]^0 = v(0+), the history
    before t_0 being zero: the moment vector of `power_rule(t_{n-1}, t_n,
    t_{j-1}, alpha, q_n)`, bit for bit.  One `_left_moments` pass covers
    every pair j <= n in the order of `np.tril_indices`, so each target's
    columns are one slice of its result, scaled in place.
    """
    # every pair j <= n, as 0-based target and source indices
    target, source = np.tril_indices(len(target_degrees))
    moments = _left_moments(nodes, target_degrees, target, nodes[source], (alpha,))[0]
    moments *= _kernel_scale(alpha)
    return [moments[n * (n - 1) // 2 : n * (n + 1) // 2, : q + 1] for n, q in enumerate(target_degrees, start=1)]


# ---------------------------------------------------------------------------
# The assembled memory operator and its bilinear form
# ---------------------------------------------------------------------------


def _parity(p):
    return (-1.0) ** np.arange(p + 1)


def _traces(coeffs):
    """End values (right, left) of a broken function, v(t_{n-1}+) and v(t_n-)
    in row n-1; each entry of `coeffs` is one interval's Legendre
    coefficients, a vector or a (p+1, modes) block."""
    right, left = [], []
    for c in coeffs:
        right.append(_parity(len(c) - 1) @ c)
        left.append(np.sum(c, axis=0))
    return np.array(right), np.array(left)


def _jump_values(coeffs):
    """The jumps [v]^i = v(t_i+) - v(t_i-) that multiply the jump columns, one
    row per interval (`_traces`): [v]^0 = v(0+), the history before t_0 being zero."""
    right, left = _traces(coeffs)
    return right - np.concatenate([np.zeros_like(left[:1]), left[:-1]])


def _stacked(coeffs):
    """The blocks of `coeffs`, one per interval, zero-padded to the widest and
    stacked: shape (N, P+1) for vectors, (N, P+1, modes) for blocks."""
    out = np.zeros((len(coeffs), max(map(len, coeffs))) + np.shape(coeffs[0])[1:])
    for j, c in enumerate(coeffs):
        out[j, : len(c)] = c
    return out


def _degree_key(name, degrees, count):
    """The degree vector as a tuple of ints; ValueError naming it unless it
    holds one non-negative integer per interval, as a `TimeMesh`'s does."""
    values = degrees.tolist() if isinstance(degrees, np.ndarray) else degrees
    try:
        key = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        key = None
    if key is None or len(key) != count or min(key) < 0 or key != tuple(values):
        raise ValueError(f"{name} degrees {values} are not one non-negative integer per interval of {count}")
    return key


def _operator_key(mesh, alpha, source_degrees, target_degrees):
    vectors = (("source", source_degrees), ("target", target_degrees))
    degrees = (_degree_key(name, d, mesh.interval_count) for name, d in vectors)
    return (mesh.nodes.tobytes(), _check_alpha(alpha), *degrees)


# every live operator under its key, held weakly: shared while a caller holds it
_live_operators = weakref.WeakValueDictionary()


class MemoryOperator:
    """Every memory block of one mesh and order, built once, stacked per target.

    Source interval j carries degree source_degrees[j-1] and target n degree
    target_degrees[n-1]; both are the mesh's degrees for the DG march, and
    those of the two arguments for a bilinear form.  For target n,
    matrices[n-1] has shape (n, q_n+1, P+1) with q_n its degree and P the
    largest source degree: slice j-1 holds the block of source j in its
    first p_j+1 columns and zeros after them.  jump_columns[n-1] has shape
    (n, q_n+1), row j-1 the jump column of source j.  Each block comes from
    `memory_block`, once per (j, n); the jump columns depend on no source
    degree and come from one `_jump_columns` pass.  `_runs` holds (start,
    stop, p) for each run of consecutive sources start+1..stop of one
    degree p.

    A build empties the far blocks' table of mapped nodes (`_interval_rule`)
    when it starts, so no build reads another's entries.

    `key` is (mesh.nodes.tobytes(), alpha, source degrees, target degrees),
    the degrees as tuples of ints.  Every live operator is shared by its
    key (`memory_operator`), so the arrays are read-only.
    """

    def __init__(self, mesh, alpha, source_degrees, target_degrees):
        self.key = _operator_key(mesh, alpha, source_degrees, target_degrees)
        _, alpha, source_degrees, target_degrees = self.key
        _interval_rule.cache_clear()
        jump_columns = _jump_columns(mesh.nodes, alpha, target_degrees)
        width = max(source_degrees) + 1
        matrices = []
        for n in range(1, mesh.interval_count + 1):
            q = target_degrees[n - 1]
            target_matrices = np.zeros((n, q + 1, width))
            for j in range(1, n + 1):
                p = source_degrees[j - 1]
                target_matrices[j - 1, :, : p + 1] = memory_block(mesh, j, n, alpha, degrees=(p, q))
            _read_only(target_matrices, jump_columns[n - 1])
            matrices.append(target_matrices)
        self.matrices = tuple(matrices)
        self.jump_columns = tuple(jump_columns)
        edges = [0, *(np.flatnonzero(np.diff(source_degrees)) + 1).tolist(), len(source_degrees)]
        self._runs = tuple((a, b, source_degrees[a]) for a, b in zip(edges, edges[1:]))
        _live_operators[self.key] = self

    def apply(self, n, coeffs, jumps):
        """Sum over sources j = 1..J <= n of M_jn c_j + J_jn (x) [c]_j on target n.

        coeffs is (J, P+1) or (J, P+1, modes): row j-1 the coefficients of
        source j, zero-padded past its degree to a common width (`_stacked`),
        and jumps[j-1] its jump [c]^{j-1} (`_jump_values`), with [c]^0 =
        c(0+), the history before t_0 being zero.
        Each run of sources of one degree p is one stacked product over its
        first p+1 coefficients, never the padding, which would round the
        product differently; one broadcast forms every jump term.  The 2J
        terms sit interleaved, M_1 c_1, J_1 [c]_1, M_2 c_2, ..., and one sum
        over them adds them one after another, in that order.
        """
        count = len(coeffs)
        matrices = self.matrices[n - 1]
        shape = matrices.shape[1:2] + np.shape(jumps)[1:]
        modes = math.prod(shape[1:])  # a vector is a block of one mode
        coeffs = coeffs.reshape(count, coeffs.shape[1], modes)
        terms = np.empty((count, 2, shape[0], modes))
        for start, stop, p in self._runs:
            if start >= count:
                break
            stop = min(stop, count)
            np.matmul(matrices[start:stop, :, : p + 1], coeffs[start:stop, : p + 1], out=terms[start:stop, 0])
        np.multiply(self.jump_columns[n - 1][:count, :, None], jumps.reshape(count, 1, modes), out=terms[:, 1])
        # numpy sums the rows one after another while a row has two entries
        # or more, but a column pairwise: one entry per term accumulates
        terms = terms.reshape(2 * count, shape[0] * modes)
        out = np.add.accumulate(terms)[-1] if terms.shape[1] == 1 and count else np.add.reduce(terms)
        return out.reshape(shape)


def memory_operator(mesh, alpha, source_degrees, target_degrees):
    """The live operator of this key, else a new build: the package's one door to an operator."""
    operator = _live_operators.get(_operator_key(mesh, alpha, source_degrees, target_degrees))
    return MemoryOperator(mesh, alpha, source_degrees, target_degrees) if operator is None else operator


def _form_degrees(count, coeffs_v, coeffs_w):
    """Degrees of broken coefficients v and w; ValueError unless each has
    `count` blocks, one non-empty vector per interval."""
    degrees = []
    for name, coeffs in (("v", coeffs_v), ("w", coeffs_w)):
        if len(coeffs) != count:
            raise ValueError(f"{name} has {len(coeffs)} coefficient blocks, expected {count}, one per interval")
        shapes = [c.shape for c in map(np.asanyarray, coeffs)]
        for n, shape in enumerate(shapes, start=1):
            if len(shape) != 1 or not shape[0]:
                raise ValueError(f"{name} block {n} has shape {shape}, not a non-empty vector")
        degrees.append(tuple(size - 1 for size, in shapes))
    return degrees


def memory_form(mesh, alpha, coeffs_v, coeffs_w):
    """Bilinear form int_0^T (B v)(t) w(t) dt for broken Legendre coefficients.

    The degrees of v and w need not be the mesh's: they key the operator
    (`memory_operator`), a solution's while it holds it, else a new build.
    ValueError unless v and w have one block per interval.
    """
    degrees = _form_degrees(mesh.interval_count, coeffs_v, coeffs_w)
    operator = memory_operator(mesh, alpha, *degrees)
    stacked, jumps = _stacked(coeffs_v), _jump_values(coeffs_v)
    return sum(
        float(w_n @ operator.apply(n, stacked[:n], jumps[:n]))
        for n, w_n in enumerate(coeffs_w, start=1)
    )


def l2_form(mesh, coeffs_v, coeffs_w):
    """int_0^T v w dt for broken Legendre coefficients, one block per interval (orthogonality-exact)."""
    _form_degrees(mesh.interval_count, coeffs_v, coeffs_w)
    total = 0.0
    for n in range(1, mesh.interval_count + 1):
        a, b = mesh.interval(n)
        v, w = coeffs_v[n - 1], coeffs_w[n - 1]
        size = min(len(v), len(w))
        ell = np.arange(size)
        total += float((b - a) * np.sum(v[:size] * w[:size] / (2.0 * ell + 1.0)))
    return total
