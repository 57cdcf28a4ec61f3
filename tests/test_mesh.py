"""Mesh construction, invariants, and serialization."""

import math

import numpy as np
import pytest

from fracdg.mesh import (
    TimeMesh,
    dof_count,
    fine_grid,
    geometric_mesh,
    graded_mesh,
)


# ---------------------------------------------------------------------------
# Graded meshes
# ---------------------------------------------------------------------------


def test_graded_quadratic_example():
    mesh = graded_mesh(T=1.0, N=4, gamma=2.0, p=1)
    assert np.allclose(mesh.nodes, [0.0, 0.0625, 0.25, 0.5625, 1.0], atol=1e-15)
    assert list(mesh.degrees) == [1, 1, 1, 1]


def test_graded_gamma_one_is_uniform():
    mesh = graded_mesh(T=2.0, N=5, gamma=1.0, p=2)
    assert np.array_equal(mesh.nodes, np.linspace(0.0, 2.0, 6))


def test_graded_endpoint_lands_exactly_on_horizon():
    mesh = graded_mesh(T=2.0, N=7, gamma=2.3, p=3)
    assert mesh.nodes[-1] == 2.0
    assert mesh.horizon == 2.0


def test_graded_step_growth_bounds():
    # steps are nondecreasing and satisfy k_n <= gamma k t_n^(1-1/gamma)
    # with k = T^(1/gamma)/N, and consecutive nodes grow at most 2^gamma
    rng = np.random.default_rng(5)
    for _ in range(25):
        gamma = float(rng.uniform(1.0, 4.0))
        N = int(rng.integers(2, 40))
        T = float(rng.uniform(0.5, 3.0))
        mesh = graded_mesh(T=T, N=N, gamma=gamma, p=1)
        k = T ** (1.0 / gamma) / N
        steps = np.diff(mesh.nodes)
        assert np.all(np.diff(steps) >= -1e-12 * T)
        for n in range(1, N + 1):
            t_n = mesh.nodes[n]
            assert steps[n - 1] <= gamma * k * t_n ** (1.0 - 1.0 / gamma) * (1.0 + 1e-12)
        ratios = mesh.nodes[2:] / mesh.nodes[1:-1]
        assert np.all(ratios <= 2.0**gamma + 1e-12)


def test_graded_first_interval_linear_flag():
    mesh = graded_mesh(T=1.0, N=4, gamma=3.0, p=3, first_interval_linear=True)
    assert list(mesh.degrees) == [1, 3, 3, 3]
    assert mesh.degrees[0] == 1


def test_graded_validation():
    with pytest.raises(ValueError, match="gamma"):
        graded_mesh(T=1.0, N=4, gamma=0.8, p=1)
    with pytest.raises(ValueError, match="degree"):
        graded_mesh(T=1.0, N=4, gamma=1.5, p=0)
    with pytest.raises(ValueError, match="N"):
        graded_mesh(T=1.0, N=0, gamma=1.5, p=1)
    with pytest.raises(ValueError, match="T"):
        graded_mesh(T=-1.0, N=4, gamma=1.5, p=1)


# ---------------------------------------------------------------------------
# Geometric meshes
# ---------------------------------------------------------------------------


def test_geometric_example():
    mesh = geometric_mesh(T=1.0, T_1=1.0, delta=0.5, L=2, mu=1.0)
    assert np.allclose(mesh.nodes, [0.0, 0.25, 0.5, 1.0], atol=1e-15)
    assert list(mesh.degrees) == [1, 2, 3]


def test_geometric_step_identities():
    # k_n = lambda t_{n-1} with lambda = (1-delta)/delta, and k_n / t_n = 1 - delta
    rng = np.random.default_rng(9)
    for _ in range(20):
        delta = float(rng.uniform(0.1, 0.6))
        L = int(rng.integers(1, 9))
        mesh = geometric_mesh(T=1.0, T_1=1.0, delta=delta, L=L, mu=1.0)
        lam = (1.0 - delta) / delta
        for n in range(2, L + 2):
            tl, tr = mesh.interval(n)
            assert math.isclose(tr - tl, lam * tl, rel_tol=1e-12)
            assert math.isclose((tr - tl) / tr, 1.0 - delta, rel_tol=1e-12)


def test_geometric_dof_counts_with_unit_slope():
    # sum (p_n + 1) = (L+1)(L+4)/2 for mu = 1 on the purely geometric part
    expected = {3: 14, 4: 20, 5: 27, 6: 35, 7: 44}
    for L, dofs in expected.items():
        mesh = geometric_mesh(T=1.0, T_1=1.0, delta=0.25, L=L, mu=1.0)
        assert dof_count(mesh) == dofs


def test_geometric_degree_slope_floor():
    mesh = geometric_mesh(T=1.0, T_1=1.0, delta=0.5, L=3, mu=0.75)
    # floor(0.75 * n) = 0, 1, 2, 3 -> floored at 1 for the first interval
    assert list(mesh.degrees) == [1, 1, 2, 3]


def test_geometric_coarse_tail():
    mesh = geometric_mesh(T=2.0, T_1=1.0, delta=0.5, L=2, mu=1.0)
    assert mesh.nodes[-1] == 2.0
    assert np.allclose(mesh.nodes, [0.0, 0.25, 0.5, 1.0, 2.0], atol=1e-15)
    assert list(mesh.degrees) == [1, 2, 3, 3]
    wide = geometric_mesh(T=3.5, T_1=1.0, delta=0.5, L=1, mu=2.0)
    # ceil(2.5) = 3 coarse pieces of equal width
    assert np.allclose(np.diff(wide.nodes[-4:]), 2.5 / 3.0)
    assert wide.nodes[-1] == 3.5


def test_geometric_validation():
    with pytest.raises(ValueError, match="delta"):
        geometric_mesh(T=1.0, T_1=1.0, delta=1.0, L=2, mu=1.0)
    with pytest.raises(ValueError, match="T_1"):
        geometric_mesh(T=1.0, T_1=2.0, delta=0.5, L=2, mu=1.0)
    with pytest.raises(ValueError, match="mu"):
        geometric_mesh(T=1.0, T_1=1.0, delta=0.5, L=2, mu=0.0)


# ---------------------------------------------------------------------------
# Mesh protocol
# ---------------------------------------------------------------------------


def test_time_mesh_validation():
    with pytest.raises(ValueError, match="start"):
        TimeMesh([0.5, 1.0], [1])
    with pytest.raises(ValueError, match="increasing"):
        TimeMesh([0.0, 0.5, 0.5, 1.0], [1, 1, 1])
    with pytest.raises(ValueError, match="degree"):
        TimeMesh([0.0, 0.5, 1.0], [1])
    with pytest.raises(ValueError, match="nonnegative"):
        TimeMesh([0.0, 1.0], [-1])
    # a non-finite node or a degree that is not a whole number is named
    with pytest.raises(ValueError, match="node 1 is nan"):
        TimeMesh([0.0, math.nan, 1.0], [1, 1])
    with pytest.raises(ValueError, match="node 2 is inf"):
        TimeMesh([0.0, 0.5, math.inf], [1, 1])
    with pytest.raises(ValueError, match="degree 1 is 1.7"):
        TimeMesh([0.0, 0.5, 1.0], [1.7, 2])
    with pytest.raises(ValueError, match="degree 2 is nan"):
        TimeMesh([0.0, 0.5, 1.0], [1, math.nan])
    assert TimeMesh([0.0, 0.5, 1.0], [1.0, 2.0]).degrees.tolist() == [1, 2]


def test_interval_and_degree_accessors():
    mesh = graded_mesh(T=1.0, N=4, gamma=1.0, p=2)
    assert mesh.interval(1) == (0.0, 0.25)
    assert mesh.interval(4) == (0.75, 1.0)
    assert mesh.degree(3) == 2
    assert mesh.interval_count == 4
    for bad in (0, 5):
        with pytest.raises(IndexError):
            mesh.interval(bad)
        with pytest.raises(IndexError):
            mesh.degree(bad)


def test_fine_grid_counts_and_uniqueness():
    mesh = graded_mesh(T=1.0, N=18, gamma=1.5, p=1)
    grid = fine_grid(mesh, 10)
    assert grid.size == 18 * 10 + 1
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert np.all(np.diff(grid) > 0.0)
    for node in mesh.nodes:
        assert np.min(np.abs(grid - node)) == 0.0


def test_fine_grid_values_uniform():
    mesh = graded_mesh(T=1.0, N=2, gamma=1.0, p=1)
    assert np.allclose(fine_grid(mesh, 2), [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
    with pytest.raises(ValueError):
        fine_grid(mesh, 0)


def test_dof_count_uniform():
    assert dof_count(graded_mesh(T=1.0, N=5, gamma=1.0, p=2)) == 15
