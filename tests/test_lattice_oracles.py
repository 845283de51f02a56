"""Exact rational oracles on lattice polygons.

A self-avoiding closed walk of unit steps on Z^2 or Z^3 is an equilateral
polygon with integer vertices, so its discrete energy, the gradient of the
energy's chord part and its minimum distance potential are rational
numbers, computed here with ``fractions`` alone.  The walks are full of
exactly parallel segment pairs, so the potential checks the parallel
branch of the segment-distance kernel against an exact answer.
"""

from fractions import Fraction

import numpy as np
import pytest

import moebius_kit as mk


def lattice_walk(n: int, dim: int, seed: int) -> list[tuple[int, ...]]:
    """A seeded self-avoiding closed unit-step walk of n (even, >= 4) vertices.

    Grown from the unit square by U-shaped detours: the edge v_i -> v_{i+1}
    with direction u becomes v_i -> v_i + p -> v_{i+1} + p -> v_{i+1} for an
    axis direction p perpendicular to u, whenever both new points are free.
    Distinct lattice vertices suffice for self-avoidance: two unit lattice
    segments can only meet at a lattice point, which is a vertex.
    """
    rng = np.random.default_rng(seed)
    zero = (0,) * (dim - 2)
    walk = [(0, 0, *zero), (1, 0, *zero), (1, 1, *zero), (0, 1, *zero)]
    axes = [tuple(s * int(k == axis) for k in range(dim)) for axis in range(dim) for s in (1, -1)]
    while len(walk) < n:
        i = int(rng.integers(len(walk)))
        a, b = walk[i], walk[(i + 1) % len(walk)]
        p = axes[int(rng.integers(len(axes)))]
        if any(x != y and q != 0 for x, y, q in zip(a, b, p)):
            continue    # p is parallel to the edge
        new = [tuple(x + q for x, q in zip(v, p)) for v in (a, b)]
        if not set(new) & set(walk):
            walk[i + 1:i + 1] = new
    return walk


def squared(x) -> int:
    return sum(c * c for c in x)


def exact_energy(walk) -> Fraction:
    """E_n = sum over ordered non-consecutive pairs of 1/|v_i - v_j|^2 - 1/min(k, n - k)^2."""
    n = len(walk)
    total = Fraction(0)
    for i in range(n):
        for j in range(n):
            k = min((j - i) % n, (i - j) % n)
            if k >= 2:
                total += Fraction(1, squared(a - b for a, b in zip(walk[i], walk[j]))) - Fraction(1, k * k)
    return total


def exact_potential(walk) -> Fraction:
    """Sum over ordered segment pairs sharing no vertex of 1 / dist^2.

    Each unit segment is an axis-aligned box, so the squared distance of two
    of them is the integer sum over axes of the squared gap between their
    coordinate intervals.
    """
    n = len(walk)
    boxes = [[(min(a, b), max(a, b)) for a, b in zip(walk[i], walk[(i + 1) % n])] for i in range(n)]
    total = Fraction(0)
    for i in range(n):
        for j in range(n):
            if 2 <= (j - i) % n <= n - 2:
                gaps = (max(0, lo2 - hi1, lo1 - hi2) for (lo1, hi1), (lo2, hi2) in zip(boxes[i], boxes[j]))
                total += Fraction(1, sum(g * g for g in gaps))
    return total


def exact_chord_gradient(walk) -> list[list[Fraction]]:
    """Gradient of the chord part C = sum l_i l_j / |v_i - v_j|^2 at the walk, all l = 1.

    Over ordered non-consecutive pairs: dC/dv_m = -4 sum_j (v_m - v_j) / |v_m - v_j|^4,
    plus the chain rule through the edge lengths, dC/dl_k = 2 sum_j 1 / |v_k - v_j|^2,
    with dl_k/dv_m = -u_k at m = k and u_k at m = k + 1 for the integer unit edges u.
    """
    n, dim = len(walk), len(walk[0])
    diff = [[[a - b for a, b in zip(walk[i], walk[j])] for j in range(n)] for i in range(n)]
    near = [[min((j - i) % n, (i - j) % n) < 2 for j in range(n)] for i in range(n)]
    pull = [2 * sum(Fraction(1, squared(diff[k][j])) for j in range(n) if not near[k][j]) for k in range(n)]
    grad = []
    for m in range(n):
        g = [-4 * sum(Fraction(diff[m][j][c], squared(diff[m][j]) ** 2) for j in range(n) if not near[m][j])
             for c in range(dim)]
        u_prev, u = diff[m][m - 1], diff[(m + 1) % n][m]      # v_m - v_{m-1} and v_{m+1} - v_m
        grad.append([g[c] + pull[m - 1] * u_prev[c] - pull[m] * u[c] for c in range(dim)])
    return grad


WALKS = [(n, dim, seed) for n in (8, 16, 32, 64) for dim in (2, 3) for seed in (0, 1)]


@pytest.mark.parametrize("n, dim, seed", WALKS)
def test_walk_is_a_closed_equilateral_lattice_polygon(n, dim, seed):
    walk = lattice_walk(n, dim, seed)
    assert len(walk) == n and len(set(walk)) == n
    assert all(squared(a - b for a, b in zip(walk[i], walk[i - 1])) == 1 for i in range(n))


@pytest.mark.parametrize("n, dim, seed", WALKS)
def test_discrete_energy_matches_exact_value(n, dim, seed):
    walk = lattice_walk(n, dim, seed)
    exact = exact_energy(walk)
    got = mk.discrete_moebius_energy(mk.ClosedPolygon(walk)).value
    assert got == pytest.approx(float(exact), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n, dim, seed", WALKS)
def test_mindist_potential_matches_exact_value(n, dim, seed):
    walk = lattice_walk(n, dim, seed)
    exact = exact_potential(walk)
    rep = mk.minimum_distance_energy(mk.ClosedPolygon(walk))
    assert rep.diagnostics["potential"] == pytest.approx(float(exact), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n, dim, seed", WALKS)
def test_gradient_matches_exact_chord_gradient(n, dim, seed):
    walk = lattice_walk(n, dim, seed)
    exact = np.array([[float(x) for x in row] for row in exact_chord_gradient(walk)])
    got = mk.energy_gradient(mk.ClosedPolygon(walk))
    assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()
