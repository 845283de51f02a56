"""Exact rational oracles on lattice polygons.

A self-avoiding closed walk of unit steps on Z^2 or Z^3 is an equilateral
polygon with integer vertices, so its discrete energy, the gradient of the
energy's chord part and its minimum distance potential are rational
numbers, computed here with ``fractions`` alone.  The walks are full of
exactly parallel segment pairs, so the potential checks the parallel
branch of the segment-distance kernel against an exact answer; seeded
integer pairs of parallel segments check that branch on its own.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import moebius_kit as mk
from moebius_kit import energies


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


def parallel_segment_pairs(dim: int, count: int, seed: int):
    """Seeded integer segment pairs (p1, d1, p2, d2), the segments p + s d, s in [0, 1], with d1 || d2.

    d1 = m1 u and d2 = m2 u for an integer direction u, m1 > 0 and m2 != 0
    (anti-parallel for m2 < 0).  p2 - p1 is j u, collinear, or j u plus an
    integer vector that is mostly off the line.
    """
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        u = [rng.randint(-3, 3) for _ in range(dim)]
        if not any(u):
            continue
        m1, m2, j = rng.randint(1, 4), rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(-8, 8)
        off = [rng.randint(-2, 2) for _ in range(dim)] if rng.random() < 0.5 else [0] * dim
        p1 = [rng.randint(-20, 20) for _ in range(dim)]
        pairs.append((p1, [m1 * c for c in u], [x + j * c + o for x, c, o in zip(p1, u, off)], [m2 * c for c in u]))
    return pairs


def exact_parallel_distance2(p1, d1, p2, d2) -> Fraction:
    """Squared distance of two parallel segments: the least of the four endpoint-to-segment distances."""
    def to_segment(x, p, d):
        t = min(max(Fraction(sum((a - b) * c for a, b, c in zip(x, p, d)), squared(d)), Fraction(0)), Fraction(1))
        return squared(a - b - t * c for a, b, c in zip(x, p, d))

    q1, q2 = ([a + b for a, b in zip(p, d)] for p, d in ((p1, d1), (p2, d2)))
    return min(to_segment(p1, p2, d2), to_segment(q1, p2, d2), to_segment(p2, p1, d1), to_segment(q2, p1, d1))


@pytest.mark.parametrize("dim", [2, 3])
def test_parallel_segment_distances_match_exact_values(dim):
    pairs = parallel_segment_pairs(dim, 3000, seed=dim)
    exact = [exact_parallel_distance2(*pair) for pair in pairs]
    r = [[a - b for a, b in zip(p1, p2)] for p1, _, p2, _ in pairs]
    collinear = [not any(u[i] * x[k] - u[k] * x[i] for i in range(dim) for k in range(i))
                 for x, (_, u, _, _) in zip(r, pairs)]
    kinds = {
        "collinear overlapping": sum(c and d == 0 for c, d in zip(collinear, exact)),
        "collinear disjoint": sum(c and d > 0 for c, d in zip(collinear, exact)),
        "offset": collinear.count(False),
        "anti-parallel": sum(sum(x * y for x, y in zip(d1, d2)) < 0 for _, d1, _, d2 in pairs),
    }
    assert min(kinds.values()) >= 300, kinds
    r, d1, d2 = (np.array(x, dtype=float).T for x in (r, [p[1] for p in pairs], [p[3] for p in pairs]))
    a, e = (np.einsum("ij,ij->j", d, d) for d in (d1, d2))
    scale = np.einsum("ij,ij->j", r, r) + a + e
    got = energies._squared_segment_distances(r, d1, d2, a, e)
    assert np.all(np.abs(got - np.array([float(x) for x in exact])) <= 1e-14 * scale)
