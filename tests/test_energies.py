import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moebius_kit as mk
from moebius_kit import energies
from moebius_kit.errors import DoublePointError, InputError, NotEmbeddedError


def rotation_3d(angle, axis):
    axis = np.asarray(axis, dtype=float)
    axis /= np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


def discrete_energy_reference(vertices, scheme="forward"):
    """E_n and its ordered-pair terms, written from the definition apart from the library.

    The term of i != j is w_i w_j (1/|v_i - v_j|^2 - 1/d(a_i, a_j)^2); a
    consecutive pair contributes exactly 0 (its chord is the arc) and is
    left out.  Each row is summed with ``math.fsum``, and so are the rows.
    """
    v = [[float(x) for x in vertex] for vertex in vertices]
    n = len(v)
    ell = [math.dist(v[(i + 1) % n], v[i]) for i in range(n)]
    L = math.fsum(ell)
    a = [math.fsum(ell[:i]) for i in range(n)]
    w = [min(length, L - length) for length in ell]
    if scheme == "averaged":
        w = [0.5 * (w[i - 1] + w[i]) for i in range(n)]
    rows, terms = [], []
    for i in range(n):
        row = []
        for j in range(n):
            if min((j - i) % n, (i - j) % n) < 2:
                continue
            arc = min(abs(a[j] - a[i]), L - abs(a[j] - a[i]))
            row.append(w[i] * w[j] * (1.0 / math.dist(v[i], v[j]) ** 2 - 1.0 / arc**2))
        rows.append(math.fsum(row))
        terms.extend(row)
    return math.fsum(rows), terms


class TestDiscreteEnergy:
    def test_any_triangle_is_zero(self):
        tri = mk.ClosedPolygon([[0.0, 0.0], [1.1, 0.2], [0.3, 0.9]])
        assert mk.discrete_moebius_energy(tri).value == 0.0

    def test_square(self):
        assert mk.discrete_moebius_energy(mk.regular_ngon(4, 1.0)).value == pytest.approx(
            1.0, abs=1e-12
        )

    def test_hexagon(self):
        assert mk.discrete_moebius_energy(mk.regular_ngon(6, 1.0)).value == pytest.approx(
            11.0 / 6.0, abs=1e-12
        )

    def test_double_point_detected(self):
        p = mk.ClosedPolygon([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0 + 1e-15], [-1.0, 0.0]])
        with pytest.raises(DoublePointError) as err:
            mk.discrete_moebius_energy(p)
        assert err.value.pair == (0, 2)

    def test_report_resummation_and_nonnegativity(self):
        p = mk.random_equilateral_polygon(17, dim=3, seed=3)
        # the weight schemes differ only off the equilateral class
        moved = mk.ClosedPolygon(p.vertices + 0.05 * np.random.default_rng(3).standard_normal((17, 3)))
        for polygon in (p, moved):
            for scheme in ("forward", "averaged"):
                rep = mk.discrete_moebius_energy(polygon, scheme=scheme)
                value, terms = discrete_energy_reference(polygon.vertices, scheme)
                assert rep.value == pytest.approx(value, rel=1e-12)
                assert rep.term_count == 17 * 16
                assert min(terms) >= -1e-15 * max(map(abs, terms))
                assert rep.diagnostics["smallest_chord"] > 0

    def test_weight_schemes_agree_on_equilateral(self):
        sq = mk.ClosedPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        fw = mk.discrete_moebius_energy(sq, scheme="forward").value
        av = mk.discrete_moebius_energy(sq, scheme="averaged").value
        assert fw == av  # bitwise: every edge length is exactly 1.0
        p = mk.random_equilateral_polygon(10, dim=3, seed=5)
        fw = mk.discrete_moebius_energy(p, scheme="forward").value
        av = mk.discrete_moebius_energy(p, scheme="averaged").value
        assert fw == pytest.approx(av, rel=1e-11)

    def test_weight_schemes_differ_on_general_polygons(self):
        rect = mk.ClosedPolygon([[0, 0], [0.3, 0], [0.3, 0.2], [0, 0.2]])
        fw = mk.discrete_moebius_energy(rect, scheme="forward").value
        av = mk.discrete_moebius_energy(rect, scheme="averaged").value
        assert fw != av

    def test_unknown_weight_scheme_is_an_input_error(self):
        sq = mk.ClosedPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(InputError, match="forward"):
            mk.discrete_moebius_energy(sq, scheme="bogus")


def with_edge_deviation(p, deviation, seed):
    """p moved by seeded vertex noise scaled so that its max_edge_deviation is ``deviation`` to ~1e-6."""
    noise = np.random.default_rng(seed).standard_normal(p.vertices.shape) * (p.total_length / p.n)
    probe = mk.ClosedPolygon(p.vertices + 1e-6 * noise).equilaterality().max_edge_deviation
    return mk.ClosedPolygon(p.vertices + (1e-6 * deviation / probe) * noise)


class TestArcForms:
    """The separation form of the arc part against the definition, on both sides of its 1e-8 bound."""

    @pytest.mark.parametrize("scheme", ["forward", "averaged"])
    @pytest.mark.parametrize("deviation, arc", [(0.0, "separation"), (1e-9, "separation"),
                                                (0.999e-8, "separation"), (1.001e-8, "parameters")])
    @pytest.mark.parametrize("n", [8, 9, 16, 64])
    def test_matches_reference_across_the_bound(self, n, deviation, arc, scheme):
        # even n has the antipodal ties, where d(a_i, a_j) has a kink: taken from
        # the separation there, the value would be off at first order in the deviation
        for p in (mk.regular_ngon(n, float(n), dim=3), mk.random_equilateral_polygon(n, dim=3, seed=n)):
            q = with_edge_deviation(p, deviation, n) if deviation else p
            # the sampler closes its polygons to an edge deviation of 1e-12
            assert q.equilaterality().max_edge_deviation == pytest.approx(deviation, rel=1e-3, abs=1e-12)
            rep = mk.discrete_moebius_energy(q, scheme=scheme)
            value, _ = discrete_energy_reference(q.vertices, scheme)
            assert rep.diagnostics["arc"] == arc
            assert rep.value == pytest.approx(value, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n, seed", [(8, 0), (9, 1), (32, 2), (64, 3)])
    def test_retracted_descent_trial_matches_reference(self, n, seed):
        p = mk.random_equilateral_polygon(n, dim=3, seed=seed)
        x = mk.sobolev_direction(p, mk.energy_gradient(p))
        for step in (1e-3, 1e-1):
            trial = mk.project_equilateral_closed(p.vertices - step * x, p.total_length / n)
            for scheme in ("forward", "averaged"):
                rep = mk.discrete_moebius_energy(trial, scheme=scheme)
                assert rep.diagnostics["arc"] == "separation"
                value, _ = discrete_energy_reference(trial.vertices, scheme)
                assert rep.value == pytest.approx(value, rel=1e-13, abs=0.0)


class TestRegularNgonOracle:
    def test_square_hexagon_triangle(self):
        assert mk.regular_ngon_energy(4) == pytest.approx(1.0, abs=1e-12)
        assert mk.regular_ngon_energy(3) == 0.0
        assert mk.regular_ngon_energy(6) == pytest.approx(11.0 / 6.0, abs=1e-12)

    def test_matches_discrete_energy(self):
        for n in range(3, 257):
            direct = mk.discrete_moebius_energy(mk.regular_ngon(n, 1.0)).value
            oracle = mk.regular_ngon_energy(n)
            assert direct == pytest.approx(oracle, rel=1e-10), f"n={n}"

    def test_monotone_and_bounded(self):
        values = [mk.regular_ngon_energy(n) for n in range(3, 1025)]
        diffs = np.diff(values)
        assert np.all(diffs > 0)          # empirical, not theorem-backed
        assert values[-1] < 4.0


def segment_distance_reference(p1, q1, p2, q2) -> np.ndarray:
    """Pairwise distances between segments [p1, q1] and [p2, q2], points-last (..., dim).

    The closest points of Ericson's clamped solution, differenced as
    (p1 + s d1) - (p2 + t d2): an independent formula for the library's
    coordinate-first kernel.
    """
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = np.einsum("...k,...k->...", d1, d1)
    e = np.einsum("...k,...k->...", d2, d2)
    b = np.einsum("...k,...k->...", d1, d2)
    c = np.einsum("...k,...k->...", d1, r)
    f = np.einsum("...k,...k->...", d2, r)
    denom = a * e - b * b
    s = np.where(denom > 0.0, np.clip((b * f - c * e) / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0), 0.0)
    t = (b * s + f) / e
    t_low = t < 0.0
    t_high = t > 1.0
    s = np.where(t_low, np.clip(-c / a, 0.0, 1.0), s)
    s = np.where(t_high, np.clip((b - c) / a, 0.0, 1.0), s)
    t = np.clip(t, 0.0, 1.0)
    closest1 = p1 + s[..., None] * d1
    closest2 = p2 + t[..., None] * d2
    return np.linalg.norm(closest1 - closest2, axis=-1)


class TestSegmentDistance:
    def test_kernel_matches_reference_on_random_pairs(self):
        rng = np.random.default_rng(20261018)
        p1, q1, p2, q2 = rng.standard_normal((4, 10_000, 3))
        d1, d2 = (q1 - p1).T, (q2 - p2).T
        dist2 = energies._squared_segment_distances(
            (p1 - p2).T.copy(), d1, d2, np.einsum("ij,ij->j", d1, d1), np.einsum("ij,ij->j", d2, d2)
        )
        np.testing.assert_allclose(np.sqrt(dist2), segment_distance_reference(p1, q1, p2, q2),
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("case, seg_a, seg_b, expected", [
        ("parallel", ([0, 0, 0], [1, 0, 0]), ([0.5, 1, 0], [2, 1, 0]), 1.0),
        ("anti-parallel", ([0, 0, 0], [1, 0, 0]), ([2, 1, 0], [0.5, 1, 0]), 1.0),
        ("parallel apart", ([0, 0, 0], [1, 0, 0]), ([3, 0, 4], [5, 0, 4]), math.sqrt(20.0)),
        ("collinear overlapping", ([0, 0, 0], [2, 0, 0]), ([1, 0, 0], [3, 0, 0]), 0.0),
        ("collinear apart", ([0, 0], [1, 0]), ([3, 0], [4, 0]), 2.0),
        ("touching at an endpoint", ([0, 0, 0], [1, 0, 0]), ([1, 0, 0], [1, 1, 0]), 0.0),
        ("endpoint on the interior", ([0, 0], [2, 0]), ([1, 0], [1, 3]), 0.0),
        ("crossing", ([0, -1], [0, 1]), ([-1, 0], [1, 0]), 0.0),
        ("crossing 3-D", ([-1, -1, 0], [1, 1, 0]), ([-1, 1, 0], [1, -1, 0]), 0.0),
        ("nearly parallel", ([0, 0, 0], [1, 0, 0]), ([0, 0.5, 1], [1, 0.5 + 1e-6, 1]), math.sqrt(1.25)),
        ("nearly parallel, other end", ([0, 0, 0], [1, 0, 0]), ([0, 0.5 + 1e-6, 1], [1, 0.5, 1]),
         math.sqrt(1.25)),
    ])
    def test_exact_cases(self, case, seg_a, seg_b, expected):
        got = mk.segment_distance(seg_a, seg_b)
        ref = float(segment_distance_reference(*(np.asarray(x, dtype=float) for x in (*seg_a, *seg_b))))
        if expected == 0.0:
            assert got == 0.0 and ref == 0.0
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("tilt", [1e-8, 1e-10])
    @pytest.mark.parametrize("tilted", ["start", "end"])
    @pytest.mark.parametrize("swap", [False, True], ids=["a-b", "b-a"])
    def test_nearly_parallel_below_working_precision(self, tilt, tilted, swap):
        # a e - b^2 rounds to 0 at these tilts; the closest pair is at the
        # untilted end, at distance sqrt(1.25).  The reference formula above
        # shares the clamped steps' shortfall, so it is no oracle here.
        y = [0.5 + tilt, 0.5] if tilted == "start" else [0.5, 0.5 + tilt]
        seg_a, seg_b = ([0, 0, 0], [1, 0, 0]), ([0, y[0], 1], [1, y[1], 1])
        got = mk.segment_distance(*((seg_b, seg_a) if swap else (seg_a, seg_b)))
        assert got == pytest.approx(math.sqrt(1.25), rel=1e-12, abs=0.0)

    def test_parallel_offset(self):
        d = mk.segment_distance(([0, 0, 0], [1, 0, 0]), ([0, 1, 0], [1, 1, 0]))
        assert d == pytest.approx(1.0, abs=1e-15)

    def test_crossing(self):
        d = mk.segment_distance(([0, -1], [0, 1]), ([-1, 0], [1, 0]))
        assert d == 0.0

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7, 1e-9])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_nearly_parallel_crossing(self, eps, dim):
        # a e - b^2 = 4 eps^2 rounds to 0 below eps ~ 1e-8; the crossing is at x = 1/2
        pad = [0.0] * (dim - 2)
        seg_a = ([0.0, 0.0, *pad], [1.0, 0.0, *pad])
        seg_b = ([0.0, -eps, *pad], [1.0, eps, *pad])
        assert mk.segment_distance(seg_a, seg_b) == 0.0
        assert mk.segment_distance(seg_b, seg_a) == 0.0

    def test_skew_vs_brute_force(self):
        a0, a1 = np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])
        b0, b1 = np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.5, 1.0])
        got = mk.segment_distance((a0, a1), (b0, b1))
        t = np.linspace(0.0, 1.0, 1000)
        pa = a0 + t[:, None] * (a1 - a0)
        pb = b0 + t[:, None] * (b1 - b0)
        brute = np.min(np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2))
        assert got == pytest.approx(brute, abs=1e-6)

    def test_zero_length_rejected(self):
        with pytest.raises(InputError):
            mk.segment_distance(([0, 0], [0, 0]), ([1, 0], [2, 0]))


class TestMinimumDistanceEnergy:
    def test_square_potential_and_value(self):
        rep = mk.minimum_distance_energy(mk.regular_ngon(4, 7.3))
        assert rep.diagnostics["potential"] == pytest.approx(4.0, abs=1e-12)
        assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_rectangle(self):
        rect = mk.ClosedPolygon([[0, 0], [0.3, 0], [0.3, 0.2], [0, 0.2]])
        rep = mk.minimum_distance_energy(rect)
        assert rep.diagnostics["potential"] == pytest.approx(
            2 * (0.09 / 0.04) + 2 * (0.04 / 0.09), abs=1e-12
        )
        assert rep.value == pytest.approx(2 * (0.09 / 0.04) + 2 * (0.04 / 0.09) - 4.0, abs=1e-9)

    @pytest.mark.parametrize("n", [4, 5, 7, 12])
    def test_regular_ngon_value_zero(self, n):
        assert mk.minimum_distance_energy(mk.regular_ngon(n, 2.0)).value == pytest.approx(
            0.0, abs=1e-10
        )

    @pytest.mark.parametrize("n", range(4, 41))
    def test_regular_reference_closed_form(self, n):
        # every pair (i, i + k) of the regular n-gon by the reference formula
        # against ref_k = (sin(pi/n) / sin((min(k, n - k) - 1) pi/n))^2
        v = mk.regular_ngon(n, 1.0).vertices
        ends = np.roll(v, -1, axis=0)
        lengths = np.linalg.norm(ends - v, axis=1)
        k = np.arange(2, n - 1)[:, None]
        i, j = np.broadcast_arrays(np.arange(n), (np.arange(n) + k) % n)
        brute = lengths[i] * lengths[j] / segment_distance_reference(v[i], ends[i], v[j], ends[j]) ** 2
        closed = (math.sin(math.pi / n) / np.sin((np.minimum(k, n - k) - 1) * (math.pi / n))) ** 2
        np.testing.assert_allclose(brute, np.broadcast_to(closed, brute.shape), rtol=1e-13, atol=0.0)
        rep = mk.minimum_distance_energy(mk.regular_ngon(n, 1.0))
        assert rep.diagnostics["regular_ngon_potential"] == pytest.approx(math.fsum(brute.ravel()),
                                                                          rel=1e-13, abs=0.0)

    def test_triangle_vacuous(self):
        rep = mk.minimum_distance_energy(mk.regular_ngon(3, 1.0))
        assert rep.value == 0.0
        assert rep.diagnostics.get("vacuous_sum") is True

    @staticmethod
    def check_against_brute_force(p):
        # every ordered non-adjacent pair, distances by the reference formula
        n = p.n

        def pair_terms(vertices):
            segs = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
            lengths = [np.linalg.norm(b - a) for a, b in segs]
            return {
                (i, j): lengths[i] * lengths[j] / float(segment_distance_reference(*segs[i], *segs[j])) ** 2
                for i in range(n)
                for j in range(n)
                if min((j - i) % n, (i - j) % n) >= 2
            }

        radius = p.total_length / (2 * n * math.sin(math.pi / n))
        angles = 2 * math.pi * np.arange(n) / n
        regular = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        raw, ref = pair_terms(p.vertices), pair_terms(regular)
        rep = mk.minimum_distance_energy(p)
        assert rep.diagnostics["potential"] == pytest.approx(math.fsum(raw.values()), rel=1e-12)
        assert rep.diagnostics["regular_ngon_potential"] == pytest.approx(
            math.fsum(ref.values()), rel=1e-12
        )
        assert rep.value == pytest.approx(
            math.fsum(raw.values()) - math.fsum(ref.values()), rel=1e-12
        )
        assert rep.term_count == len(raw)

    @pytest.mark.parametrize("n", [4, 5, 9, 10])
    def test_random_polygon_against_brute_force(self, n):
        # even n exercises separation n / 2, counted once in the uniform batches
        self.check_against_brute_force(mk.random_equilateral_polygon(n, dim=3, seed=4))

    @pytest.mark.parametrize("n", [9, 10])
    def test_perturbed_convex_polygon_against_brute_force(self, n):
        # planar: a regular n-gon with every vertex moved by up to 2 % of the
        # circumradius stays convex, so no pair touches
        g = mk.regular_ngon(n, 1.0, dim=2)
        radius = 1.0 / (2 * n * math.sin(math.pi / n))
        shift = 0.02 * radius * np.random.default_rng(n).uniform(-1.0, 1.0, (n, 2))
        self.check_against_brute_force(mk.ClosedPolygon(g.vertices + shift))

    def test_rectangle_against_brute_force(self):
        self.check_against_brute_force(mk.ClosedPolygon([[0, 0], [0.3, 0], [0.3, 0.2], [0, 0.2]]))

    def test_intersecting_segments_rejected(self):
        bowtie = mk.ClosedPolygon([[0, 0], [1, 1], [1, 0], [0, 1]])
        with pytest.raises(DoublePointError) as err:
            mk.minimum_distance_energy(bowtie)
        assert err.value.pair == (0, 2)

    def test_nearly_parallel_crossing_rejected(self):
        # edge 3 crosses edge 0 at (1/2, 0) at an angle of 2.8e-9: a e - b^2
        # rounds to 0 there, yet the pair must not count as 1e-9 apart
        eps = 1.4e-9
        p = mk.ClosedPolygon([[0, 0], [1, 0], [1, -1], [1.2, eps], [-0.2, -eps], [-0.2, 1]])
        with pytest.raises(DoublePointError) as err:
            mk.minimum_distance_energy(p)
        assert err.value.pair == (0, 3)

    def test_double_point_ties_report_smallest_pair(self):
        # vertex 0 lies on segment 4 and vertex 2 on segment 3, so the pairs
        # (0, 4) and (1, 3) are both at distance exactly 0; the pass at
        # separation 2 meets (1, 3) before the wrapped pair (0, 4)
        touching = mk.ClosedPolygon([[0, 2], [1, 3], [3, 3], [4, 4], [0, 0], [0, 3]])
        with pytest.raises(DoublePointError) as err:
            mk.minimum_distance_energy(touching)
        assert err.value.pair == (0, 4)

    @pytest.mark.parametrize("n", [11, 12])
    @pytest.mark.parametrize("block_pairs", [1, 8 * 3 * 12 + 5])
    def test_separation_batches_do_not_change_results(self, monkeypatch, n, block_pairs):
        # one separation per batch, or three with a ragged last batch
        p = mk.random_equilateral_polygon(n, dim=3, seed=8)
        whole = mk.minimum_distance_energy(p)
        monkeypatch.setattr(energies, "BLOCK_PAIRS", block_pairs)
        rep = mk.minimum_distance_energy(p)
        assert rep.value == whole.value
        assert rep.diagnostics == whole.diagnostics

    @pytest.mark.parametrize("n, seed", [(64, 0), (64, 1), (64, 2), (256, 258)])
    def test_crossing_polygon_reports_smallest_pair(self, n, seed):
        # random planar polygons cross themselves at many pairs, at distance
        # 0 or roundoff; the smallest (i, j) under 1e-12 L is reported
        p = mk.random_equilateral_polygon(n, dim=2, seed=seed)
        v, ends = p.vertices, np.roll(p.vertices, -1, axis=0)
        i, j = np.triu_indices(n, 2)
        keep = j - i < n - 1
        i, j = i[keep], j[keep]
        close = segment_distance_reference(v[i], ends[i], v[j], ends[j]) < 1e-12 * p.total_length
        with pytest.raises(DoublePointError) as err:
            mk.minimum_distance_energy(p)
        assert err.value.pair == (int(i[close][0]), int(j[close][0]))
        if (n, seed) == (256, 258):
            # (6, 93) and (10, 73) lie at 0 or ~1e-16, and which of them is
            # closer is roundoff; (1, 81) is under 1e-12 L as well
            assert err.value.pair == (1, 81)

    @pytest.mark.parametrize("block_pairs", [1, 1 << 16])
    def test_double_point_ties_across_separation_batches(self, monkeypatch, block_pairs):
        # segments 2 and 4 (separation 2) and segments 1 and 6 (separation 3)
        # touch; (1, 6) is the smaller pair although its separation comes later
        touching = mk.ClosedPolygon(
            [[1, 3], [2, 3], [1, 2], [1, 0], [1, 1], [3, 1], [3, 3], [0, 2]]
        )
        monkeypatch.setattr(energies, "BLOCK_PAIRS", block_pairs)
        with pytest.raises(DoublePointError) as err:
            mk.minimum_distance_energy(touching)
        assert err.value.pair == (1, 6)


def smooth_energy_by_separation(curve, tol):
    """Diagnostics of the smooth quadrature summed one cyclic separation at a time.

    The same grids m = 128 .. 4096 and stopping rule as
    ``smooth_moebius_energy``, with each grid's trapezoid sum taken as one
    pass over the m nodes per separation k = 1 .. m / 2, against the circle
    reference (pi / L)^2 / sin^2(pi k / m) of that separation, and the
    diagonal kappa^2 / 12 - pi^2 / (3 L^2) from a per-node second
    derivative (inverse FFT, Nyquist mode zeroed).
    """
    L = curve.length
    estimates, evaluations, smallest, converged = [], 0, math.inf, False
    for m in (128, 256, 512, 1024, 2048, 4096):
        h = L / m
        P = curve.eval(np.arange(m) * h)
        wave = 2.0 * math.pi * np.fft.rfftfreq(m, h)
        spectrum = np.fft.rfft(P, axis=0) * -(wave**2)[:, None]
        spectrum[-1] = 0.0
        second = np.fft.irfft(spectrum, n=m, axis=0)
        total = float((np.einsum("ij,ij->i", second, second) / 12.0 - math.pi**2 / (3.0 * L**2)).sum())
        min_chord2 = math.inf
        for k in range(1, m // 2 + 1):
            d = np.roll(P, -k, axis=0) - P
            chord2 = np.einsum("ij,ij->i", d, d)
            min_chord2 = min(min_chord2, float(chord2.min()))
            ref = (math.pi / L) ** 2 / math.sin(math.pi * k / m) ** 2
            row = float((1.0 / chord2).sum()) - m * ref
            total += row if 2 * k == m else 2.0 * row
        evaluations += m * m
        smallest = min(smallest, math.sqrt(min_chord2))
        estimates.append(4.0 + h * h * total)
        if len(estimates) >= 2 and abs(estimates[-1] - estimates[-2]) < tol * max(1.0, abs(estimates[-1])):
            converged = True
            break
    return {"levels": len(estimates), "grid": m, "term_count": evaluations,
            "converged": converged, "last_estimates": estimates[-2:], "smallest_chord": smallest}


SMOOTH_CURVES = [
    (mk.ellipse(1.0, 0.6), 5.3678607397),
    (mk.ellipse(1.0, 0.3), 13.60314925),
    (mk.torus_knot(2, 3, 2.0, 1.0), 81.8408529852),
    (mk.torus_knot(2, 5, 2.0, 1.0), 179.5697711),
]
SMOOTH_IDS = ["ellipse_06", "ellipse_03", "trefoil", "knot_25"]
ROUNDED_PENTAGON = {"kind": "rounded_polygon",
                    "params": {"sides": 5, "circumradius": 1.0, "corner_radius": 0.2}}
ROUNDED_PENTAGON_ENERGY = 7.417201   # O(m^-2) extrapolation of the m = 2048, 4096 grids; E_n agrees


class TestSmoothEnergy:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", ["circle_2pi", "ellipse_08", "trefoil"])
    def test_pair_kernel_matches_separation_loop(self, request, name):
        curve = (mk.arclength_reparametrize(mk.ellipse(1.0, 0.8)) if name == "ellipse_08"
                 else request.getfixturevalue(name))
        rep = mk.smooth_moebius_energy(curve, tol=1e-8)
        ref = smooth_energy_by_separation(curve, tol=1e-8)
        for key in ("levels", "grid", "converged"):
            assert rep.diagnostics[key] == ref[key]
        assert rep.term_count == ref["term_count"]
        np.testing.assert_allclose(rep.diagnostics["last_estimates"], ref["last_estimates"],
                                   rtol=1e-10, atol=0.0)
        assert rep.diagnostics["smallest_chord"] == pytest.approx(ref["smallest_chord"], rel=1e-15)

    def test_coincident_nodes_are_not_embedded(self):
        class TwiceAroundCircle:
            """The unit circle traced twice: nodes half a length apart coincide."""

            length = 4.0 * math.pi

            def eval(self, s):
                s = np.asarray(s, dtype=float)
                return np.stack([np.cos(s), np.sin(s)], axis=1)

        with pytest.raises(NotEmbeddedError) as err:
            mk.smooth_moebius_energy(TwiceAroundCircle(), tol=1e-8)
        assert type(err.value) is NotEmbeddedError

    def test_coincident_consecutive_nodes_are_not_embedded(self):
        class StalledCircle:
            """A unit-length circle that rests at its start: the first two nodes coincide."""

            length = 1.0

            def eval(self, s):
                ang = 2.0 * math.pi * np.maximum(np.asarray(s, dtype=float), 1.5 / 256)
                return np.stack([np.cos(ang), np.sin(ang)], axis=1) / (2.0 * math.pi)

        with pytest.raises(NotEmbeddedError) as err:
            mk.smooth_moebius_energy(StalledCircle(), tol=1e-8)
        assert type(err.value) is NotEmbeddedError

    def test_non_finite_nodes_are_input_errors(self):
        class BrokenCircle:
            """A unit-length circle whose second half evaluates to NaN."""

            length = 1.0

            def eval(self, s):
                ang = 2.0 * math.pi * np.where(np.asarray(s, dtype=float) > 0.5, np.nan, s)
                return np.stack([np.cos(ang), np.sin(ang)], axis=1) / (2.0 * math.pi)

        with pytest.raises(InputError) as err:
            mk.smooth_moebius_energy(BrokenCircle(), tol=1e-8)
        assert not isinstance(err.value, NotEmbeddedError)

    def test_circle(self, circle_2pi):
        rep = mk.smooth_moebius_energy(circle_2pi, tol=1e-8)
        assert rep.diagnostics["converged"]
        assert rep.value == pytest.approx(4.0, abs=1e-6)

    def test_scale_invariance_radius_5(self):
        big = mk.arclength_reparametrize(mk.circle(radius=5.0), nodes=1024)
        rep = mk.smooth_moebius_energy(big, tol=1e-7)
        assert rep.value == pytest.approx(4.0, abs=1e-6)

    def test_ellipse_vs_brute_force(self):
        tol = 1e-6
        curve = mk.arclength_reparametrize(mk.ellipse(1.0, 0.8))
        rep = mk.smooth_moebius_energy(curve, tol=tol)

        # dense trapezoid sum at m = 4096 of 1/chord^2 - 1/d^2 itself, with
        # no circle reference, and the diagonal limit kappa^2 / 12 from
        # second differences; the kink of 1/d^2 at d = L/2 costs O(h^2)
        m = 4096
        L = curve.length
        step = L / m
        P = curve.eval(np.arange(m) * step)
        second = np.roll(P, -1, axis=0) - 2.0 * P + np.roll(P, 1, axis=0)
        kappa_sq = np.einsum("ij,ij->i", second, second) / step**4
        total = float(kappa_sq.sum()) / 12.0
        for k in range(1, m // 2 + 1):
            d = np.roll(P, -k, axis=0) - P
            chord2 = np.einsum("ij,ij->i", d, d)
            row = float((1.0 / chord2 - 1.0 / (k * step) ** 2).sum())
            total += row if 2 * k == m else 2.0 * row
        brute = total * step * step
        assert rep.value == pytest.approx(brute, abs=5 * tol)

    def test_tol_range_enforced(self, circle_2pi):
        for bad in (1e-11, 1e-2):
            with pytest.raises(InputError):
                mk.smooth_moebius_energy(circle_2pi, tol=bad)

    def test_unconverged_run_is_reported_not_raised(self):
        # the rounded pentagon is only C^{1,1}: its grids converge as m^-2
        # and still differ by 2.2e-6 at m = 4096
        rep = mk.smooth_moebius_energy(mk.load_curve(ROUNDED_PENTAGON), tol=1e-10)
        assert not rep.diagnostics["converged"]
        assert len(rep.diagnostics["last_estimates"]) == 2
        assert rep.value == pytest.approx(ROUNDED_PENTAGON_ENERGY, abs=5e-6)

    def test_circle_reads_4_at_tol_1e10(self, circle_2pi):
        rep = mk.smooth_moebius_energy(circle_2pi, tol=1e-10)
        assert rep.diagnostics["converged"] is True
        assert abs(rep.value - 4.0) < 1e-10

    # reference values from a dense m x m evaluation of the rule, stable across
    # m = 128 .. 2048; the ellipse (1, 0.3) to 10 digits (13.6031492 rounds it)
    @pytest.mark.parametrize("source, value", SMOOTH_CURVES, ids=SMOOTH_IDS)
    def test_smooth_curves_converge_spectrally(self, source, value):
        rep = mk.smooth_moebius_energy(mk.arclength_reparametrize(source), tol=1e-10)
        assert rep.diagnostics["converged"] is True
        assert rep.diagnostics["grid"] <= 1024
        assert rep.value == pytest.approx(value, rel=1e-9)

    @pytest.mark.parametrize("source, value", SMOOTH_CURVES, ids=SMOOTH_IDS)
    def test_matches_extrapolated_discrete_energies(self, source, value):
        # E_n = E - a/n - b/n^2 - ... on equilateral inscriptions: two
        # Richardson steps over n = 512, 1024, 2048 are a second route to E
        curve = mk.arclength_reparametrize(source)
        e = [mk.discrete_moebius_energy(mk.inscribe_equilateral(curve, n, tol=1e-10)[0]).value
             for n in (512, 1024, 2048)]
        first = [2.0 * b - a for a, b in zip(e, e[1:])]
        extrapolated = (4.0 * first[1] - first[0]) / 3.0
        quadrature = mk.smooth_moebius_energy(curve, tol=1e-10).value
        assert extrapolated == pytest.approx(quadrature, rel=1e-6)


class TestMoebiusInversion:
    def test_circle_energy_preserved(self, circle_2pi):
        tol = 1e-7
        inverted = mk.moebius_inversion(circle_2pi, center=(3.0, 0.0), radius=1.0)
        curve = mk.arclength_reparametrize(inverted, nodes=4096)
        rep = mk.smooth_moebius_energy(curve, tol=tol)
        assert rep.value == pytest.approx(4.0, abs=2 * tol * 4.0)

    def test_polygon_rejected(self):
        # inverting the vertices does not preserve the discrete energy
        p = mk.random_equilateral_polygon(9, dim=3, seed=2)
        with pytest.raises(InputError, match="cannot invert ClosedPolygon"):
            mk.moebius_inversion(p, (5.0, 1.0, -2.0), 2.0)

    def test_parametric_curve_rejected(self):
        # only arc-length curves are inverted; reparametrize a raw curve first
        with pytest.raises(InputError, match="cannot invert ParametricCurve"):
            mk.moebius_inversion(mk.ellipse(1.0, 0.6), (3.0, 0.0), 1.0)

    def test_center_on_curve_rejected(self, circle_2pi):
        with pytest.raises(InputError):
            mk.moebius_inversion(circle_2pi, center=(1.0, 0.0), radius=1.0)


class TestInvariances:
    @pytest.mark.parametrize("lam", [0.1, 1.0, 17.0])
    def test_scale_invariance_discrete_and_mindist(self, lam):
        p = mk.random_equilateral_polygon(14, dim=3, seed=8)
        scaled = p.scaled(lam)
        e0 = mk.discrete_moebius_energy(p).value
        assert mk.discrete_moebius_energy(scaled).value == pytest.approx(e0, rel=1e-10)
        m0 = mk.minimum_distance_energy(p).value
        assert mk.minimum_distance_energy(scaled).value == pytest.approx(m0, rel=1e-10, abs=1e-10)

    def test_rigid_motion_invariance(self):
        p = mk.random_equilateral_polygon(11, dim=3, seed=9)
        R = rotation_3d(0.83, [1.0, 2.0, 0.5])
        moved = mk.ClosedPolygon(p.vertices @ R.T + np.array([0.4, -1.0, 2.2]))
        assert mk.discrete_moebius_energy(moved).value == pytest.approx(
            mk.discrete_moebius_energy(p).value, rel=1e-10
        )
        assert mk.minimum_distance_energy(moved).value == pytest.approx(
            mk.minimum_distance_energy(p).value, rel=1e-10, abs=1e-10
        )

    def test_relabeling_invariance(self):
        p = mk.random_equilateral_polygon(13, dim=3, seed=10)
        e0 = mk.discrete_moebius_energy(p).value
        shifted = mk.ClosedPolygon(np.roll(p.vertices, 5, axis=0))
        reversed_ = mk.ClosedPolygon(p.vertices[::-1].copy())
        assert mk.discrete_moebius_energy(shifted).value == pytest.approx(e0, rel=1e-12)
        assert mk.discrete_moebius_energy(reversed_).value == pytest.approx(e0, rel=1e-12)

    def test_smooth_scale_invariance(self):
        tol = 1e-7
        base = mk.smooth_moebius_energy(
            mk.arclength_reparametrize(mk.ellipse(1.0, 0.7), nodes=2048), tol=tol
        ).value
        scaled = mk.smooth_moebius_energy(
            mk.arclength_reparametrize(mk.ellipse(17.0, 11.9), nodes=2048), tol=tol
        ).value
        assert scaled == pytest.approx(base, abs=1e-10 * max(1.0, base) + 2e-12)


class TestMinimalitySample:
    def test_random_polygons_above_regular(self):
        # small sample here; the 500-polygon sweep runs in the acceptance suite
        for n in (5, 8, 12, 24):
            floor = mk.regular_ngon_energy(n)
            for seed in range(5):
                p = mk.random_equilateral_polygon(n, dim=3, seed=seed)
                assert mk.discrete_moebius_energy(p).value >= floor - 1e-9

    def test_claim_needs_the_equilateral_class(self):
        # the unit triangle with each corner cut by a short edge: edges
        # (0.01, 0.98) x 3.  Off the equilateral class E_6 falls far below
        # the regular hexagon's 11/6, under either weight scheme
        eps = 1e-2
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
        cut = [x for a, b in zip(corners, np.roll(corners, -1, axis=0))
               for x in (a + eps * (b - a), b - eps * (b - a))]
        p = mk.ClosedPolygon(cut)
        np.testing.assert_allclose(p.edge_lengths, [0.98, 0.01] * 3, rtol=1e-12)
        for scheme, value in (("forward", 0.0606), ("averaged", 0.0601)):
            energy = mk.discrete_moebius_energy(p, scheme=scheme).value
            assert energy == pytest.approx(value, abs=1e-4)
            assert energy < mk.regular_ngon_energy(6)


# (n, dim, seed) of a random equilateral polygon
random_polygons = st.tuples(st.integers(3, 32), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))


def _energy(vertices) -> float:
    return mk.discrete_moebius_energy(mk.ClosedPolygon(vertices)).value


class TestInvarianceProperties:
    """The paper's invariances and the regular n-gon bound over random equilateral polygons."""

    @settings(deadline=None)
    @given(random_polygons, st.floats(1e-3, 1e3))
    def test_scale_invariance(self, spec, lam):
        p = mk.random_equilateral_polygon(*spec)
        assert _energy(p.scaled(lam).vertices) == pytest.approx(_energy(p.vertices), rel=1e-10, abs=1e-12)

    @settings(deadline=None)
    @given(random_polygons, st.integers(0, 2**32 - 1))
    @example(spec=(10, 2, 240543), motion_seed=1)   # chord 4e-6 of L = 10: the rounding moves E by 1.4e-10
    def test_rigid_motion_invariance(self, spec, motion_seed):
        p = mk.random_equilateral_polygon(*spec)
        rng = np.random.default_rng(motion_seed)
        R, _ = np.linalg.qr(rng.standard_normal((p.dim, p.dim)))
        if np.linalg.det(R) < 0.0:
            R[:, 0] *= -1.0
        t = 10.0 * rng.standard_normal(p.dim)
        moved = p.vertices @ R.T + t
        # moved is the exact image of p plus the motion's rounding r; near a double point E feels r,
        # so take off its first-order effect grad E . r, with r computed in exact arithmetic
        exact = [[sum(map(lambda x, c: Fraction(x) * Fraction(c), v, row), Fraction(s)) for row, s in zip(R, t)]
                 for v in p.vertices]
        r = np.array([[float(Fraction(m) - e) for m, e in zip(mv, ev)] for mv, ev in zip(moved, exact)])
        shift = float(np.sum(mk.energy_gradient(mk.ClosedPolygon(moved)) * r))
        assert _energy(moved) - shift == pytest.approx(_energy(p.vertices), rel=1e-10, abs=1e-12)

    @settings(deadline=None)
    @given(random_polygons, st.integers(0, 31), st.booleans())
    def test_relabeling_invariance(self, spec, shift, reverse):
        p = mk.random_equilateral_polygon(*spec)
        relabeled = np.roll(p.vertices, shift, axis=0)
        if reverse:
            relabeled = relabeled[::-1].copy()
        # reversal pairs each term with the weights of other edges, equal to 1e-12
        assert _energy(relabeled) == pytest.approx(_energy(p.vertices), rel=1e-10, abs=1e-12)

    @settings(deadline=None)
    @given(random_polygons)
    def test_pair_terms_nonnegative(self, spec):
        p = mk.random_equilateral_polygon(*spec)
        rep = mk.discrete_moebius_energy(p)
        value, terms = discrete_energy_reference(p.vertices)
        largest = max(map(abs, terms), default=0.0)
        assert rep.value == pytest.approx(value, rel=1e-12)
        assert min(terms, default=0.0) >= -1e-14 * max(1.0, largest)

    @settings(deadline=None)
    @given(random_polygons)
    def test_regular_ngon_is_below(self, spec):
        n = spec[0]
        assert _energy(mk.random_equilateral_polygon(*spec).vertices) >= mk.regular_ngon_energy(n) - 1e-9


def test_report_serialization():
    rep = mk.discrete_moebius_energy(mk.regular_ngon(5, 1.0))
    data = rep.to_dict()
    assert set(data) == {"value", "terms", "scheme", "diagnostics"}
    assert data["scheme"] == "forward"
    assert data["terms"] == 5 * 4     # the pair count
