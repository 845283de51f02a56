import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moebius_kit as mk
from moebius_kit import energies
from moebius_kit.errors import DoublePointError, InputError


def rotation_3d(angle, axis):
    axis = np.asarray(axis, dtype=float)
    axis /= np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


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
        rep = mk.discrete_moebius_energy(p, keep_terms=True)
        resum = math.fsum(rep.terms.ravel())
        assert rep.value == pytest.approx(resum, rel=1e-12)
        assert rep.term_count == 17 * 16
        assert rep.terms.min() >= -1e-15 * np.abs(rep.terms).max()
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


class TestSegmentDistance:
    def test_parallel_offset(self):
        d = mk.segment_distance(([0, 0, 0], [1, 0, 0]), ([0, 1, 0], [1, 1, 0]))
        assert d == pytest.approx(1.0, abs=1e-15)

    def test_crossing(self):
        d = mk.segment_distance(([0, -1], [0, 1]), ([-1, 0], [1, 0]))
        assert d == 0.0

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

    def test_triangle_vacuous(self):
        rep = mk.minimum_distance_energy(mk.regular_ngon(3, 1.0))
        assert rep.value == 0.0
        assert rep.diagnostics.get("vacuous_sum") is True

    @pytest.mark.parametrize("n", [4, 5, 9, 10])
    def test_random_polygon_against_brute_force(self, n):
        # even n exercises the half pass at separation n / 2
        def pair_terms(vertices):
            segs = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
            lengths = [np.linalg.norm(b - a) for a, b in segs]
            return {
                (i, j): lengths[i] * lengths[j] / mk.segment_distance(segs[i], segs[j]) ** 2
                for i in range(n)
                for j in range(n)
                if min((j - i) % n, (i - j) % n) >= 2
            }

        p = mk.random_equilateral_polygon(n, dim=3, seed=4)
        radius = p.total_length / (2 * n * math.sin(math.pi / n))
        angles = 2 * math.pi * np.arange(n) / n
        regular = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        raw, ref = pair_terms(p.vertices), pair_terms(regular)
        rep = mk.minimum_distance_energy(p, keep_terms=True)
        assert rep.diagnostics["potential"] == pytest.approx(math.fsum(raw.values()), rel=1e-12)
        assert rep.diagnostics["regular_ngon_potential"] == pytest.approx(
            math.fsum(ref.values()), rel=1e-12
        )
        assert rep.value == pytest.approx(
            math.fsum(raw.values()) - math.fsum(ref.values()), rel=1e-12
        )
        assert rep.term_count == len(raw)
        for i in range(n):
            for j in range(n):
                excess = raw[i, j] - ref[i, j] if (i, j) in raw else 0.0
                assert rep.terms[i, j] == pytest.approx(excess, rel=1e-12)

    def test_term_matrix_resums_to_value(self):
        rect = mk.ClosedPolygon([[0, 0], [0.3, 0], [0.3, 0.2], [0, 0.2]])
        rep = mk.minimum_distance_energy(rect, keep_terms=True)
        assert rep.value == pytest.approx(math.fsum(rep.terms.ravel()), rel=1e-12)

    def test_intersecting_segments_rejected(self):
        bowtie = mk.ClosedPolygon([[0, 0], [1, 1], [1, 0], [0, 1]])
        with pytest.raises(DoublePointError) as err:
            mk.minimum_distance_energy(bowtie)
        assert err.value.pair == (0, 2)

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
        whole = mk.minimum_distance_energy(p, keep_terms=True)
        monkeypatch.setattr(energies, "BLOCK_PAIRS", block_pairs)
        rep = mk.minimum_distance_energy(p, keep_terms=True)
        assert rep.value == whole.value
        assert rep.diagnostics == whole.diagnostics
        assert np.array_equal(rep.terms, whole.terms)

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


class TestSmoothEnergy:
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

        # raw midpoint double sum at 4096^2 with an identically modeled band
        m = 4096
        L = curve.length
        step = L / m
        s = (np.arange(m) + 0.5) * step
        P = curve.eval(s)
        second = np.roll(P, -1, axis=0) - 2.0 * P + np.roll(P, 1, axis=0)
        kappa_sq = np.einsum("ij,ij->i", second, second) / step**4
        K = max(1, int(round(rep.diagnostics["band_halfwidth"] / step - 0.5)))
        h = (K + 0.5) * step
        band = (h / 6.0) * step * kappa_sq.sum()
        total = 0.0
        for k in range(K + 1, m // 2 + 1):
            d = np.roll(P, -k, axis=0) - P
            chord2 = np.einsum("ij,ij->i", d, d)
            u = k * step
            dint = min(u, L - u)
            row = float((1.0 / chord2 - 1.0 / dint**2).sum())
            total += row if 2 * k == m else 2.0 * row
        brute = total * step * step + band
        assert rep.value == pytest.approx(brute, abs=5 * tol)

    def test_tol_range_enforced(self, circle_2pi):
        for bad in (1e-11, 1e-2):
            with pytest.raises(InputError):
                mk.smooth_moebius_energy(circle_2pi, tol=bad)

    def test_unconverged_run_is_reported_not_raised(self, circle_2pi):
        # the band model floor sits above tol = 1e-10 within 12 levels
        rep = mk.smooth_moebius_energy(circle_2pi, tol=1e-10)
        assert rep.diagnostics["unconverged"] is True
        assert not rep.diagnostics["converged"]
        assert len(rep.diagnostics["last_estimates"]) == 2
        assert rep.value == pytest.approx(4.0, abs=1e-7)


class TestMoebiusInversion:
    def test_circle_energy_preserved(self, circle_2pi):
        tol = 1e-7
        inverted = mk.moebius_inversion(circle_2pi, center=(3.0, 0.0), radius=1.0)
        curve = mk.arclength_reparametrize(inverted, nodes=4096)
        rep = mk.smooth_moebius_energy(curve, tol=tol)
        assert rep.value == pytest.approx(4.0, abs=2 * tol * 4.0)

    def test_involution(self):
        p = mk.random_equilateral_polygon(9, dim=3, seed=2)
        center, radius = (5.0, 1.0, -2.0), 2.0
        twice = mk.moebius_inversion(mk.moebius_inversion(p, center, radius), center, radius)
        assert np.abs(twice.vertices - p.vertices).max() < 1e-10

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
    def test_rigid_motion_invariance(self, spec, motion_seed):
        p = mk.random_equilateral_polygon(*spec)
        rng = np.random.default_rng(motion_seed)
        R, _ = np.linalg.qr(rng.standard_normal((p.dim, p.dim)))
        if np.linalg.det(R) < 0.0:
            R[:, 0] *= -1.0
        moved = p.vertices @ R.T + 10.0 * rng.standard_normal(p.dim)
        assert _energy(moved) == pytest.approx(_energy(p.vertices), rel=1e-10, abs=1e-12)

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
        terms = mk.discrete_moebius_energy(mk.random_equilateral_polygon(*spec), keep_terms=True).terms
        assert terms.min() >= -1e-14 * max(1.0, terms.max())

    @settings(deadline=None)
    @given(random_polygons)
    def test_regular_ngon_is_below(self, spec):
        n = spec[0]
        assert _energy(mk.random_equilateral_polygon(*spec).vertices) >= mk.regular_ngon_energy(n) - 1e-9


def test_report_serialization(tmp_path):
    rep = mk.discrete_moebius_energy(mk.regular_ngon(5, 1.0), keep_terms=True)
    data = rep.to_dict()
    assert set(data) == {"value", "terms", "scheme", "diagnostics"}
    assert data["scheme"] == "forward"
    path = tmp_path / "terms.csv"
    rep.terms_to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,term"
    assert len(lines) == 1 + 25
