import json

import numpy as np
import pytest

import moebius_kit as mk
from moebius_kit.errors import InputError


def test_reference_energy_circle_is_analytic(circle_1):
    assert mk.reference_energy(circle_1) == 4.0


class TestConvergenceStudy:
    def test_circle_uniform(self, circle_1):
        ns = [4, 8, 16, 32, 64, 128]
        report = mk.convergence_study(circle_1, ns, mode="uniform")
        assert report.reference == 4.0
        # two independent code paths: inscribed-polygon energies vs the closed form
        for n, _, gap in report.rows:
            assert gap == pytest.approx(4.0 - mk.regular_ngon_energy(n), abs=1e-9)
        assert report.rows[0][2] == pytest.approx(3.0, abs=1e-9)   # n=4: gap is 4 - 1
        assert 0.85 <= report.rate <= 1.15
        assert report.meets_rate_bound

    def test_equilateral_mode_on_ellipse(self, ellipse_06):
        report = mk.convergence_study(
            ellipse_06, [8, 16, 32, 64, 128], mode="equilateral", quad_tol=1e-7
        )
        gaps = [g for _, _, g in report.rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert report.rate >= 0.85

    def test_preconditions(self, circle_1):
        with pytest.raises(InputError):
            mk.convergence_study(circle_1, [8, 16, 32], mode="uniform")
        with pytest.raises(InputError):
            mk.convergence_study(circle_1, [8, 16, 12, 32, 64], mode="uniform")

    def test_serialization(self, circle_1, tmp_path):
        report = mk.convergence_study(circle_1, [4, 8, 16, 32, 64], mode="uniform")
        report.write_csv(tmp_path / "rate.csv")
        report.write_json(tmp_path / "rate.json")
        report.write_plot_data(tmp_path / "rate.dat")
        data = json.loads((tmp_path / "rate.json").read_text())
        assert data["rate"] == report.rate
        lines = (tmp_path / "rate.dat").read_text().strip().splitlines()
        assert len(lines) == 5 and len(lines[0].split()) == 2


class TestGammaRecovery:
    def test_circle_recovery_is_regular(self, circle_1):
        report = mk.gamma_recovery_study(circle_1, [8, 16, 32, 64])
        for n, _, gap, dist in report.rows:
            assert gap == pytest.approx(4.0 - mk.regular_ngon_energy(n), abs=1e-8)
            assert dist >= 0.0
        dists = [d for *_, d in report.rows]
        assert all(b < a for a, b in zip(dists, dists[1:]))


class TestLiminf:
    def test_circle_inscribed_tautology(self, circle_1):
        report = mk.liminf_spotcheck(circle_1, "inscribed", [16, 32, 64, 128])
        assert not report.invalid
        assert report.liminf_ok
        for _, energy, _, slack in report.rows:
            assert report.reference <= energy + slack + 1e-9

    def test_circle_perturbed_tail(self, circle_1):
        report = mk.liminf_spotcheck(circle_1, "perturbed", [64, 128, 256, 512, 1024], seed=0)
        assert not report.invalid
        assert report.liminf_ok
        tail = [e for n, e, _, _ in report.rows if n >= 512]
        assert min(tail) >= 3.9

    def test_ellipse_quadrature_reference(self, ellipse_06):
        report = mk.liminf_spotcheck(ellipse_06, "inscribed", [16, 32, 64, 128])
        assert report.reference > 4.0
        assert report.liminf_ok and not report.invalid

    def test_non_converging_family_flagged(self, circle_1):
        frozen = mk.inscribe_uniform(circle_1, 12)[0]
        report = mk.liminf_spotcheck(circle_1, lambda c, n: frozen, [16, 32, 64])
        assert report.invalid

    def test_determinism(self, circle_1):
        a = mk.liminf_spotcheck(circle_1, "perturbed", [16, 32, 64], seed=3)
        b = mk.liminf_spotcheck(circle_1, "perturbed", [16, 32, 64], seed=3)
        assert a.rows == b.rows


class TestMinimizerStudy:
    def test_small_study(self):
        report = mk.minimizer_study([4, 8], seeds=10, dim=2)
        assert [row["n"] for row in report.rows] == [4, 8]
        for row in report.rows:
            assert not row["flagged"]
            assert row["gap"] >= -1e-9
            assert row["gap"] < 1e-6
            assert row["procrustes_residual"] < 1e-3
        assert report.distances_decreasing

    def test_iteration_budget_counts_as_not_converged(self):
        cfg = mk.OptimizerConfig(max_iterations=1)
        report = mk.minimizer_study([8], seeds=10, dim=3, cfg=cfg)
        assert report.rows[0]["terminations"] == ["max_iterations"] * 10
        assert report.rows[0]["flagged"]

    def test_preconditions(self):
        with pytest.raises(InputError):
            mk.minimizer_study([4, 128], seeds=10)
        with pytest.raises(InputError):
            mk.minimizer_study([4, 8], seeds=3)

    def test_serialization(self, tmp_path):
        report = mk.minimizer_study([4], seeds=10, dim=2)
        report.write_csv(tmp_path / "m.csv")
        report.write_json(tmp_path / "m.json")
        report.write_plot_data(tmp_path / "m.dat")
        data = json.loads((tmp_path / "m.json").read_text())
        assert data["rows"][0]["n"] == 4
        assert "best_polygon" not in data["rows"][0]


class TestAlmostMinimizerCheck:
    def test_constant_sequences_pass(self):
        verdict = mk.almost_minimizer_check([4.0] * 5, [4.0] * 5, 4.0)
        assert verdict.passed

    def test_regular_ngon_data_passes(self):
        ns = [16, 32, 64, 128, 256, 512, 1024]
        inf_n = [mk.regular_ngon_energy(n) for n in ns]
        verdict = mk.almost_minimizer_check(inf_n, inf_n, 4.0)
        assert verdict.passed

    def test_fabricated_violation_fails(self):
        verdict = mk.almost_minimizer_check([4.0] * 5, [4.0] * 5, 5.0)
        assert not verdict.passed
        assert verdict.reasons

    def test_bad_input(self):
        with pytest.raises(InputError):
            mk.almost_minimizer_check([1.0, 2.0], [1.0], 1.0)

    def test_wired_to_minimizer_study(self, minimizer_report):
        # 3d starts: planar descent from random starts can stall in tangled
        # local minima, while space polygons have room to unwind
        rows = [row for row in minimizer_report.rows if row["n"] <= 32]
        achieved = [row["min_energy"] for row in rows]
        infima = [mk.regular_ngon_energy(row["n"]) for row in rows]
        verdict = mk.almost_minimizer_check(achieved, infima, 4.0)
        assert verdict.passed
