import csv
import json
import math

import numpy as np
import pytest

import moebius_kit as mk
from moebius_kit.errors import InputError


def test_reference_energy_circle_is_analytic(circle_1):
    assert mk.reference_energy(circle_1) == (4.0, True)


class TestConvergenceStudy:
    def test_circle_uniform(self, circle_1):
        ns = [4, 8, 16, 32, 64, 128]
        report = mk.convergence_study(circle_1, ns, mode="uniform")
        assert report.fields["reference_energy"] == 4.0
        # two independent code paths: inscribed-polygon energies vs the closed form
        for row in report.rows:
            assert row["gap"] == pytest.approx(4.0 - mk.regular_ngon_energy(row["n"]), abs=1e-9)
        assert report.rows[0]["gap"] == pytest.approx(3.0, abs=1e-9)   # n=4: gap is 4 - 1
        assert 0.85 <= report.fields["rate"] <= 1.15

    def test_equilateral_mode_on_ellipse(self, ellipse_06):
        report = mk.convergence_study(ellipse_06, [8, 16, 32, 64, 128], mode="equilateral")
        gaps = [row["gap"] for row in report.rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert report.fields["rate"] >= 0.85

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
        assert data["rate"] == report.fields["rate"]
        lines = (tmp_path / "rate.dat").read_text().strip().splitlines()
        assert len(lines) == 5 and len(lines[0].split()) == 2


class TestGammaRecovery:
    def test_circle_recovery_is_regular(self, circle_1):
        report = mk.gamma_recovery_study(circle_1, [8, 16, 32, 64])
        for row in report.rows:
            assert row["gap"] == pytest.approx(4.0 - mk.regular_ngon_energy(row["n"]), abs=1e-8)
            assert row["w1inf_distance"] >= 0.0
        dists = [row["w1inf_distance"] for row in report.rows]
        assert all(b < a for a, b in zip(dists, dists[1:]))


class TestLiminf:
    def test_circle_inscribed_tautology(self, circle_1):
        report = mk.liminf_spotcheck(circle_1, "inscribed", [16, 32, 64, 128])
        assert not report.fields["invalid"]
        assert report.fields["liminf_ok"]
        for row in report.rows:
            assert report.fields["reference_energy"] <= row["energy"] + row["slack"] + 1e-9

    def test_circle_perturbed_tail(self, circle_1):
        report = mk.liminf_spotcheck(circle_1, "perturbed", [64, 128, 256, 512, 1024], seed=0)
        assert not report.fields["invalid"]
        assert report.fields["liminf_ok"]
        tail = [row["energy"] for row in report.rows if row["n"] >= 512]
        assert min(tail) >= 3.9

    def test_ellipse_quadrature_reference(self, ellipse_06):
        report = mk.liminf_spotcheck(ellipse_06, "inscribed", [16, 32, 64, 128])
        assert report.fields["reference_energy"] > 4.0
        assert report.fields["reference_converged"] is True
        assert report.fields["liminf_ok"] and not report.fields["invalid"]

    def test_non_converging_family_flagged(self, circle_1):
        frozen = mk.inscribe_uniform(circle_1, 12)[0]
        report = mk.liminf_spotcheck(circle_1, lambda c, n: frozen, [16, 32, 64])
        assert report.fields["invalid"]

    def test_determinism(self, circle_1):
        a = mk.liminf_spotcheck(circle_1, "perturbed", [16, 32, 64], seed=3)
        b = mk.liminf_spotcheck(circle_1, "perturbed", [16, 32, 64], seed=3)
        assert a.rows == b.rows


@pytest.mark.parametrize(
    "study",
    [
        pytest.param(lambda c: mk.gamma_recovery_study(c, [8]), id="gamma-one-size"),
        pytest.param(lambda c: mk.liminf_spotcheck(c, "inscribed", [8, 16]), id="liminf-two-sizes"),
        pytest.param(lambda c: mk.gamma_recovery_study(c, [16, 8]), id="gamma-decreasing"),
        pytest.param(lambda c: mk.liminf_spotcheck(c, "inscribed", [8, 16, 16]), id="liminf-repeated"),
        pytest.param(lambda c: mk.liminf_spotcheck(c, "bogus", [8, 16, 32]), id="unknown-family"),
        pytest.param(lambda c: mk.convergence_study(c, [8, 16, 32, 64, 128], mode="bogus"),
                     id="unknown-mode"),
    ],
)
def test_study_input_checks(circle_1, study):
    with pytest.raises(InputError):
        study(circle_1)


def _table(report):
    """The report's rows as tuples in its column order."""
    return [tuple(row[name] for name in report.columns) for row in report.rows]


class TestStudyRowsRecomputed:
    """Each study's rows equal its own polygon family recomputed outside it, bit for bit.

    The families differ on purpose: the rate study inscribes without the
    rescale that ``recovery_sequence`` applies, which changes E_n in its
    last bits on the ellipse.
    """

    NS = [16, 32, 64, 128, 256]

    def test_rate_equilateral(self, ellipse_06):
        reference = mk.smooth_moebius_energy(ellipse_06, tol=1e-8).value
        expected = []
        for n in self.NS:
            polygon, _ = mk.inscribe_equilateral(ellipse_06, n, tol=1e-9)
            energy = mk.discrete_moebius_energy(polygon).value
            expected.append((n, energy, abs(reference - energy)))
        assert _table(mk.convergence_study(ellipse_06, self.NS, mode="equilateral")) == expected

    def test_gamma_recovery(self, ellipse_06):
        reference = mk.smooth_moebius_energy(ellipse_06, tol=1e-8).value
        unit_curve = ellipse_06.scaled(1.0 / ellipse_06.length)
        expected = []
        for n in self.NS:
            polygon = mk.recovery_sequence(ellipse_06, n, tol=1e-9)
            energy = mk.discrete_moebius_energy(polygon).value
            distance = mk.curve_distance(polygon.scaled(1.0 / polygon.total_length), unit_curve,
                                         norm="W1q", q=math.inf)
            expected.append((n, energy, abs(reference - energy), distance))
        assert _table(mk.gamma_recovery_study(ellipse_06, self.NS)) == expected

    def test_liminf_perturbed(self, ellipse_06):
        reference = mk.smooth_moebius_energy(ellipse_06, tol=1e-8).value
        unit_curve = ellipse_06.scaled(1.0 / ellipse_06.length)
        expected = []
        for n in self.NS:
            vertices = mk.inscribe_uniform(ellipse_06, n)[0].vertices
            rng = np.random.default_rng(np.random.SeedSequence(entropy=3, spawn_key=(n,)))
            noise = rng.standard_normal(vertices.shape)
            noise /= np.linalg.norm(noise, axis=1)[:, None]
            polygon = mk.ClosedPolygon(vertices + (ellipse_06.length / n**2) * noise)
            energy = mk.discrete_moebius_energy(polygon).value
            distance = mk.curve_distance(polygon.scaled(1.0 / polygon.total_length), unit_curve,
                                         norm="Lq", q=1)
            expected.append((n, energy, distance, abs(reference - energy)))
        assert _table(mk.liminf_spotcheck(ellipse_06, "perturbed", self.NS, seed=3)) == expected


@pytest.mark.parametrize(
    "run, header, fields, plotted, json_only",
    [
        pytest.param(
            lambda c: mk.convergence_study(c, [8, 16, 32, 64, 128]),
            ["n", "energy", "gap"],
            {"curve", "mode", "reference_energy", "reference_converged", "rate", "intercept"},
            "gap",
            set(),
            id="rate",
        ),
        pytest.param(
            lambda c: mk.gamma_recovery_study(c, [8, 16, 32]),
            ["n", "energy", "gap", "w1inf_distance"],
            {"curve", "reference_energy", "reference_converged", "gap_shrink", "distance_shrink"},
            "w1inf_distance",
            set(),
            id="gamma",
        ),
        pytest.param(
            lambda c: mk.liminf_spotcheck(c, "perturbed", [8, 16, 32], seed=3),
            ["n", "energy", "l1_distance", "slack"],
            {"family", "reference_energy", "reference_converged", "invalid", "tail_min_energy",
             "liminf_ok"},
            "energy",
            set(),
            id="liminf",
        ),
        pytest.param(
            lambda c: mk.minimizer_study([4, 8], seeds=10, dim=2),
            ["n", "min_energy", "gap", "procrustes_residual", "circle_distance", "flagged"],
            {"distances_decreasing"},
            "circle_distance",
            {"terminations"},
            id="minimizers",
        ),
    ],
)
def test_study_serialization(ellipse_06, tmp_path, run, header, fields, plotted, json_only):
    report = run(ellipse_06)
    report.write_csv(tmp_path / "study.csv")
    report.write_json(tmp_path / "study.json")
    report.write_plot_data(tmp_path / "study.dat")
    with open(tmp_path / "study.csv", newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == header
    # float() of a bool is 0.0 or 1.0, so a bool column must be written 0/1
    assert [[float(x) for x in line] for line in lines[1:]] == [
        [float(row[name]) for name in header] for row in report.rows
    ]
    data = json.loads((tmp_path / "study.json").read_text())
    assert set(data) == fields | {"rows"}
    assert [set(row) for row in data["rows"]] == [set(header) | json_only] * len(report.rows)
    dat = [tuple(map(float, line.split())) for line in (tmp_path / "study.dat").read_text().splitlines()]
    assert dat == [(float(row["n"]), float(row[plotted])) for row in report.rows]


class TestMinimizerStudy:
    def test_small_study(self):
        report = mk.minimizer_study([4, 8], seeds=10, dim=2)
        assert [row["n"] for row in report.rows] == [4, 8]
        for row in report.rows:
            assert not row["flagged"]
            assert row["gap"] >= -1e-9
            assert row["gap"] < 1e-6
            assert row["procrustes_residual"] < 1e-3
        assert report.fields["distances_decreasing"]

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

    def test_3d_rows_reach_the_regular_ngon(self, minimizer_report):
        # 3d starts: planar descent from random starts can stall in tangled
        # local minima, while space polygons have room to unwind
        rows = [row for row in minimizer_report.rows if row["n"] <= 32]
        assert rows
        for row in rows:
            assert -1e-9 <= row["gap"] <= 1e-6
