"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np

import moebius_kit as mk


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})", flush=True)


def test_criterion_1_circle_energy():
    circle = mk.unit_circle(2.0 * math.pi)
    t0 = time.perf_counter()
    rep = mk.smooth_moebius_energy(circle, tol=1e-8)
    elapsed = time.perf_counter() - t0
    err = abs(rep.value - 4.0)
    ok = err < 1e-10 and elapsed < 10.0
    report("criterion 1 (circle smooth energy)", ok,
           f"E={rep.value:.12f} err={err:.2e} runtime={elapsed:.2f}s")
    assert err < 1e-10
    assert elapsed < 10.0


def test_criterion_2_square_and_hexagon():
    square = mk.discrete_moebius_energy(mk.regular_ngon(4, 1.0)).value
    hexagon = mk.discrete_moebius_energy(mk.regular_ngon(6, 1.0)).value
    ok = abs(square - 1.0) < 1e-12 and abs(hexagon - 11.0 / 6.0) < 1e-12
    report("criterion 2 (square and hexagon oracles)", ok,
           f"E4={square!r} E6={hexagon!r}")
    assert abs(square - 1.0) < 1e-12
    assert abs(hexagon - 11.0 / 6.0) < 1e-12


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(3, 257):
        direct = mk.discrete_moebius_energy(mk.regular_ngon(n, 1.0)).value
        oracle = mk.regular_ngon_energy(n)
        if n > 3:
            worst = max(worst, abs(direct - oracle) / oracle)
        else:
            worst = max(worst, abs(direct - oracle))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    report("criterion 3 (closed-form oracle equivalence)", ok,
           f"worst rel err={worst:.2e} runtime={elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 30.0


def test_criterion_4_convergence_rates(trefoil):
    t0 = time.perf_counter()
    circle = mk.unit_circle(1.0)
    circle_rate = mk.convergence_study(
        circle, [8, 16, 32, 64, 128, 256, 512, 1024], mode="uniform"
    ).rate
    knot_rate = mk.convergence_study(
        trefoil, [32, 64, 128, 256, 512, 1024], mode="equilateral"
    ).rate
    elapsed = time.perf_counter() - t0
    ok = 0.85 <= circle_rate <= 1.15 and knot_rate >= 0.85 and elapsed < 300.0
    report("criterion 4 (convergence rates)", ok,
           f"circle rate={circle_rate:.3f} knot rate={knot_rate:.3f} runtime={elapsed:.0f}s")
    assert 0.85 <= circle_rate <= 1.15
    assert knot_rate >= 0.85
    assert elapsed < 300.0


def test_criterion_5_gamma_recovery(trefoil):
    t0 = time.perf_counter()
    study = mk.gamma_recovery_study(trefoil, [64, 128, 256, 512, 1024, 2048])
    elapsed = time.perf_counter() - t0
    ok = study.gap_shrink >= 10.0 and study.distance_shrink >= 10.0 and elapsed < 600.0
    report("criterion 5 (recovery sequences)", ok,
           f"gap shrink={study.gap_shrink:.1f}x distance shrink={study.distance_shrink:.1f}x "
           f"runtime={elapsed:.0f}s")
    assert study.gap_shrink >= 10.0
    assert study.distance_shrink >= 10.0
    assert elapsed < 600.0


def test_criterion_6_minimality():
    sizes = list(range(4, 33))
    failures = []
    strict_failures = []
    for i in range(500):
        n = sizes[i % len(sizes)]
        polygon = mk.random_equilateral_polygon(n, dim=3, seed=i)
        energy = mk.discrete_moebius_energy(polygon).value
        floor = mk.regular_ngon_energy(n)
        if energy < floor - 1e-9:
            failures.append((n, i))
        gn = mk.regular_ngon(n, polygon.total_length, dim=3)
        _, residual = mk.align_rigid(polygon, gn)
        if residual > 1e-3 and energy - floor <= 1e-6:
            strict_failures.append((n, i))
    ok = not failures and not strict_failures
    report("criterion 6 (regular n-gon minimality, 500 samples)", ok,
           f"below floor: {len(failures)}, non-strict far from g_n: {len(strict_failures)}")
    assert not failures
    assert not strict_failures


def test_criterion_7_descent_reaches_regular():
    rng = np.random.default_rng(2024)
    results = []
    for n in (4, 8, 16):
        g = mk.regular_ngon(n, 1.0)
        noise = rng.standard_normal(g.vertices.shape)
        noise /= np.linalg.norm(noise, axis=1)[:, None]
        start = mk.ClosedPolygon(g.vertices + 0.01 * (1.0 / n) * noise)
        trace = mk.minimize_discrete_energy(start)
        _, residual = mk.align_rigid(
            trace.final_polygon, mk.regular_ngon(n, trace.final_polygon.total_length)
        )
        results.append((n, trace.energy_gap, residual, trace.iterations))
    ok = all(gap < 1e-8 and res < 1e-4 and it <= 5000 for _, gap, res, it in results)
    report("criterion 7 (descent from perturbed regular polygons)", ok,
           "; ".join(f"n={n}: gap={g:.1e} res={r:.1e} iters={i}" for n, g, r, i in results))
    for n, gap, residual, iterations in results:
        assert gap < 1e-8
        assert residual < 1e-4
        assert iterations <= 5000


def test_criterion_8_circle_limit(minimizer_report):
    dists = [(row["n"], row["circle_distance"]) for row in minimizer_report.rows]
    decreasing = all(b < a for (_, a), (_, b) in zip(dists, dists[1:]))
    report("criterion 8 (minimizers approach the circle)", decreasing,
           " ".join(f"n={n}: {d:.4f}" for n, d in dists))
    assert decreasing


def test_criterion_8_descents_converge(minimizer_report):
    ends = {t for row in minimizer_report.rows for t in row["terminations"]}
    ok = ends <= {"gradient_tol", "energy_tol"}
    report("criterion 8 (every descent converges)", ok, " ".join(sorted(ends)))
    assert ok


def test_criterion_9_invariance_suite():
    polygon = mk.random_equilateral_polygon(12, dim=3, seed=42)
    e_disc = mk.discrete_moebius_energy(polygon).value
    e_md = mk.minimum_distance_energy(polygon).value
    checks = []

    for lam in (0.1, 17.0):
        scaled = polygon.scaled(lam)
        checks.append(abs(mk.discrete_moebius_energy(scaled).value - e_disc) / e_disc)
        checks.append(abs(mk.minimum_distance_energy(scaled).value - e_md) / max(1.0, abs(e_md)))

    theta = 0.83
    K = np.array([[0.0, -1.0, 0.5], [1.0, 0.0, -0.2], [-0.5, 0.2, 0.0]])
    K /= np.linalg.norm([1.0, 0.5, 0.2])
    R = np.eye(3) + math.sin(theta) * K + (1 - math.cos(theta)) * (K @ K)
    moved = mk.ClosedPolygon(polygon.vertices @ R.T + np.array([0.3, -0.7, 1.1]))
    checks.append(abs(mk.discrete_moebius_energy(moved).value - e_disc) / e_disc)
    checks.append(abs(mk.minimum_distance_energy(moved).value - e_md) / max(1.0, abs(e_md)))

    shifted = mk.ClosedPolygon(np.roll(polygon.vertices, 4, axis=0))
    reversed_ = mk.ClosedPolygon(polygon.vertices[::-1].copy())
    checks.append(abs(mk.discrete_moebius_energy(shifted).value - e_disc) / e_disc)
    checks.append(abs(mk.discrete_moebius_energy(reversed_).value - e_disc) / e_disc)
    checks.append(abs(mk.minimum_distance_energy(shifted).value - e_md) / max(1.0, abs(e_md)))

    tol = 1e-7
    base_circle = mk.unit_circle(2.0 * math.pi)
    e_smooth = mk.smooth_moebius_energy(base_circle, tol=tol).value
    for lam in (0.1, 17.0):
        scaled_curve = mk.arclength_reparametrize(mk.circle(radius=lam), nodes=1024)
        checks.append(
            abs(mk.smooth_moebius_energy(scaled_curve, tol=tol).value - e_smooth) / e_smooth
        )
    rigid_max = max(checks)

    inverted = mk.moebius_inversion(base_circle, center=(3.0, 0.0), radius=1.0)
    inv_curve = mk.arclength_reparametrize(inverted, nodes=4096)
    e_inv = mk.smooth_moebius_energy(inv_curve, tol=tol).value
    inversion_err = abs(e_inv - e_smooth)

    ok = rigid_max < 1e-10 and inversion_err < 2 * tol * max(1.0, e_smooth)
    report("criterion 9 (invariance suite)", ok,
           f"worst scale/rigid/relabel rel err={rigid_max:.2e} inversion err={inversion_err:.2e}")
    assert rigid_max < 1e-10
    assert inversion_err < 2 * tol * max(1.0, e_smooth)


def test_criterion_10_gradient_correctness():
    sizes = list(range(5, 25))
    worst = 0.0
    for i in range(100):
        n = sizes[i % len(sizes)]
        dim = 2 if i % 3 == 0 else 3
        polygon = mk.random_equilateral_polygon(n, dim=dim, seed=1000 + i)
        analytic = mk.energy_gradient(polygon)
        # step chosen so the oracle's own h^2 truncation stays below the 1e-5
        # gate even for samples with close non-adjacent approaches
        h = 5e-7 * polygon.total_length
        numeric = np.zeros_like(polygon.vertices)
        for j in range(n):
            for k in range(polygon.dim):
                vp = polygon.vertices.copy()
                vp[j, k] += h
                vm = polygon.vertices.copy()
                vm[j, k] -= h
                numeric[j, k] = (
                    mk.discrete_moebius_energy(mk.ClosedPolygon(vp)).value
                    - mk.discrete_moebius_energy(mk.ClosedPolygon(vm)).value
                ) / (2.0 * h)
        worst = max(worst, np.abs(analytic - numeric).max() / np.abs(numeric).max())
    ok = worst < 1e-5
    report("criterion 10 (gradient vs finite differences, 100 polygons)", ok,
           f"worst rel err={worst:.2e}")
    assert worst < 1e-5
