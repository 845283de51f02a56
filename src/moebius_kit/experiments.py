"""Desk-scale studies: convergence rates, recovery sequences, minimality, limits.

The rate, recovery and lower-bound studies share one core: inscribe a
family of polygons in the curve over an increasing n list and record E_n,
|E - E_n| and, where the study names a norm, the distance to the curve.
Each study is a view on that core that picks the family, the norm and the
least number of sizes, and adds its own fields.  The round circle's smooth
energy is the analytic constant 4 (independent of scale), so circle
studies use it directly instead of quadrature; everything else is
measured.  These three reports carry ``reference_converged``, whether that
quadrature met its tolerance, so an unconverged reference is never
reported without saying so.  The minimizer study descends from seeded
random equilateral polygons and compares the best end state per n with
the regular n-gon and the round circle.

Every study returns one ``StudyReport``: rows of named entries, scalar
fields and a plot.  Each is deterministic given its seeds and tolerances
and exports CSV and JSON plus gnuplot-ready two-column data files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .curves import ArcLengthCurve, unit_circle
from .energies import discrete_moebius_energy, regular_ngon_energy, smooth_moebius_energy
from .errors import InputError
from .inscription import inscribe_equilateral, inscribe_uniform, recovery_sequence
from .optimize import OptimizerConfig, align_rigid, minimize_discrete_energy
from .polygon import ClosedPolygon, curve_distance, random_equilateral_polygon, regular_ngon

CIRCLE_ENERGY = 4.0  # full integral for any round circle; antiderivative -(1/2) cot(u/2)


def reference_energy(curve: ArcLengthCurve) -> tuple[float, bool]:
    """Smooth energy of the curve and whether it converged: analytic for circles, quadrature otherwise."""
    if curve.kind == "circle":
        return CIRCLE_ENERGY, True
    report = smooth_moebius_energy(curve, tol=1e-8)
    return report.value, report.diagnostics["converged"]


def _fit_rate(ns, gaps) -> tuple[float, float]:
    """Least-squares decay exponent of gap ~ C / n^rate on the positive-gap rows."""
    ns = np.asarray(ns, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    keep = gaps > 0.0
    if keep.sum() < 2:
        return math.nan, math.nan
    slope, intercept = np.polyfit(np.log(ns[keep]), np.log(gaps[keep]), 1)
    return -float(slope), float(intercept)


@dataclass
class StudyReport:
    """One study: its rows, its scalar fields and its plot.

    Each row is a dict, written whole to the JSON next to ``fields``, among
    them ``reference_energy`` and ``reference_converged`` for the
    inscribed-sequence studies.  ``columns`` names the row entries of the
    CSV, in order, with a bool written as 0/1, and ``plot`` names the two
    columns of the gnuplot data.
    """

    columns: tuple[str, ...]
    rows: list[dict]
    fields: dict
    plot: tuple[str, str]

    def to_dict(self) -> dict:
        return {**self.fields, "rows": self.rows}

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                values = [row[name] for name in self.columns]
                # int() writes a bool as 0/1
                writer.writerow([int(x) if isinstance(x, int) else repr(float(x)) for x in values])

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    def write_plot_data(self, path) -> None:
        """Two-column whitespace-separated data, one point per line (gnuplot-ready)."""
        x, y = self.plot
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows:
                fh.write(f"{float(row[x])!r} {float(row[y])!r}\n")


def _sequence(curve: ArcLengthCurve, make, n_list, least: int, keys=("n", "energy", "gap"),
              norm=None) -> tuple[list[dict], dict]:
    """Rows n, E_n, |E - E_n|[, distance] of the polygons ``make(curve, n)``, named by ``keys``.

    ``n_list`` must increase and hold at least ``least`` sizes.  ``norm``,
    a (kind, q) pair for ``curve_distance``, adds the distance between the
    polygon and the curve, both rescaled to length 1.  Also returns the
    reference entries of the report's fields.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < least or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InputError(f"need an increasing list of at least {least} polygon sizes")
    reference, converged = reference_energy(curve)
    if norm:
        kind, q = norm
        curve_1 = curve.scaled(1.0 / curve.length)
    rows = []
    for n in n_list:
        polygon = make(curve, n)
        e_n = discrete_moebius_energy(polygon).value
        row = (n, e_n, abs(reference - e_n))
        if norm:
            row += (curve_distance(polygon.scaled(1.0 / polygon.total_length), curve_1, norm=kind, q=q),)
        rows.append(dict(zip(keys, row)))
    return rows, {"reference_energy": reference, "reference_converged": converged}


def convergence_study(curve: ArcLengthCurve, n_list, mode: str = "uniform") -> StudyReport:
    """Discrete energies of inscribed polygons against the smooth energy.

    ``mode`` picks uniform-parameter or equilateral inscription (chord
    tolerance 1e-9).  The gap column is |E - E_n| and the fitted decay
    rate should sit near 1 for curves with bounded curvature.
    """
    if mode == "uniform":
        make = lambda c, n: inscribe_uniform(c, n)[0]
    elif mode == "equilateral":
        make = lambda c, n: inscribe_equilateral(c, n, tol=1e-9)[0]
    else:
        raise InputError("mode must be 'uniform' or 'equilateral'")
    rows, fields = _sequence(curve, make, n_list, 5)
    rate, intercept = _fit_rate([r["n"] for r in rows], [r["gap"] for r in rows])
    fields.update(curve=curve.kind, mode=mode, rate=rate, intercept=intercept)
    return StudyReport(("n", "energy", "gap"), rows, fields, ("n", "gap"))


def _shrink(first: float, last: float) -> float:
    return first / last if last > 0 else math.inf


def gamma_recovery_study(curve: ArcLengthCurve, n_list) -> StudyReport:
    """Energies and W^{1,inf} distances of equilateral recovery polygons.

    The reference is the smooth energy at quadrature tolerance 1e-8 and
    the polygons are inscribed to chord tolerance 1e-9.  Both the polygon
    and the curve are rescaled to length 1 before the distance is
    measured; both columns should shrink to 0 as n grows.
    """
    keys = ("n", "energy", "gap", "w1inf_distance")
    rows, fields = _sequence(curve, lambda c, n: recovery_sequence(c, n, tol=1e-9), n_list, 2, keys,
                             norm=("W1q", math.inf))
    fields.update(
        curve=curve.kind,
        gap_shrink=_shrink(rows[0]["gap"], rows[-1]["gap"]),
        distance_shrink=_shrink(rows[0]["w1inf_distance"], rows[-1]["w1inf_distance"]),
    )
    return StudyReport(keys, rows, fields, ("n", "w1inf_distance"))


def _perturbed_inscribed(curve: ArcLengthCurve, n: int, seed: int) -> ClosedPolygon:
    """Uniform inscription with seeded vertex noise of magnitude L / n^2."""
    polygon, _ = inscribe_uniform(curve, n)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n,)))
    noise = rng.standard_normal(polygon.vertices.shape)
    noise /= np.linalg.norm(noise, axis=1)[:, None]
    return ClosedPolygon(polygon.vertices + (curve.length / n**2) * noise)


def liminf_spotcheck(curve: ArcLengthCurve, polygon_family, n_list, seed: int = 0) -> StudyReport:
    """Check E(curve) <= E_n + slack along a family converging to the curve in L^1.

    ``polygon_family`` is "inscribed", "perturbed", or a callable
    (curve, n) -> polygon.  For inscribed families slack_n = |E - E_n| is
    tautological and serves as a harness sanity check; the substantive
    check is that the tail minimum of E_n does not undercut E by more than
    0.1 max(1, E).  ``invalid`` is set when the L^1 distances fail to
    decrease.
    """
    if callable(polygon_family):
        family_name = getattr(polygon_family, "__name__", "custom")
        make = polygon_family
    elif polygon_family == "inscribed":
        family_name = "inscribed"
        make = lambda c, n: inscribe_uniform(c, n)[0]
    elif polygon_family == "perturbed":
        if seed < 0:
            raise InputError(f"seed must be a nonnegative integer, not {seed}")
        family_name = "perturbed"
        make = lambda c, n: _perturbed_inscribed(c, n, seed)
    else:
        raise InputError("polygon_family must be 'inscribed', 'perturbed', or callable")
    rows, fields = _sequence(curve, make, n_list, 3, ("n", "energy", "slack", "l1_distance"),
                             norm=("Lq", 1))
    tail_min = min(row["energy"] for row in rows[len(rows) // 2:])
    reference = fields["reference_energy"]
    fields.update(
        family=family_name,
        invalid=not rows[-1]["l1_distance"] < rows[0]["l1_distance"],
        tail_min_energy=tail_min,
        liminf_ok=reference <= tail_min + 0.1 * max(1.0, abs(reference)),
    )
    return StudyReport(("n", "energy", "l1_distance", "slack"), rows, fields, ("n", "energy"))


def minimizer_study(n_list, seeds: int = 10, dim: int = 3,
                    cfg: OptimizerConfig | None = None) -> StudyReport:
    """Minimize the discrete energy from seeded random equilateral starts.

    For each n, seeds 0 .. seeds - 1 are descended; the best run is
    compared against the regular n-gon (energy gap, rigid-alignment
    residual) and, after rescaling to length 1, against the round circle in
    W^{1,inf}.  A row is flagged when no seed converged: every run ended at
    a barrier, a stall or the iteration budget.
    """
    n_list = [int(n) for n in n_list]
    if any(not 4 <= n <= 64 for n in n_list):
        raise InputError("n_list must lie within [4, 64]")
    if int(seeds) < 10:
        raise InputError("need at least 10 seeds")

    rows = []
    for n in n_list:
        best = None
        terminations = []
        for seed in range(int(seeds)):
            start = random_equilateral_polygon(n, dim=dim, seed=seed)
            trace = minimize_discrete_energy(start, cfg)
            terminations.append(trace.termination)
            energy = trace.energies[-1]
            if best is None or energy < best[0]:
                best = (energy, trace.final_polygon)
        min_energy, polygon = best
        flagged = all(t in ("stalled", "barrier", "max_iterations") for t in terminations)
        gn = regular_ngon(n, polygon.total_length, dim=polygon.dim)
        _, residual = align_rigid(polygon, gn)
        circle = unit_circle(1.0, dim=polygon.dim)
        rescaled = polygon.scaled(1.0 / polygon.total_length)
        aligned, _ = align_rigid(rescaled, circle)
        dist = curve_distance(aligned, circle, norm="W1q", q=math.inf)
        rows.append(
            {
                "n": n,
                "min_energy": min_energy,
                "gap": min_energy - regular_ngon_energy(n),
                "procrustes_residual": residual,
                "circle_distance": dist,
                "flagged": flagged,
                "terminations": terminations,
            }
        )
    dists = [row["circle_distance"] for row in rows]
    return StudyReport(
        ("n", "min_energy", "gap", "procrustes_residual", "circle_distance", "flagged"),
        rows,
        {"distances_decreasing": all(b < a for a, b in zip(dists, dists[1:]))},
        ("n", "circle_distance"),
    )
