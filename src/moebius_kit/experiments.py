"""Desk-scale studies: convergence rates, recovery sequences, minimality, limits.

Each study is deterministic given its seeds and tolerances and exports CSV
and JSON plus gnuplot-ready two-column data files.  The round circle's
smooth energy is the analytic constant 4 (independent of scale), so circle
studies use it directly instead of quadrature; everything else is measured.
The rate, recovery and lower-bound reports carry ``reference_converged``,
whether that quadrature met its tolerance, so an unconverged reference is
never reported without saying so.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .curves import ArcLengthCurve, unit_circle
from .energies import discrete_moebius_energy, regular_ngon_energy, smooth_moebius_energy
from .errors import InputError
from .inscription import inscribe_equilateral, inscribe_uniform, recovery_sequence
from .optimize import OptimizerConfig, align_rigid, minimize_discrete_energy
from .polygon import ClosedPolygon, curve_distance, random_equilateral_polygon, regular_ngon

CIRCLE_ENERGY = 4.0  # full integral for any round circle; antiderivative -(1/2) cot(u/2)


def reference_energy(curve: ArcLengthCurve, tol: float = 1e-8) -> tuple[float, bool]:
    """Smooth energy of the curve and whether it converged: analytic for circles, quadrature otherwise."""
    if curve.kind == "circle":
        return CIRCLE_ENERGY, True
    report = smooth_moebius_energy(curve, tol=tol)
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


def _write_rows_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([x if isinstance(x, (int, str)) else repr(float(x)) for x in row])


def _write_json(path, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_plot_columns(path, pairs) -> None:
    """Two-column whitespace-separated data, one point per line (gnuplot-ready)."""
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in pairs:
            fh.write(f"{float(x)!r} {float(y)!r}\n")


@dataclass
class ConvergenceReport:
    """Rows (n, E_n, |E - E_n|) with the fitted log-log decay rate."""

    rows: list[tuple[int, float, float]]
    rate: float
    intercept: float
    reference: float
    reference_converged: bool
    curve: str
    mode: str

    @property
    def meets_rate_bound(self) -> bool:
        return self.rate >= 0.85

    def to_dict(self) -> dict:
        return {
            "curve": self.curve,
            "mode": self.mode,
            "reference_energy": self.reference,
            "reference_converged": self.reference_converged,
            "rate": self.rate,
            "intercept": self.intercept,
            "rows": [{"n": n, "energy": e, "gap": g} for n, e, g in self.rows],
        }

    def write_csv(self, path) -> None:
        _write_rows_csv(path, ["n", "energy", "gap"], self.rows)

    def write_json(self, path) -> None:
        _write_json(path, self.to_dict())

    def write_plot_data(self, path) -> None:
        _write_plot_columns(path, [(n, g) for n, _, g in self.rows])


def convergence_study(curve: ArcLengthCurve, n_list, mode: str = "uniform",
                      quad_tol: float = 1e-8) -> ConvergenceReport:
    """Discrete energies of inscribed polygons against the smooth energy.

    ``mode`` picks uniform-parameter or equilateral inscription (chord
    tolerance 1e-9).  The gap column is |E - E_n| and the fitted decay
    rate should sit near 1 for curves with bounded curvature.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 5 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InputError("need an increasing list of at least 5 polygon sizes")
    if mode not in ("uniform", "equilateral"):
        raise InputError("mode must be 'uniform' or 'equilateral'")
    reference, converged = reference_energy(curve, tol=quad_tol)
    rows = []
    for n in n_list:
        if mode == "uniform":
            polygon, _ = inscribe_uniform(curve, n)
        else:
            polygon, _ = inscribe_equilateral(curve, n, tol=1e-9)
        e_n = discrete_moebius_energy(polygon).value
        rows.append((n, e_n, abs(reference - e_n)))
    rate, intercept = _fit_rate([r[0] for r in rows], [r[2] for r in rows])
    return ConvergenceReport(rows, rate, intercept, reference, converged, curve.kind, mode)


@dataclass
class GammaRecoveryReport:
    """Recovery-sequence energies and W^{1,inf} distances to the (rescaled) curve."""

    rows: list[tuple[int, float, float, float]]   # (n, E_n, gap, distance)
    reference: float
    reference_converged: bool
    curve: str

    @property
    def gap_shrink(self) -> float:
        return self.rows[0][2] / self.rows[-1][2] if self.rows[-1][2] > 0 else math.inf

    @property
    def distance_shrink(self) -> float:
        return self.rows[0][3] / self.rows[-1][3] if self.rows[-1][3] > 0 else math.inf

    @property
    def columns_shrink(self) -> bool:
        """Both columns drop 10x whenever the n range spans a factor of 32."""
        if self.rows[-1][0] < 32 * self.rows[0][0]:
            return True
        return self.gap_shrink >= 10.0 and self.distance_shrink >= 10.0

    def to_dict(self) -> dict:
        return {
            "curve": self.curve,
            "reference_energy": self.reference,
            "reference_converged": self.reference_converged,
            "gap_shrink": self.gap_shrink,
            "distance_shrink": self.distance_shrink,
            "rows": [
                {"n": n, "energy": e, "gap": g, "w1inf_distance": d} for n, e, g, d in self.rows
            ],
        }

    def write_csv(self, path) -> None:
        _write_rows_csv(path, ["n", "energy", "gap", "w1inf_distance"], self.rows)

    def write_json(self, path) -> None:
        _write_json(path, self.to_dict())

    def write_plot_data(self, path) -> None:
        _write_plot_columns(path, [(n, d) for n, _, _, d in self.rows])


def gamma_recovery_study(curve: ArcLengthCurve, n_list) -> GammaRecoveryReport:
    """Energies and W^{1,inf} distances of equilateral recovery polygons.

    The reference is the smooth energy at quadrature tolerance 1e-8 and
    the polygons are inscribed to chord tolerance 1e-9.  Both the polygon
    and the curve are rescaled to length 1 before the distance is
    measured; both columns should shrink to 0 as n grows.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 2 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InputError("need an increasing list of at least 2 polygon sizes")
    reference, converged = reference_energy(curve)
    L = curve.length
    curve_1 = curve.scaled(1.0 / L)
    rows = []
    for n in n_list:
        polygon = recovery_sequence(curve, n, tol=1e-9)
        e_n = discrete_moebius_energy(polygon).value
        dist = curve_distance(polygon.scaled(1.0 / polygon.total_length), curve_1, norm="W1q", q=math.inf)
        rows.append((n, e_n, abs(reference - e_n), dist))
    return GammaRecoveryReport(rows, reference, converged, curve.kind)


@dataclass
class LiminfReport:
    """Spot checks of the lower-bound inequality along an L^1-convergent family."""

    rows: list[tuple[int, float, float, float]]   # (n, E_n, l1_distance, slack)
    reference: float
    reference_converged: bool
    family: str
    invalid: bool                                  # L^1 distances failed to decrease
    tail_min_energy: float
    liminf_ok: bool

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "reference_energy": self.reference,
            "reference_converged": self.reference_converged,
            "invalid": self.invalid,
            "tail_min_energy": self.tail_min_energy,
            "liminf_ok": self.liminf_ok,
            "rows": [
                {"n": n, "energy": e, "l1_distance": d, "slack": s} for n, e, d, s in self.rows
            ],
        }

    def write_csv(self, path) -> None:
        _write_rows_csv(path, ["n", "energy", "l1_distance", "slack"], self.rows)

    def write_json(self, path) -> None:
        _write_json(path, self.to_dict())

    def write_plot_data(self, path) -> None:
        _write_plot_columns(path, [(n, e) for n, e, _, _ in self.rows])


def _perturbed_inscribed(curve: ArcLengthCurve, n: int, seed: int) -> ClosedPolygon:
    """Uniform inscription with seeded vertex noise of magnitude L / n^2."""
    polygon, _ = inscribe_uniform(curve, n)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n,)))
    noise = rng.standard_normal(polygon.vertices.shape)
    noise /= np.linalg.norm(noise, axis=1)[:, None]
    return ClosedPolygon(polygon.vertices + (curve.length / n**2) * noise)


def liminf_spotcheck(curve: ArcLengthCurve, polygon_family, n_list, seed: int = 0) -> LiminfReport:
    """Check E(curve) <= E_n + slack along a family converging to the curve in L^1.

    ``polygon_family`` is "inscribed", "perturbed", or a callable
    (curve, n) -> polygon.  For inscribed families slack_n = |E - E_n| is
    tautological and serves as a harness sanity check; the substantive
    check is that the tail minimum of E_n does not undercut E by more than
    0.1 max(1, E).
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InputError("need an increasing list of at least 3 polygon sizes")
    if callable(polygon_family):
        family_name = getattr(polygon_family, "__name__", "custom")
        make = polygon_family
    elif polygon_family == "inscribed":
        family_name = "inscribed"
        make = lambda c, n: inscribe_uniform(c, n)[0]
    elif polygon_family == "perturbed":
        family_name = "perturbed"
        make = lambda c, n: _perturbed_inscribed(c, n, seed)
    else:
        raise InputError("polygon_family must be 'inscribed', 'perturbed', or callable")

    reference, converged = reference_energy(curve)
    curve_1 = curve.scaled(1.0 / curve.length)
    rows = []
    for n in n_list:
        polygon = make(curve, n)
        e_n = discrete_moebius_energy(polygon).value
        dist = curve_distance(polygon.scaled(1.0 / polygon.total_length), curve_1, norm="Lq", q=1)
        rows.append((n, e_n, dist, abs(reference - e_n)))

    invalid = not rows[-1][2] < rows[0][2]
    tail = [e for _, e, _, _ in rows[len(rows) // 2:]]
    tail_min = min(tail)
    liminf_ok = reference <= tail_min + 0.1 * max(1.0, abs(reference))
    return LiminfReport(rows, reference, converged, family_name, invalid, tail_min, liminf_ok)


@dataclass
class MinimizerStudyReport:
    """Best-of-seeds discrete minimizers per n, compared to g_n and the circle."""

    rows: list[dict] = field(default_factory=list)
    distances_decreasing: bool = False

    def to_dict(self) -> dict:
        return {
            "distances_decreasing": self.distances_decreasing,
            "rows": [
                {k: v for k, v in row.items() if k != "best_polygon"} for row in self.rows
            ],
        }

    def write_csv(self, path) -> None:
        header = ["n", "min_energy", "gap", "procrustes_residual", "circle_distance", "flagged"]
        rows = [
            (
                row["n"],
                row["min_energy"],
                row["gap"],
                row["procrustes_residual"],
                row["circle_distance"],
                int(row["flagged"]),
            )
            for row in self.rows
        ]
        _write_rows_csv(path, header, rows)

    def write_json(self, path) -> None:
        _write_json(path, self.to_dict())

    def write_plot_data(self, path) -> None:
        _write_plot_columns(path, [(row["n"], row["circle_distance"]) for row in self.rows])


def minimizer_study(n_list, seeds: int = 10, dim: int = 3,
                    cfg: OptimizerConfig | None = None) -> MinimizerStudyReport:
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

    report = MinimizerStudyReport()
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
        report.rows.append(
            {
                "n": n,
                "min_energy": min_energy,
                "gap": min_energy - regular_ngon_energy(n),
                "procrustes_residual": residual,
                "circle_distance": dist,
                "flagged": flagged,
                "terminations": terminations,
                "best_polygon": polygon,
            }
        )
    dists = [row["circle_distance"] for row in report.rows]
    report.distances_decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    return report


@dataclass(frozen=True)
class AlmostMinimizerVerdict:
    passed: bool
    reasons: tuple[str, ...]


def almost_minimizer_check(values, inf_values, limit_value: float,
                           tol: float = 1e-6) -> AlmostMinimizerVerdict:
    """Consistency check for almost-minimizer convergence data.

    Verifies, with a finite-sample allowance of twice the tail spread, the
    chain: limit energy <= tail minimum of the per-n infima <= limit
    energy, together with the almost-minimizer hypothesis that the gap
    between achieved values and infima shrinks.
    """
    values = [float(x) for x in values]
    inf_values = [float(x) for x in inf_values]
    if len(values) != len(inf_values) or len(values) < 3:
        raise InputError("need two sequences of equal length >= 3")
    tail_len = max(3, len(inf_values) // 3)
    tail = inf_values[-tail_len:]
    tail_min = min(tail)
    spread = max(tail) - tail_min
    reasons = []
    if limit_value > tail_min + 2.0 * spread + tol:
        reasons.append(
            f"limit {limit_value!r} exceeds tail minimum {tail_min!r} beyond the allowance"
        )
    if tail_min > limit_value + 2.0 * spread + tol:
        reasons.append(f"tail minimum {tail_min!r} exceeds the limit {limit_value!r}")
    first_gap = abs(values[0] - inf_values[0])
    last_gap = abs(values[-1] - inf_values[-1])
    if last_gap > max(tol, first_gap + tol):
        reasons.append(f"almost-minimizer gap grew from {first_gap!r} to {last_gap!r}")
    return AlmostMinimizerVerdict(passed=not reasons, reasons=tuple(reasons))
