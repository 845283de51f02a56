"""The benchmark's workloads: inputs made from a seed, timed operations, output checks.

Each workload builds its inputs in ``setup`` and yields its operations
from ``ops``.  The runner times ``Op.run`` alone; ``Op.values`` turns the
result into plain values (compared across passes and against the traced
pass) and ``Op.check`` lists what is wrong with them.  An operation that
raises or fails a check counts as failed.  ``layer_metrics`` turns the
spans of a traced pass into the per-layer metrics of BENCHMARK.json.

``ops`` is a generator, consumed while the tracer's wrappers are
installed, so each operation binds the function its module holds then.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from moebius_kit import cli, curves, energies, optimize, polygon


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    values: Callable[[Any], dict]
    check: Callable[[dict], list]


# ---------------------------------------------------------------- pair_kernels

PAIR_SIZES = (256, 1024, 4096)
SMALL_PAIR_MAX = 1024          # averaged weights and the mindist energy only up to here
REGULAR_REL_TOL = 1e-10        # criterion 3's bound against the closed form
REFERENCE_REL_TOL = 1e-12      # ROADMAP item 2's bound for a changed kernel
INVARIANCE_REL_TOL = 1e-10


def reference_energy(vertices: np.ndarray, scheme: str) -> float:
    """Discrete energy of a closed polygon, summed row by row with ``math.fsum``.

    Written from the definition, apart from the library's kernel: for
    ordered pairs i != j, w_i w_j (1/|v_i - v_j|^2 - 1/d(a_i, a_j)^2), where
    consecutive pairs contribute exactly 0 (their chord is the arc).
    """
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    ell = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
    L = math.fsum(ell)
    a = np.concatenate([[0.0], np.cumsum(ell[:-1])])
    w = np.minimum(ell, L - ell)
    if scheme == "averaged":
        w = 0.5 * (np.roll(w, 1) + w)
    rows = []
    for i in range(n):
        d = v - v[i]
        chord2 = np.einsum("jk,jk->j", d, d)
        sep = np.abs(a - a[i])
        arc = np.minimum(sep, L - sep)
        near = [(i - 1) % n, i, (i + 1) % n]
        chord2[near] = 1.0
        arc[near] = 1.0
        rows.append(math.fsum(w[i] * w * (1.0 / chord2 - 1.0 / arc**2)))
    return math.fsum(rows)


def invariance_residuals(vertices: np.ndarray, grad: np.ndarray) -> dict:
    """Translation, scale and rotation residuals of a gradient, relative to its summands.

    The energy is invariant under all three, so sum g_i, sum c_i . g_i and
    sum c_i x g_i vanish (c_i = v_i - centroid).  Each is divided by the sum
    of the magnitudes it adds up, with n/L as the floor of a vertex's
    gradient: the regular n-gon is a critical point, its gradient roundoff.
    """
    n = len(vertices)
    c = vertices - vertices.mean(axis=0)
    ell = np.linalg.norm(np.roll(vertices, -1, axis=0) - vertices, axis=1)
    g_size = np.linalg.norm(grad, axis=1) + n / ell.sum()
    moment_size = float((np.linalg.norm(c, axis=1) * g_size).sum())
    return {
        "translation": float(np.linalg.norm(grad.sum(axis=0))) / float(g_size.sum()),
        "scale": abs(float((c * grad).sum())) / moment_size,
        "rotation": float(np.linalg.norm(np.cross(c, grad).sum(axis=0))) / moment_size,
    }


class PairKernels:
    """The O(n^2) kernels on a seeded random equilateral polygon and the regular n-gon."""

    name = "pair_kernels"
    tag = "pair"                   # prefix of its per-layer metric names

    def __init__(self, seed: int):
        self.seed = seed
        self.polygons = {}
        self._references = {}

    def setup(self, workdir: Path) -> None:
        self.polygons = {}
        for n in PAIR_SIZES:
            self.polygons["random", n] = polygon.random_equilateral_polygon(n, dim=3, seed=self.seed)
            self.polygons["regular", n] = polygon.regular_ngon(n, float(n), dim=3)

    def _reference(self, kind, n, scheme):
        key = kind, n, scheme
        if key not in self._references:
            if kind == "regular":
                self._references[key] = energies.regular_ngon_energy(n)
            else:
                self._references[key] = reference_energy(self.polygons[kind, n].vertices, scheme)
        return self._references[key]

    def _check_energy(self, kind, n, scheme, values):
        ref = self._reference(kind, n, scheme)
        tol = REGULAR_REL_TOL if kind == "regular" else REFERENCE_REL_TOL
        err = abs(values["value"] - ref) / ref
        return [] if err <= tol else [f"energy {values['value']!r} is {err:.2e} from {ref!r}"]

    @staticmethod
    def _gradient_values(p, grad):
        return {
            "digest": hashlib.sha256(np.ascontiguousarray(grad).tobytes()).hexdigest(),
            **invariance_residuals(p.vertices, grad),
        }

    @staticmethod
    def _check_gradient(values):
        return [
            f"{key} residual {values[key]:.2e}"
            for key in ("translation", "scale", "rotation")
            if not values[key] <= INVARIANCE_REL_TOL
        ]

    @staticmethod
    def _mindist_values(report):
        return {"value": report.value, "potential": report.diagnostics["potential"]}

    @staticmethod
    def _check_mindist(kind, values):
        if not (math.isfinite(values["value"]) and values["potential"] > 0.0):
            return [f"mindist energy {values['value']!r}, potential {values['potential']!r}"]
        # the regular n-gon is its own reference, so its excess is roundoff
        if kind == "regular" and abs(values["value"]) > REGULAR_REL_TOL * values["potential"]:
            return [f"regular n-gon mindist energy {values['value']!r} is not 0"]
        return []

    def ops(self):
        energy_values = lambda report: {"value": report.value}
        for n in PAIR_SIZES:
            for kind in ("random", "regular"):
                p = self.polygons[kind, n]
                label = f"{kind}.n{n}"
                schemes = ("forward", "averaged") if n <= SMALL_PAIR_MAX else ("forward",)
                for scheme in schemes:
                    yield Op(
                        f"discrete_energy.{scheme}.{label}",
                        partial(energies.discrete_moebius_energy, p, scheme=scheme),
                        energy_values,
                        partial(self._check_energy, kind, n, scheme),
                    )
                yield Op(
                    f"energy_gradient.{label}",
                    partial(optimize.energy_gradient, p),
                    partial(self._gradient_values, p),
                    self._check_gradient,
                )
                if n <= SMALL_PAIR_MAX:
                    yield Op(
                        f"mindist_energy.{label}",
                        partial(energies.minimum_distance_energy, p),
                        self._mindist_values,
                        partial(self._check_mindist, kind),
                    )

    LAYER_METRICS = (
        *(f"energies.discrete_moebius_energy.s_per_call.n{n}" for n in PAIR_SIZES),
        *(f"optimize.energy_gradient.s_per_call.n{n}" for n in PAIR_SIZES),
        *(f"energies.minimum_distance_energy.s_per_call.n{n}" for n in PAIR_SIZES if n <= SMALL_PAIR_MAX),
        "energies.discrete_moebius_energy.peak_mb.n4096",
        "optimize.energy_gradient.peak_mb.n4096",
        "energies.minimum_distance_energy.peak_mb.n1024",
        "polygon.random_equilateral_polygon.s_per_call.n4096",
        "polygon.random_equilateral_polygon.peak_mb.n4096",
    )

    def layer_metrics(self, tracer, values) -> dict:
        out = {}
        for name in self.LAYER_METRICS:
            layer, kind, size = name.rsplit(".", 2)
            measure = tracer.s_per_call if kind == "s_per_call" else tracer.peak_mb
            out[name] = measure(layer, int(size[1:]))
        return out


# ------------------------------------------------------------ recovery_trefoil

TREFOIL = {"kind": "torus_knot", "params": {"p": 2, "q": 3, "ring_radius": 2.0, "tube_radius": 1.0}}
STUDY_N = "64:2048:x2"
STUDY_INSCRIBE_TOL = 1e-9      # gamma_recovery_study's default inscription tolerance
STUDY_QUAD_TOL = 1e-8          # and its quadrature tolerance
MIN_SHRINK = 10.0              # criterion 5
# Row energies of the study at the commit that added this benchmark.
RECORDED_ENERGIES = {
    64: 79.51621107196982,
    128: 80.80229040056112,
    256: 81.35362145745778,
    512: 81.60536244708322,
    1024: 81.72515142077178,
    2048: 81.78351457214285,
}


def recovery_energy_bound(n: int) -> float:
    """Largest change of E_n that the study's inscription tolerance allows.

    An inscription within relative chord tolerance tau may move each vertex
    by up to tau * h along the curve (h = L/n).  A chord spanning k edges
    then changes by at most 2 tau / k relative, so its term, about 1/k^2 in
    the scale-free energy, changes by at most 4 tau / k^3.  The 2n ordered
    pairs at each separation give |dE| <= 8 zeta(3) n tau < 10 n tau.
    """
    return 10.0 * n * STUDY_INSCRIBE_TOL


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class RecoveryTrefoil:
    """``moebius-kit study gamma`` on the (2,3) trefoil, in-process through ``cli.main``.

    The input is fixed; the seed is recorded but selects nothing.
    """

    name = "recovery_trefoil"
    tag = "recovery"

    def __init__(self, seed: int):
        self.workdir = None
        self.curve_file = None
        self._passes = 0
        self._smooth = None

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.curve_file = workdir / "trefoil.json"
        self.curve_file.write_text(json.dumps(TREFOIL), encoding="utf-8")

    def _study(self, out_dir: Path) -> int:
        argv = ["study", "gamma", "--curve", str(self.curve_file), "--n", STUDY_N, "--out-dir", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    @staticmethod
    def _values(out_dir: Path, exit_code: int) -> dict:
        values = {"exit_code": exit_code}
        if exit_code == 0:
            report = json.loads((out_dir / "gamma.json").read_text(encoding="utf-8"))
            values.update(
                rows=[(row["n"], row["energy"]) for row in report["rows"]],
                gap_shrink=report["gap_shrink"],
                distance_shrink=report["distance_shrink"],
                reference_energy=report["reference_energy"],
                csv_sha256=_digest(out_dir / "gamma.csv"),
                json_sha256=_digest(out_dir / "gamma.json"),
                manifest=(out_dir / "run-manifest.json").is_file(),
            )
        return values

    def _smooth_reference(self):
        if self._smooth is None:
            curve = curves.load_curve(str(self.curve_file))
            self._smooth = energies.smooth_moebius_energy(curve, tol=STUDY_QUAD_TOL)
        return self._smooth

    def _check(self, values: dict) -> list:
        if values["exit_code"] != 0:
            return [f"exit code {values['exit_code']}"]
        problems = []
        if [n for n, _ in values["rows"]] != sorted(RECORDED_ENERGIES):
            problems.append(f"rows for n = {[n for n, _ in values['rows']]}")
        for n, energy in values["rows"]:
            if n in RECORDED_ENERGIES and abs(energy - RECORDED_ENERGIES[n]) > recovery_energy_bound(n):
                problems.append(f"E_{n} = {energy!r}, recorded {RECORDED_ENERGIES[n]!r}")
        for key in ("gap_shrink", "distance_shrink"):
            if not values[key] >= MIN_SHRINK:
                problems.append(f"{key} {values[key]!r} < {MIN_SHRINK}")
        if not values["manifest"]:
            problems.append("no run-manifest.json")
        smooth = self._smooth_reference()
        if smooth.diagnostics["converged"] is not True:
            problems.append("smooth reference did not converge")
        if smooth.value != values["reference_energy"]:
            problems.append(f"reference energy {values['reference_energy']!r}, quadrature {smooth.value!r}")
        return problems

    def ops(self):
        self._passes += 1
        out_dir = self.workdir / f"study-{self._passes}"
        yield Op(
            "study_gamma",
            partial(self._study, out_dir),
            partial(self._values, out_dir),
            self._check,
        )

    LAYER_METRICS = (
        "inscription.inscribe_equilateral.self_s",
        "inscription.inscribe_equilateral.s_per_call.n256",
        "inscription.inscribe_equilateral.s_per_call.n2048",
        "curves.ArcLengthCurve.point_at.calls",
        "inscription.brentq.calls",
        "energies.discrete_moebius_energy.self_s",
        "energies.smooth_moebius_energy.self_s",
        "energies.smooth_moebius_energy.levels",
        "polygon.curve_distance.self_s",
        "curves.load_curve.self_s",
        "experiments.gamma_recovery_study.self_s",
        "cli.main.self_s",
    )

    def layer_metrics(self, tracer, values) -> dict:
        out = {}
        for name in self.LAYER_METRICS:
            layer, kind = name.rsplit(".", 1)
            if kind == "self_s":
                out[name] = tracer.self_s(layer)
            elif kind == "calls":
                out[name] = tracer.counts[layer]
            elif kind == "levels":
                out[name] = sum(tracer.levels)
            else:
                layer, kind, size = name.rsplit(".", 2)
                out[name] = tracer.s_per_call(layer, int(size[1:]))
        return out


# ------------------------------------------------------------- descent_small_n

DESCENT_SIZES = (8, 16, 32, 64)
START_NOISE = 0.3              # per coordinate, in edge lengths, around the regular n-gon
START_ENTROPY = 0              # the perturbation is the same for every seed
EDGE_DEVIATION_MAX = 1e-9
GAP_FLOOR = -1e-9              # criterion 6: nothing beats the regular n-gon
CONVERGED_GAP_MAX = 1e-8       # criterion 7, on runs that end on a tolerance
# A run that stalls at the regular n-gon found no decrease at roundoff;
# one that stalls anywhere else is stuck, and fails the gap check.
CONVERGED = ("energy_tol", "gradient_tol", "stalled")


def descent_start(n: int, seed: int) -> polygon.ClosedPolygon:
    """A perturbed regular n-gon, moved and relabelled by the seed.

    As in criterion 7, the start is a perturbed planar regular n-gon,
    handed to the descent unprojected; here the edge is 1 and the noise is
    Gaussian in all three coordinates.  The noise is fixed.  The seed
    picks an orthogonal map, a translation and a cyclic shift of the
    labels, which change the input but not the energy, so every seed asks
    for the same descent up to roundoff.
    """
    regular = polygon.regular_ngon(n, float(n), dim=3).vertices
    noise = np.random.default_rng(np.random.SeedSequence(entropy=START_ENTROPY, spawn_key=(n,)))
    base = regular + START_NOISE * noise.standard_normal((n, 3))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n,)))
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    orthogonal = q * np.sign(np.diag(r))
    moved = np.roll(base, int(rng.integers(n)), axis=0) @ orthogonal.T + rng.standard_normal(3)
    return polygon.ClosedPolygon(moved)


class DescentSmallN:
    """Default-config descent from a perturbed regular n-gon per n, then rigid alignment."""

    name = "descent_small_n"
    tag = "descent"

    def __init__(self, seed: int):
        self.seed = seed
        self.starts = {}
        self._traces = {}

    def setup(self, workdir: Path) -> None:
        self.starts = {n: descent_start(n, self.seed) for n in DESCENT_SIZES}

    @staticmethod
    def _descent_values(n, trace):
        e = trace.energies
        return {
            "n": n,
            "termination": trace.termination,
            "iterations": trace.iterations,
            "energy": e[-1],
            "gap": trace.energy_gap,
            "nonincreasing": all(b <= a for a, b in zip(e, e[1:])),
            "edge_deviation": trace.final_polygon.equilaterality().max_edge_deviation,
        }

    @staticmethod
    def _check_descent(values):
        problems = []
        if values["termination"] == "barrier":
            problems.append("terminated barrier")
        if not values["nonincreasing"]:
            problems.append("energy trace increases")
        if not values["edge_deviation"] <= EDGE_DEVIATION_MAX:
            problems.append(f"edge deviation {values['edge_deviation']:.2e}")
        if not values["gap"] >= GAP_FLOOR:
            problems.append(f"gap {values['gap']!r} below the regular n-gon")
        if values["termination"] in CONVERGED and not values["gap"] < CONVERGED_GAP_MAX:
            problems.append(f"{values['termination']} with gap {values['gap']!r}")
        return problems

    def _descend(self, n):
        self._traces[n] = optimize.minimize_discrete_energy(self.starts[n])
        return self._traces[n]

    def _align(self, n):
        final = self._traces.pop(n).final_polygon
        return optimize.align_rigid(final, polygon.regular_ngon(n, final.total_length, dim=3))

    @staticmethod
    def _check_align(values):
        return [] if math.isfinite(values["rms"]) else [f"alignment residual {values['rms']!r}"]

    def ops(self):
        self._traces = {}
        for n in DESCENT_SIZES:
            yield Op(f"minimize.n{n}", partial(self._descend, n), partial(self._descent_values, n),
                     self._check_descent)
            yield Op(f"align_rigid.n{n}", partial(self._align, n), lambda result: {"rms": result[1]},
                     self._check_align)

    LAYER_METRICS = (
        "optimize.minimize_discrete_energy.iterations",
        "optimize.minimize_discrete_energy.iterations.n64",
        "optimize.minimize_discrete_energy.capped_runs",
        "optimize.minimize_discrete_energy.stalled_runs",
        "optimize.minimize_discrete_energy.self_s",
        "optimize.energy_gradient.calls",
        "optimize.energy_gradient.self_s",
        "energies.discrete_moebius_energy.calls",
        "energies.discrete_moebius_energy.self_s",
        "optimize.project_equilateral_closed.calls",
        "optimize.project_equilateral_closed.self_s",
        "optimize.linesearch.accept_ratio",
        "optimize.align_rigid.s_per_call.n64",
    )

    def layer_metrics(self, tracer, values) -> dict:
        runs = [v for name, v in values.items() if name.startswith("minimize.")]
        # every accepted step adds one energy to the trace after the first
        accepted = sum(v["iterations"] - 1 for v in runs)
        minimize = "optimize.minimize_discrete_energy"
        energy = "energies.discrete_moebius_energy"
        candidates = tracer.counts[energy] - tracer.counts[minimize]   # one initial evaluation per run
        out = {
            f"{minimize}.iterations": sum(v["iterations"] for v in runs),
            f"{minimize}.iterations.n64": sum(v["iterations"] for v in runs if v["n"] == 64),
            f"{minimize}.capped_runs": sum(v["termination"] == "max_iterations" for v in runs),
            f"{minimize}.stalled_runs": sum(v["termination"] == "stalled" for v in runs),
            f"{minimize}.self_s": tracer.self_s(minimize),
            "optimize.linesearch.accept_ratio": accepted / candidates,
            "optimize.align_rigid.s_per_call.n64": tracer.s_per_call("optimize.align_rigid", 64),
        }
        for layer in ("optimize.energy_gradient", energy, "optimize.project_equilateral_closed"):
            out[f"{layer}.calls"] = tracer.counts[layer]
            out[f"{layer}.self_s"] = tracer.self_s(layer)
        return out


WORKLOADS = {w.name: w for w in (PairKernels, RecoveryTrefoil, DescentSmallN)}
