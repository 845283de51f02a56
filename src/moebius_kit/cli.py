"""Command-line front end: energies, inscription, minimization, studies.

Every artifact-producing run writes a ``run-manifest.json`` capturing the
resolved configuration, seed, and library versions; identical
configurations produce byte-identical artifacts (manifest timestamp
aside).  Exit codes: 0 success, 1 input error, 2 mathematical singularity
(infinite energy, non-embedded curve), 3 non-convergence, a study's smooth
reference energy and a flagged study row (no descent converged) included.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .curves import load_curve
from .energies import (
    discrete_moebius_energy,
    minimum_distance_energy,
    smooth_moebius_energy,
)
from .errors import ConvergenceError, InputError, SingularityError
from .experiments import (
    convergence_study,
    gamma_recovery_study,
    liminf_spotcheck,
    minimizer_study,
)
from .inscription import inscribe_equilateral, inscribe_uniform
from .optimize import OptimizerConfig, minimize_discrete_energy
from .polygon import ClosedPolygon, random_equilateral_polygon


def format_value(x: float) -> str:
    """Fixed 12-significant-digit rendering used for all printed values."""
    if x == 0.0:
        return "0.000000000000"
    if not math.isfinite(x):
        return repr(x)
    exponent = math.floor(math.log10(abs(x)))
    if -4 <= exponent < 12:
        return f"{x:.{max(0, 11 - exponent)}f}"
    return f"{x:.11e}"


def parse_n_spec(spec: str) -> list[int]:
    """Parse '64', '8,16,32', geometric 'a:b:x2', or arithmetic 'a:b:+k' lists."""
    s = str(spec).strip()
    try:
        if ":" in s:
            parts = s.split(":")
            if len(parts) != 3:
                raise InputError(f"bad n spec {spec!r}: expected a:b:x<f> or a:b:+<k>")
            a, b, step = int(parts[0]), int(parts[1]), parts[2]
            values = []
            if step.startswith("x"):
                factor = float(step[1:])
                if factor <= 1.0:
                    raise InputError("geometric factor must exceed 1")
                x = float(a)
                while round(x) <= b:
                    values.append(int(round(x)))
                    if len(values) > 1 and values[-1] == values[-2]:
                        break   # a factor this close to 1 never gets strictly increasing
                    x *= factor
            elif step.startswith("+"):
                inc = int(step[1:])
                if inc <= 0:
                    raise InputError("arithmetic increment must be positive")
                values = list(range(a, b + 1, inc))
            else:
                raise InputError(f"bad n spec {spec!r}: step must start with 'x' or '+'")
        elif "," in s:
            values = [int(x) for x in s.split(",")]
        else:
            values = [int(s)]
    except (ValueError, OverflowError):
        raise InputError(f"bad n spec {spec!r}") from None
    if not values or values[0] < 3 or any(y <= x for x, y in zip(values, values[1:])):
        raise InputError(f"n spec {spec!r} must be strictly increasing with n >= 3")
    return values


def _write_manifest(out_dir: Path, command: str, args, seed=None, unused=()) -> None:
    """Write ``run-manifest.json``; ``unused`` names parsed settings this run ignored."""
    config = {
        k: v for k, v in sorted(vars(args).items())
        if k != "func" and not k.startswith("_") and k not in unused
    }
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "versions": {
            "moebius_kit": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(out_dir / "run-manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _ensure_dir(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_polygon(path: str) -> ClosedPolygon:
    try:
        return ClosedPolygon.read_json(path)
    except (ValueError, TypeError, InputError) as exc:     # ValueError: bad JSON or not UTF-8
        raise InputError(f"cannot read polygon {path!r}: {exc}") from None


def cmd_energy(args) -> int:
    if args.kind in ("discrete", "mindist"):
        if not args.polygon:
            raise InputError(f"--kind {args.kind} needs --polygon")
        polygon = _load_polygon(args.polygon)
        if args.kind == "discrete":
            report = discrete_moebius_energy(polygon, scheme=args.scheme)
        else:
            report = minimum_distance_energy(polygon)
    else:
        if not args.curve:
            raise InputError("--kind smooth needs --curve")
        curve = load_curve(args.curve)
        report = smooth_moebius_energy(curve, tol=args.tol)
    print(format_value(report.value))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    if args.kind == "smooth" and not report.diagnostics["converged"]:
        print(f"error: smooth quadrature did not converge to tol {args.tol:g} "
              f"on {report.diagnostics['levels']} grids up to m = {report.diagnostics['grid']}",
              file=sys.stderr)
        return 3
    return 0


def cmd_inscribe(args) -> int:
    curve = load_curve(args.curve)
    n = int(args.n)
    if args.equilateral:
        polygon, b = inscribe_equilateral(curve, n, tol=args.tol)
    else:
        polygon, b = inscribe_uniform(curve, n)
    out_dir = _ensure_dir(args.out_dir)
    polygon.write_json(out_dir / "polygon.json")
    with open(out_dir / "subdivision.json", "w", encoding="utf-8") as fh:
        json.dump({"b": b.tolist(), "chords": polygon.edge_lengths.tolist()}, fh, sort_keys=True)
        fh.write("\n")
    _write_manifest(out_dir, "inscribe", args, unused=() if args.equilateral else ("tol",))
    c_min = n * float(polygon.edge_lengths.min()) / curve.length
    c_max = n * float(polygon.edge_lengths.max()) / curve.length
    cert = polygon.equilaterality()
    print(
        f"n={n} chords normalized to [{format_value(c_min)}, {format_value(c_max)}]"
        f" edge deviation {cert.max_edge_deviation:.3e}"
    )
    return 0


def cmd_minimize(args) -> int:
    cfg = OptimizerConfig(
        max_iterations=args.max_iter,
        initial_step=args.step,
        grad_tol=args.grad_tol,
        energy_tol=args.energy_tol,
    )
    if args.polygon:
        start = _load_polygon(args.polygon)
        seed = None
    else:
        if args.n is None:
            raise InputError("minimize needs --polygon or --n")
        seed = args.seed
        start = random_equilateral_polygon(int(args.n), dim=args.dim, seed=seed)
    trace = minimize_discrete_energy(start, cfg)
    out_dir = _ensure_dir(args.out_dir)
    trace.write_csv(out_dir / "trace.csv")
    trace.final_polygon.write_json(out_dir / "final-polygon.json")
    # a start read from --polygon leaves the random-start settings unused
    _write_manifest(out_dir, "minimize", args, seed=seed,
                    unused=("n", "seed", "dim") if args.polygon else ())
    print(format_value(trace.energies[-1]))
    print(
        f"gap to regular n-gon {format_value(trace.energy_gap)}"
        f" after {trace.iterations} iterations ({trace.termination}),"
        f" {trace.rejected_steps} rejected trial steps"
    )
    if trace.termination == "max_iterations":
        print(f"error: descent hit the iteration budget of {args.max_iter} without converging",
              file=sys.stderr)
        return 3
    if trace.termination == "stalled":
        print("error: descent stalled: no step along the descent direction lowers the energy",
              file=sys.stderr)
        return 3
    if trace.termination == "barrier":
        print(f"error: descent stopped at the double-point barrier, vertex pair {trace.barrier_pair}",
              file=sys.stderr)
        return 2
    return 0


def _study(args, kind: str, report, summary: str, seed=None, unused=()) -> int:
    """Write the study's artifacts and manifest and print ``summary``.

    Returns 0, or 3 with a message when the study has a smooth reference
    energy and it did not converge, or when a row is flagged.
    """
    out_dir = _ensure_dir(args.out_dir)
    report.write_csv(out_dir / f"{kind}.csv")
    report.write_json(out_dir / f"{kind}.json")
    if args.plot_data:
        report.write_plot_data(out_dir / f"{kind}.dat")
    _write_manifest(out_dir, f"study {kind}", args, seed=seed, unused=unused)
    print(summary)
    if not report.fields.get("reference_converged", True):
        print("error: smooth quadrature of the reference energy did not converge "
              "(reference_converged is false in the report)", file=sys.stderr)
        return 3
    flagged = [str(row["n"]) for row in report.rows if row.get("flagged")]
    if flagged:
        print(f"error: no descent converged at n = {', '.join(flagged)} (flagged in the report)",
              file=sys.stderr)
        return 3
    return 0


def cmd_study_rate(args) -> int:
    report = convergence_study(load_curve(args.curve), parse_n_spec(args.n), mode=args.mode)
    return _study(args, "rate", report, f"rate {format_value(report.fields['rate'])}")


def cmd_study_gamma(args) -> int:
    report = gamma_recovery_study(load_curve(args.curve), parse_n_spec(args.n))
    return _study(args, "gamma", report,
                  f"gap shrink {format_value(report.fields['gap_shrink'])}"
                  f" distance shrink {format_value(report.fields['distance_shrink'])}")


def cmd_study_minimizers(args) -> int:
    cfg = OptimizerConfig(max_iterations=args.max_iter)
    report = minimizer_study(parse_n_spec(args.n), seeds=args.seeds, dim=args.dim, cfg=cfg)
    return _study(args, "minimizers", report,
                  f"circle distances decreasing: {report.fields['distances_decreasing']}",
                  seed=args.seeds)


def cmd_study_liminf(args) -> int:
    report = liminf_spotcheck(load_curve(args.curve), args.family, parse_n_spec(args.n), seed=args.seed)
    # only the perturbed family draws random numbers
    perturbed = args.family == "perturbed"
    return _study(args, "liminf", report,
                  f"liminf check {'ok' if report.fields['liminf_ok'] else 'violated'}"
                  f" (invalid={report.fields['invalid']})",
                  seed=args.seed if perturbed else None, unused=() if perturbed else ("seed",))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):     # no flag prefixes: --seed must not mean --seeds
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # bad usage is an input error: exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="moebius-kit", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("energy", help="evaluate an energy functional")
    p.add_argument("--polygon", help="polygon JSON path")
    p.add_argument("--curve", help="curve descriptor JSON path")
    p.add_argument("--kind", choices=("discrete", "mindist", "smooth"), required=True)
    p.add_argument("--scheme", choices=("forward", "averaged"), default="forward")
    p.add_argument("--tol", type=float, default=1e-8, help="quadrature tolerance (smooth)")
    p.add_argument("--report", help="write the energy report JSON here")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("inscribe", help="inscribe a polygon in a curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--equilateral", action="store_true")
    p.add_argument("--tol", type=float, default=1e-10, help="relative chord tolerance")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_inscribe)

    p = sub.add_parser("minimize", help="minimize the discrete energy over equilateral polygons")
    p.add_argument("--polygon", help="starting polygon JSON (else seeded random)")
    p.add_argument("--n", type=int, help="random start: vertex count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, choices=(2, 3), default=3)
    p.add_argument("--max-iter", type=int, default=5000)
    p.add_argument("--step", type=float, default=1.0,
                   help="first trial step, dimensionless: a multiple of the Sobolev-metric "
                        "descent direction, which scales like a length")
    p.add_argument("--grad-tol", type=float, default=1e-9)
    p.add_argument("--energy-tol", type=float, default=1e-14)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_minimize)

    study = sub.add_parser("study", help="run a reproducible study")
    ssub = study.add_subparsers(dest="study_kind", required=True)

    p = ssub.add_parser("rate", help="convergence rate of inscribed-polygon energies")
    p.add_argument("--curve", required=True)
    p.add_argument("--n", required=True, help="n list, e.g. 8:1024:x2")
    p.add_argument("--mode", choices=("uniform", "equilateral"), default="uniform")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--plot-data", action="store_true", help="emit gnuplot-ready .dat files")
    p.set_defaults(func=cmd_study_rate)

    p = ssub.add_parser("gamma", help="recovery-sequence energies and distances")
    p.add_argument("--curve", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--plot-data", action="store_true")
    p.set_defaults(func=cmd_study_gamma)

    p = ssub.add_parser("minimizers", help="descent from random equilateral polygons")
    p.add_argument("--n", required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--dim", type=int, choices=(2, 3), default=3)
    p.add_argument("--max-iter", type=int, default=5000)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--plot-data", action="store_true")
    p.set_defaults(func=cmd_study_minimizers)

    p = ssub.add_parser("liminf", help="lower-bound spot checks along converging families")
    p.add_argument("--curve", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--family", choices=("inscribed", "perturbed"), default="inscribed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--plot-data", action="store_true")
    p.set_defaults(func=cmd_study_liminf)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
