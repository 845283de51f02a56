import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moebius_kit as mk
from moebius_kit import optimize
from moebius_kit.cli import format_value, main, parse_n_spec
from moebius_kit.errors import DoublePointError, InputError


@pytest.fixture()
def square_path(tmp_path):
    path = tmp_path / "square.json"
    mk.regular_ngon(4, 1.0).write_json(path)
    return str(path)


@pytest.fixture()
def circle_path(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"kind": "circle", "params": {"radius": 1.0}}))
    return str(path)


@pytest.fixture()
def pentagon_path(tmp_path):
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(
        {"kind": "rounded_polygon", "params": {"sides": 5, "circumradius": 1.0, "corner_radius": 0.2}}
    ))
    return str(path)


class TestNSpec:
    def test_forms(self):
        assert parse_n_spec("64") == [64]
        assert parse_n_spec("8:1024:x2") == [8, 16, 32, 64, 128, 256, 512, 1024]
        assert parse_n_spec("4:20:+4") == [4, 8, 12, 16, 20]
        assert parse_n_spec("8,16,32") == [8, 16, 32]

    def test_rejects(self):
        for bad in ("8:64:y2", "64:8:x2", "2", "8:64:x1", "a,b", "8:64:xinf", "8:64:x1.0000001"):
            with pytest.raises(InputError):
                parse_n_spec(bad)


def test_format_value_12_significant_digits():
    assert format_value(0.0) == "0.000000000000"
    assert format_value(1.0) == "1.00000000000"
    assert format_value(4.0) == "4.00000000000"
    assert len(format_value(1234.56789).replace(".", "").lstrip("0")) == 12
    assert "e" in format_value(1.5e15)


def test_energy_discrete(square_path, capsys):
    rc = main(["energy", "--polygon", square_path, "--kind", "discrete"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("vertices, arc", [
    ([[0, 0], [1, 0], [1, 1], [0, 1]], "separation"),
    ([[0, 0], [0.3, 0], [0.3, 0.2], [0, 0.2]], "parameters"),
], ids=["square", "rectangle"])
def test_energy_report_names_the_arc_form(tmp_path, vertices, arc):
    polygon, report = tmp_path / "polygon.json", tmp_path / "report.json"
    mk.ClosedPolygon(vertices).write_json(polygon)
    assert main(["energy", "--polygon", str(polygon), "--kind", "discrete", "--report", str(report)]) == 0
    assert json.loads(report.read_text())["diagnostics"]["arc"] == arc


def test_energy_mindist(square_path, capsys):
    rc = main(["energy", "--polygon", square_path, "--kind", "mindist"])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.0, abs=1e-12)


def test_energy_smooth(circle_path, capsys, tmp_path):
    report_path = tmp_path / "report.json"
    rc = main(
        ["energy", "--curve", circle_path, "--kind", "smooth", "--tol", "1e-8",
         "--report", str(report_path)]
    )
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(4.0, abs=1e-6)
    data = json.loads(report_path.read_text())
    assert set(data) == {"value", "terms", "scheme", "diagnostics"}
    assert data["diagnostics"]["converged"]


def test_energy_smooth_unconverged_exits_3(pentagon_path, capsys, tmp_path):
    # a C^{1,1} curve: its grids converge as m^-2, short of tol at m = 4096
    report_path = tmp_path / "report.json"
    rc = main(
        ["energy", "--curve", pentagon_path, "--kind", "smooth", "--tol", "1e-10",
         "--report", str(report_path)]
    )
    assert rc == 3
    captured = capsys.readouterr()
    assert float(captured.out.strip()) == pytest.approx(7.417201, abs=5e-6)
    assert "did not converge" in captured.err
    assert json.loads(report_path.read_text())["diagnostics"]["converged"] is False


REPORT_DIAGNOSTICS = {     # as listed in the README's --report paragraph
    "discrete": {"smallest_chord", "arc"},
    "mindist": {"potential", "regular_ngon_potential", "smallest_distance"},
    "smooth": {"converged", "levels", "grid", "last_estimates", "smallest_chord", "tol"},
}


@pytest.mark.parametrize("kind, source, extra, code", [
    ("discrete", "square", set(), 0),
    ("mindist", "square", set(), 0),
    ("mindist", "triangle", {"vacuous_sum"}, 0),
    ("smooth", "circle", set(), 0),
    ("smooth", "pentagon", set(), 3),   # unconverged: the same keys, converged false
], ids=["discrete", "mindist", "mindist-triangle", "smooth", "smooth-unconverged"])
def test_energy_report_diagnostics_are_the_documented_keys(kind, source, extra, code, square_path,
                                                           circle_path, pentagon_path, tmp_path, capsys):
    triangle = tmp_path / "triangle.json"
    mk.regular_ngon(3, 1.0).write_json(triangle)
    paths = {"square": square_path, "triangle": str(triangle), "circle": circle_path, "pentagon": pentagon_path}
    report = tmp_path / "report.json"
    flag = "--curve" if kind == "smooth" else "--polygon"
    assert main(["energy", "--kind", kind, flag, paths[source], "--report", str(report)]) == code
    capsys.readouterr()
    diagnostics = json.loads(report.read_text())["diagnostics"]
    assert set(diagnostics) == REPORT_DIAGNOSTICS[kind] | extra
    if kind == "smooth":
        assert diagnostics["converged"] is (code == 0)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("`--report` writes"):].split("\n\n")[0]
    assert all(f"`{key}`" in paragraph for key in diagnostics)


@pytest.mark.parametrize("study, n", [("rate", "8:128:x2"), ("gamma", "8,16"), ("liminf", "8,16,32")])
def test_study_with_unconverged_reference_exits_3(pentagon_path, study, n, capsys, tmp_path):
    out = tmp_path / study
    rc = main(["study", study, "--curve", pentagon_path, "--n", n, "--out-dir", str(out)])
    assert rc == 3
    assert "did not converge" in capsys.readouterr().err
    data = json.loads((out / f"{study}.json").read_text())
    assert data["reference_converged"] is False
    assert data["reference_energy"] == pytest.approx(7.417201, abs=5e-6)


def test_study_with_converged_reference_says_so(tmp_path, capsys):
    path = tmp_path / "ellipse.json"
    path.write_text(json.dumps({"kind": "ellipse", "params": {"a": 1.0, "b": 0.6}}))
    out = tmp_path / "gamma"
    assert main(["study", "gamma", "--curve", str(path), "--n", "8,16", "--out-dir", str(out)]) == 0
    assert json.loads((out / "gamma.json").read_text())["reference_converged"] is True
    assert capsys.readouterr().err == ""


def test_energy_rejects_terms_csv(square_path, circle_path, capsys, tmp_path):
    # the energies keep no per-pair terms, so --terms-csv is an unknown flag under every kind
    inputs = {"discrete": ["--polygon", square_path], "mindist": ["--polygon", square_path],
              "smooth": ["--curve", circle_path]}
    for kind, source in inputs.items():
        with pytest.raises(SystemExit) as exc:
            main(["energy", "--kind", kind, *source, "--terms-csv", str(tmp_path / "terms.csv"),
                  "--report", str(tmp_path / "report.json")])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --terms-csv" in captured.err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["circle.json", "square.json"]


def test_malformed_polygon_json_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    documents = [json.dumps(document).encode() for document in (
        {"vertices": [["a", "b"], [1, 0], [0, 1]]},             # not numbers
        {"vertices": [[0, 0], [1, 0, 2], [0, 1]]},              # ragged
        {"n": "three", "vertices": [[0, 0], [1, 0], [0, 1]]},
        {"n": 3.7, "vertices": [[0, 0], [1, 0], [0, 1]]},
    )] + [b"\xff\xfe{"]                                        # not UTF-8
    commands = (["energy", "--kind", "discrete"], ["energy", "--kind", "mindist"],
                ["minimize", "--out-dir", str(tmp_path / "run")])
    for document in documents:
        path.write_bytes(document)
        for command in commands:
            assert main([*command, "--polygon", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: cannot read polygon {str(path)!r}: ")
    assert not (tmp_path / "run").exists()
    # in a fresh process too: one error line, no traceback
    proc = subprocess.run([sys.executable, "-m", "moebius_kit.cli", "energy", "--kind", "discrete",
                           "--polygon", str(path)], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot read polygon ")
    assert len(proc.stderr.splitlines()) == 1


def test_energy_exit_codes(tmp_path, square_path, capsys):
    assert main(["energy", "--polygon", str(tmp_path / "nope.json"), "--kind", "discrete"]) == 1
    assert main(["energy", "--kind", "discrete"]) == 1
    double = tmp_path / "double.json"
    mk.ClosedPolygon([[0, 0], [1, 0], [0, 1e-15], [-1, 0]]).write_json(double)
    assert main(["energy", "--polygon", str(double), "--kind", "discrete"]) == 2
    capsys.readouterr()


def test_inscribe_uncertified_closing_chord_exits_3(tmp_path, capsys):
    # at n = 4 the trefoil's inscription ends uncertified: the command says so
    # on stderr, exits 3 and writes no polygon
    curve = tmp_path / "trefoil.json"
    curve.write_text(json.dumps({"kind": "torus_knot",
                                 "params": {"p": 2, "q": 3, "ring_radius": 2.0, "tube_radius": 1.0}}))
    out = tmp_path / "run"
    rc = main(["inscribe", "--curve", str(curve), "--n", "4", "--equilateral", "--out-dir", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: equilateral inscription for n=4 not certified")
    assert not (out / "polygon.json").exists()


def test_inscribe_writes_artifacts(circle_path, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["inscribe", "--curve", circle_path, "--n", "64", "--equilateral",
               "--out-dir", str(out)])
    assert rc == 0
    polygon = mk.ClosedPolygon.read_json(out / "polygon.json")
    assert polygon.equilaterality().max_edge_deviation <= 1e-9
    sub = json.loads((out / "subdivision.json").read_text())
    assert set(sub) == {"b", "chords"}
    assert len(sub["b"]) == 64
    # the chords are the polygon's edge lengths and b its parameters, bit for bit
    assert np.array_equal(sub["chords"], polygon.edge_lengths)
    assert np.array_equal(mk.load_curve(circle_path).eval(np.array(sub["b"])), polygon.vertices)
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert manifest["command"] == "inscribe"
    assert manifest["versions"]["moebius_kit"] == mk.__version__
    assert "threads" not in manifest
    assert manifest["config"]["tol"] == 1e-10
    capsys.readouterr()


def test_manifest_records_only_settings_in_effect(circle_path, square_path, tmp_path, capsys):
    def config(argv):
        out = tmp_path / argv[0].replace(" ", "-") / str(len(argv))
        assert main([*argv[0].split(), *argv[1:], "--out-dir", str(out)]) == 0
        return json.loads((out / "run-manifest.json").read_text())

    uniform = config(["inscribe", "--curve", circle_path, "--n", "16"])
    assert "tol" not in uniform["config"]
    given = config(["minimize", "--polygon", square_path])
    assert not {"n", "seed", "dim"} & set(given["config"])
    assert given["seed"] is None
    random_start = config(["minimize", "--n", "4", "--seed", "2"])
    assert {"n", "seed", "dim"} <= set(random_start["config"])
    inscribed = config(["study liminf", "--curve", circle_path, "--n", "16,32,64"])
    assert "seed" not in inscribed["config"]
    assert inscribed["seed"] is None
    capsys.readouterr()


def test_minimize_seeded(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["minimize", "--n", "8", "--seed", "3", "--out-dir", str(out)])
    assert rc == 0
    first_line = capsys.readouterr().out.splitlines()[0]
    assert float(first_line) >= mk.regular_ngon_energy(8) - 1e-9
    assert (out / "trace.csv").exists()
    final = mk.ClosedPolygon.read_json(out / "final-polygon.json")
    assert final.equilaterality().max_edge_deviation <= 1e-12


def test_minimize_reproducible(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["minimize", "--n", "10", "--seed", "5", "--out-dir", str(out)]) == 0
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert (out_a / "final-polygon.json").read_bytes() == (out_b / "final-polygon.json").read_bytes()
    ma = json.loads((out_a / "run-manifest.json").read_text())
    mb = json.loads((out_b / "run-manifest.json").read_text())
    ma.pop("timestamp"), mb.pop("timestamp")
    ma["config"].pop("out_dir"), mb["config"].pop("out_dir")
    assert ma == mb
    capsys.readouterr()


def test_minimize_iteration_budget_exits_3(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["minimize", "--n", "8", "--seed", "0", "--max-iter", "1", "--out-dir", str(out)])
    assert rc == 3
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 2
    assert "after 1 iterations (max_iterations)" in captured.out
    assert captured.err.startswith("error:")
    for name in ("trace.csv", "final-polygon.json", "run-manifest.json"):
        assert (out / name).exists()


def test_study_minimizers_all_flagged_exits_3(tmp_path, capsys):
    # one iteration ends every descent at the budget, so every row is flagged
    out = tmp_path / "run"
    rc = main(["study", "minimizers", "--n", "4,8", "--seeds", "10", "--max-iter", "1",
               "--out-dir", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n = 4, 8" in err
    rows = (out / "minimizers.csv").read_text().splitlines()
    flagged = rows[0].split(",").index("flagged")
    assert [row.split(",")[flagged] for row in rows[1:]] == ["1", "1"]
    for name in ("minimizers.json", "run-manifest.json"):
        assert (out / name).exists()


def test_minimize_barrier_exits_2(monkeypatch, tmp_path, capsys):
    def at_barrier(p):
        raise DoublePointError("vertices 0 and 2 meet", pair=(0, 2))

    monkeypatch.setattr(optimize, "energy_gradient", at_barrier)
    rc = main(["minimize", "--n", "8", "--seed", "0", "--out-dir", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "(barrier)" in captured.out
    assert captured.err.startswith("error:")
    for name in ("trace.csv", "final-polygon.json", "run-manifest.json"):
        assert (tmp_path / name).exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["minimize", "--n", "8", "--max-iter", "-1"],
        ["minimize", "--n", "8", "--step", "nan"],
        ["minimize", "--n", "8", "--step", "0"],
        ["minimize", "--n", "8", "--energy-tol", "nan"],
        ["minimize", "--n", "8", "--grad-tol", "inf"],
        ["minimize", "--n", "8", "--grad-tol=-1e-9"],
        ["study", "minimizers", "--n", "8,16", "--max-iter", "-2"],
    ],
)
def test_bad_descent_settings_exit_1(argv, tmp_path, capsys):
    # each of these used to crash, stall (exit 3) or stop at once (exit 0)
    out = tmp_path / "run"
    assert main([*argv, "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["minimize", "--n", "8", "--seed", "-1"],
    ["study", "liminf", "--n", "8,16,32", "--family", "perturbed", "--seed", "-3"],
])
def test_negative_seed_exits_1(argv, circle_path, tmp_path, capsys):
    # numpy's seeding used to end these in a ValueError traceback
    out = tmp_path / "run"
    if argv[0] == "study":
        argv = [*argv, "--curve", circle_path]
    assert main([*argv, "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: seed must be a nonnegative integer")
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, given", [
    (["study", "minimizers", "--n", "8", "--seed", "3"], "--seed 3"),   # once read as --seeds 3
    (["minimize", "--n", "8", "--max", "3"], "--max 3"),                 # once read as --max-iter 3
])
def test_flag_prefixes_are_not_accepted(argv, given, tmp_path, capsys):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(out)])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {given}" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "descriptor",
    [
        {"kind": "samples", "params": {}},
        [1, 2],
        {"kind": "circle", "params": [1.0]},
        {"samples": [[1.0, 2.0], [3.0]]},
    ],
)
def test_bad_curve_descriptor_exits_1(descriptor, tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(descriptor))
    assert main(["energy", "--curve", str(path), "--kind", "smooth"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "descriptor",
    [
        '{"kind": "ellipse", "params": {"a": Infinity, "b": 1}}',
        '{"kind": "circle", "params": {"radius": NaN}}',
        '{"kind": "torus_knot", "params": {"p": 2, "q": 3, "ring_radius": Infinity, "tube_radius": 1}}',
        '{"kind": "rounded_polygon", "params": {"sides": Infinity}}',
    ],
)
@pytest.mark.parametrize("command", [["energy", "--kind", "smooth"], ["inscribe", "--n", "8"]])
def test_non_finite_curve_parameters_exit_1(descriptor, command, tmp_path, capsys):
    # these used to refine the arc-length table for seconds and exit 3, or
    # end in an OverflowError traceback
    out = tmp_path / "run"
    argv = [*command, "--curve", descriptor]
    if command[0] == "inscribe":
        argv += ["--out-dir", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""
    assert not out.exists()


def test_study_rate(circle_path, tmp_path, capsys):
    out = tmp_path / "rate"
    rc = main(["study", "rate", "--curve", circle_path, "--n", "8:128:x2",
               "--out-dir", str(out), "--plot-data"])
    assert rc == 0
    data = json.loads((out / "rate.json").read_text())
    assert 0.85 <= data["rate"] <= 1.15
    rows = (out / "rate.csv").read_text().strip().splitlines()
    assert rows[0] == "n,energy,gap"
    assert len((out / "rate.dat").read_text().strip().splitlines()) == len(rows) - 1
    capsys.readouterr()


def test_study_liminf(circle_path, tmp_path, capsys):
    out = tmp_path / "liminf"
    rc = main(["study", "liminf", "--curve", circle_path, "--n", "128,256,512",
               "--family", "perturbed", "--out-dir", str(out)])
    assert rc == 0
    data = json.loads((out / "liminf.json").read_text())
    assert data["liminf_ok"] is True
    capsys.readouterr()


def test_polygon_roundtrip_through_cli(circle_path, tmp_path, capsys):
    out = tmp_path / "run"
    main(["inscribe", "--curve", circle_path, "--n", "16", "--out-dir", str(out)])
    polygon = mk.ClosedPolygon.read_json(out / "polygon.json")
    back = tmp_path / "copy.json"
    polygon.write_json(back)
    again = mk.ClosedPolygon.read_json(back)
    assert np.array_equal(polygon.vertices, again.vertices)
    capsys.readouterr()


def test_console_entry_point(square_path):
    proc = subprocess.run(
        [sys.executable, "-m", "moebius_kit.cli", "energy", "--polygon", square_path,
         "--kind", "discrete"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == pytest.approx(1.0, abs=1e-12)


def test_bad_usage_exits_1():
    proc = subprocess.run(
        [sys.executable, "-m", "moebius_kit.cli", "energy", "--kind", "bogus"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1


def test_minimize_reports_rejected_trial_steps(tmp_path, capsys):
    rc = main(["minimize", "--n", "8", "--seed", "0", "--out-dir", str(tmp_path)])
    assert rc == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    trace = mk.minimize_discrete_energy(mk.random_equilateral_polygon(8, dim=3, seed=0))
    assert summary.endswith(f"), {trace.rejected_steps} rejected trial steps")
    header = (tmp_path / "trace.csv").read_text().splitlines()[0]
    assert header == "iter,energy,grad_norm,step"
