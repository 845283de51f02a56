import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import moebius_kit as mk
from moebius_kit.errors import InputError
from moebius_kit.inscription import _march


def scalar_march(curve, n, c, step_bound):
    """Reference for ``_march``: vertex by vertex, scan in c/4 steps, then brentq.

    The chord from b_k is at most the arc, so b_k + c lies at or before
    the root; the first sign change past it, up to the cap, is bracketed
    by the scan.  Returns the partial march when no root lies within the cap.
    """
    L = curve.length
    cap = min(step_bound, 0.5 * L)
    xtol = 1e-15 * L
    b = [0.0]
    for _ in range(n - 1):
        origin = curve.point_at(b[-1])

        def gap(x):
            d = curve.point_at(x) - origin
            return math.sqrt(float(d @ d)) - c

        lo = b[-1] + c
        g_lo = gap(lo)
        if g_lo == 0.0:
            b.append(lo)
            continue
        if g_lo > 0.0:
            b.append(brentq(gap, b[-1] + 0.25 * c, lo, xtol=xtol))
            continue
        x, root = lo, None
        while x < b[-1] + cap:
            x_next = min(x + 0.25 * c, b[-1] + cap)
            if gap(x_next) >= 0.0:
                root = brentq(gap, x, x_next, xtol=xtol)
                break
            x = x_next
        if root is None:
            break
        b.append(root)
    return np.array(b)


def step_bound(curve, c):
    """The step bound ``inscribe_equilateral`` passes to ``_march``."""
    return 1.25 * curve.bilipschitz * c


def test_uniform_circle_hexagon(circle_2pi):
    polygon, spec = mk.inscribe_uniform(circle_2pi, 6)
    assert np.allclose(spec.chords, 2.0 * math.sin(math.pi / 6), atol=1e-12)
    bounds = spec.chord_bounds()
    assert bounds.c_min == pytest.approx(bounds.c_max, rel=1e-12)
    assert np.allclose(np.linalg.norm(polygon.vertices, axis=1), 1.0, atol=1e-10)


def test_uniform_chord_bounds_against_bilipschitz(trefoil):
    _, spec = mk.inscribe_uniform(trefoil, 64)
    bounds = spec.chord_bounds()
    assert bounds.c_max <= 1.0 + 1e-9                   # chords never beat arcs
    assert bounds.c_min >= 1.0 / trefoil.bilipschitz    # arc <= C_b * chord
    assert bounds.ratio <= trefoil.bilipschitz          # estimate already carries 5% headroom
    # dense chord scan: the normalized bounds hold on shifted subdivisions too
    for offset in (0.1, 0.5):
        b = (np.arange(64) * trefoil.length / 64 + offset) % trefoil.length
        chords = np.linalg.norm(
            trefoil.eval(np.roll(np.sort(b), -1)) - trefoil.eval(np.sort(b)), axis=1
        )
        assert 64 * chords.max() / trefoil.length <= 1.0 + 1e-9


def test_equilateral_circle_octagon(circle_2pi):
    polygon, spec = mk.inscribe_equilateral(circle_2pi, 8)
    assert np.allclose(spec.chords, 2.0 * math.sin(math.pi / 8), atol=1e-9)
    assert polygon.equilaterality().max_edge_deviation <= 1e-9


def test_equilateral_ellipse(ellipse_06):
    polygon, spec = mk.inscribe_equilateral(ellipse_06, 64, tol=1e-10)
    assert polygon.equilaterality().max_edge_deviation <= 1e-9
    total = spec.chords.sum()
    assert total <= ellipse_06.length
    # n * (L - total chord length) stays bounded as n grows
    slack = []
    for n in (64, 128, 256):
        _, sp = mk.inscribe_equilateral(ellipse_06, n)
        slack.append(n * (ellipse_06.length - sp.chords.sum()))
    assert max(slack) <= 1.5 * slack[0]


def test_equilateral_chord_decreases(trefoil):
    _, spec16 = mk.inscribe_equilateral(trefoil, 16)
    _, spec128 = mk.inscribe_equilateral(trefoil, 128)
    assert spec128.chords.mean() < spec16.chords.mean()


def test_equilateral_determinism(ellipse_06):
    p1, s1 = mk.inscribe_equilateral(ellipse_06, 32)
    p2, s2 = mk.inscribe_equilateral(ellipse_06, 32)
    assert np.array_equal(p1.vertices, p2.vertices)
    assert np.array_equal(s1.b, s2.b)


def test_vertices_lie_on_curve(trefoil):
    polygon, spec = mk.inscribe_equilateral(trefoil, 48)
    gap = np.linalg.norm(polygon.vertices - trefoil.eval(spec.b), axis=1)
    assert gap.max() <= 1e-10 * trefoil.length


def test_chord_never_exceeds_arc(trefoil, ellipse_06):
    for curve in (trefoil, ellipse_06):
        _, spec = mk.inscribe_equilateral(curve, 40)
        arcs = np.diff(np.append(spec.b, spec.b[0] + curve.length))
        assert np.all(spec.chords <= arcs + 1e-12 * curve.length)


def test_recovery_sequence_scaling(circle_1, trefoil):
    octagon = mk.recovery_sequence(circle_1, 8)
    assert octagon.total_length == pytest.approx(1.0, abs=1e-12)
    raw, _ = mk.inscribe_equilateral(trefoil, 24)
    recovered = mk.recovery_sequence(trefoil, 24)
    assert recovered.total_length == pytest.approx(trefoil.length, rel=1e-12)
    e_raw = mk.discrete_moebius_energy(raw).value
    e_rec = mk.discrete_moebius_energy(recovered).value
    assert e_rec == pytest.approx(e_raw, rel=1e-12)


def test_recovery_tangent_convergence(trefoil):
    dists = []
    for n in (16, 64, 256):
        p = mk.recovery_sequence(trefoil, n)
        dists.append(
            mk.curve_distance(
                p.scaled(1.0 / p.total_length),
                trefoil.scaled(1.0 / trefoil.length),
                norm="W1q",
                q=math.inf,
            )
        )
    assert dists[2] < dists[1] < dists[0]


def test_subdivision_spec_serialization(tmp_path, circle_2pi):
    _, spec = mk.inscribe_uniform(circle_2pi, 12)
    path = tmp_path / "spec.json"
    spec.write_json(path)
    import json

    data = json.loads(path.read_text())
    assert set(data) == {"b", "chords"}
    assert len(data["b"]) == 12


def test_preconditions(circle_2pi):
    with pytest.raises(InputError):
        mk.inscribe_uniform(circle_2pi, 2)
    with pytest.raises(InputError):
        mk.inscribe_equilateral(circle_2pi, 8, tol=1e-3)


def test_each_chord_length_marched_once(trefoil, monkeypatch):
    from moebius_kit import inscription

    marched = []
    march = inscription._march

    def recording(curve, n, c, step_bound):
        marched.append(c)
        return march(curve, n, c, step_bound)

    monkeypatch.setattr(inscription, "_march", recording)
    mk.inscribe_equilateral(trefoil, 64)
    assert len(marched) == len(set(marched))


def test_march_reports_infeasible_chord(trefoil):
    from moebius_kit.inscription import _march

    # a chord longer than the curve's diameter can never be realized
    partial = _march(trefoil, 8, 7.0, 0.5 * trefoil.length)
    assert len(partial) < 8


@pytest.mark.parametrize("n", [200, 2000])
def test_march_far_from_feasible_returns_prefix(trefoil, n):
    # with chords longer than the diameter the Newton iterates overflow; the
    # march still returns its certified prefix, without an error or a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        partial = _march(trefoil, n, 10.0, 0.5 * trefoil.length)
    assert len(partial) == 1


@pytest.fixture(scope="module")
def pentagon():
    return mk.arclength_reparametrize(mk.rounded_polygon(5, 1.0, 0.2))


@pytest.mark.parametrize("name", ["circle_2pi", "ellipse_06", "trefoil", "pentagon"])
@pytest.mark.parametrize("n", [24, 100, 1000])
def test_march_matches_scalar_reference(name, n, request):
    curve = request.getfixturevalue(name)
    c = float(mk.inscribe_uniform(curve, n)[1].chords.mean())
    reference = scalar_march(curve, n, c, step_bound(curve, c))
    b = _march(curve, n, c, step_bound(curve, c))
    assert len(reference) == n
    assert b.shape == reference.shape
    assert np.max(np.abs(b - reference)) <= 1e-12 * curve.length


@pytest.fixture(scope="module")
def knot_25():
    return mk.arclength_reparametrize(mk.torus_knot(2, 5, 2.0, 1.0))


@pytest.mark.parametrize("name", ["circle_2pi", "knot_25"])
@pytest.mark.parametrize("n", [8, 16, 24, 100])
def test_march_matches_scalar_reference_across_bracket(name, n, request):
    # the shooting tries chord lengths across [c_lo, c_hi]; at the large ones the
    # (2,5) knot's chord from b_k dips before it first reaches c
    curve = request.getfixturevalue(name)
    L = curve.length
    for c in np.linspace(L / (2.0 * n * curve.bilipschitz), 2.0 * L / n, 7):
        reference = scalar_march(curve, n, c, step_bound(curve, c))
        b = _march(curve, n, c, step_bound(curve, c))
        assert b.shape == reference.shape
        assert np.max(np.abs(b - reference)) <= 1e-12 * L


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(["ellipse_06", "trefoil", "pentagon"]), st.sampled_from([5, 8, 16, 64]),
       st.floats(0.0, 1.0))
def test_march_prefix_is_certified(trefoil, ellipse_06, pentagon, name, n, where):
    curve = {"ellipse_06": ellipse_06, "trefoil": trefoil, "pentagon": pentagon}[name]
    L = curve.length
    c_lo, c_hi = L / (2.0 * n * curve.bilipschitz), 2.0 * L / n
    c = c_lo + where * (c_hi - c_lo)
    cap = min(step_bound(curve, c), 0.5 * L)
    b = _march(curve, n, c, step_bound(curve, c))
    assert 1 <= len(b) <= n and b[0] == 0.0
    pts = curve.eval(b)
    chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    steps = np.diff(b)
    assert np.all(np.abs(chords - c) <= 1e-13 * L)
    assert np.all((steps >= 0.25 * c) & (steps <= cap))
    # each vertex is the first crossing: the chord stays below c on the scan grid before it
    for k, step in enumerate(steps):
        grid = np.arange(c, step - 1e-13 * L, 0.25 * c)
        if grid.size:
            probe = np.linalg.norm(curve.eval(b[k] + grid) - pts[k], axis=1)
            assert np.all(probe < c)
