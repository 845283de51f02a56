import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moebius_kit as mk
from moebius_kit import polygon
from moebius_kit.errors import ConvergenceError, DoublePointError, InputError
from moebius_kit.polygon import ClosedPolygon, close_equilateral, inverse_square_chord_blocks

# (n, dim, seed) of a random Gaussian chain
chains = st.tuples(st.integers(3, 64), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))


def gaussian_chain(n, dim, seed):
    return np.random.default_rng(seed).standard_normal((n, dim))


def test_regular_square():
    sq = mk.regular_ngon(4, 1.0)
    assert np.allclose(sq.edge_lengths, 0.25, atol=1e-15)
    diag = np.linalg.norm(sq.vertices[2] - sq.vertices[0])
    assert diag == pytest.approx(math.sqrt(2) / 4, abs=1e-15)


def test_regular_hexagon_circumradius():
    hexagon = mk.regular_ngon(6, 1.0)
    assert np.allclose(np.linalg.norm(hexagon.vertices, axis=1), 1.0 / 6.0, atol=1e-15)


def test_regular_triangle_unit_edges():
    tri = mk.regular_ngon(3, 3.0)
    assert np.allclose(tri.edge_lengths, 1.0, atol=1e-14)


@pytest.mark.parametrize("n", [3, 4, 7, 64, 512, 4096])
def test_regular_ngon_certificate(n):
    cert = mk.regular_ngon(n, 1.0).equilaterality()
    assert cert.max_edge_deviation <= 1e-12


def test_regular_ngon_rejects_small_n():
    with pytest.raises(InputError):
        mk.regular_ngon(2, 1.0)


def test_regular_ngon_in_3d_lies_in_xy_plane():
    g = mk.regular_ngon(5, 1.0, dim=3)
    assert g.dim == 3
    assert np.all(g.vertices[:, 2] == 0.0)
    assert g.total_length == pytest.approx(1.0, abs=1e-14)


def test_chord_length_regular_values():
    assert mk.chord_length_regular(4, 2, 1.0) == pytest.approx(math.sqrt(2) / 4, abs=1e-15)
    assert mk.chord_length_regular(6, 3, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert mk.chord_length_regular(4, 1, 1.0) == pytest.approx(0.25, abs=1e-16)
    for n, k in ((5, 2), (9, 4)):
        assert mk.chord_length_regular(n, k, 1.0) == pytest.approx(
            mk.chord_length_regular(n, n - k, 1.0), abs=1e-15
        )
    with pytest.raises(InputError):
        mk.chord_length_regular(5, 5, 1.0)


def test_random_equilateral_triangle_is_rigid_unit_triangle():
    tri = mk.random_equilateral_polygon(3, dim=2, seed=11)
    gaps = np.linalg.norm(tri.vertices - np.roll(tri.vertices, -1, axis=0), axis=1)
    assert np.allclose(gaps, 1.0, atol=1e-10)
    # all three pairwise distances equal 1: congruent to the unit triangle
    assert np.linalg.norm(tri.vertices[2] - tri.vertices[0]) == pytest.approx(1.0, abs=1e-10)


def test_random_equilateral_polygon_postconditions():
    p = mk.random_equilateral_polygon(40, dim=3, seed=7)
    cert = p.equilaterality()
    assert cert.max_edge_deviation <= 1e-9
    assert cert.closure_residual <= 1e-12
    again = mk.random_equilateral_polygon(40, dim=3, seed=7)
    assert np.array_equal(p.vertices, again.vertices)
    with pytest.raises(InputError, match="seed must be a nonnegative integer"):
        mk.random_equilateral_polygon(40, dim=3, seed=-1)


def chord_kernel_sampler(n, dim, seed):
    """The sampler with the O(n^2) chord kernel as its double-point certificate."""
    for attempt in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        try:
            e = polygon.close_equilateral(rng.standard_normal((n, dim)), 1.0)
            p = ClosedPolygon(np.vstack([np.zeros(dim), np.cumsum(e[:-1], axis=0)]))
            for _ in inverse_square_chord_blocks(p, 1e-9):
                pass
        except (ConvergenceError, DoublePointError):
            continue
        return p
    raise ConvergenceError(f"could not close a random equilateral {n}-gon for seed {seed}")


def test_sampler_matches_the_chord_kernel_certificate_bitwise(monkeypatch):
    # both samplers close the same draws, so each closure runs once; about 50
    # attempts among the small draws come within 1e-9 of a double point
    closed = {}

    def close_once(edges, length):
        key = edges.tobytes()
        if key not in closed:
            try:
                closed[key] = close_equilateral(edges, length)
            except ConvergenceError as exc:
                closed[key] = exc
        if isinstance(closed[key], ConvergenceError):
            raise closed[key]
        return closed[key].copy()

    monkeypatch.setattr(polygon, "close_equilateral", close_once)
    draws = [(n, dim, seed) for dim in (2, 3) for n in range(3, 41) for seed in range(30)]
    draws += [(n, 3, seed) for n in (256, 1024, 4096) for seed in (0, 1)]
    for n, dim, seed in draws:
        got = mk.random_equilateral_polygon(n, dim=dim, seed=seed).vertices
        assert got.tobytes() == chord_kernel_sampler(n, dim, seed).vertices.tobytes(), (n, dim, seed)
        closed.clear()


def test_sampler_redraws_a_double_point(monkeypatch):
    # attempt 0 closes to the bow-tie e, -e, e, -e, whose vertices 0 and 2 coincide
    calls = []

    def bow_tie_first(edges, length):
        calls.append(edges)
        if len(calls) == 1:
            e = np.array([1.0, 0.0, 0.0])
            return np.array([e, -e, e, -e])
        return close_equilateral(edges, length)

    monkeypatch.setattr(polygon, "close_equilateral", bow_tie_first)
    p = mk.random_equilateral_polygon(4, dim=3, seed=5)
    assert len(calls) == 2
    rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(1,)))
    e = close_equilateral(rng.standard_normal((4, 3)), 1.0)
    assert p.vertices.tobytes() == np.vstack([np.zeros(3), np.cumsum(e[:-1], axis=0)]).tobytes()


def test_sampler_peak_memory():
    # the chord kernel's row blocks bound the other pair kernels at 16 MB traced
    tracemalloc.start()
    try:
        mk.random_equilateral_polygon(4096, dim=3, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@settings(deadline=None)
@given(chains, st.floats(0.1, 10.0))
def test_closure_postconditions(chain, length):
    e = close_equilateral(gaussian_chain(*chain), length)
    assert np.abs(np.linalg.norm(e, axis=1) - length).max() <= 1e-12 * length
    assert np.linalg.norm(e.sum(axis=0)) < 1e-12


@settings(deadline=None)
@given(chains)
def test_projection_keeps_centroid(chain):
    v = gaussian_chain(*chain)
    out = mk.project_equilateral_closed(v)
    assert np.linalg.norm(out.vertices.mean(axis=0) - v.mean(axis=0)) <= 1e-12


@pytest.mark.parametrize(
    "edges",
    [[[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]]],
    ids=["collapse", "stall"],
)
def test_collinear_triangle_cannot_close(edges):
    with pytest.raises(ConvergenceError):
        close_equilateral(edges, 1.0)


@pytest.mark.parametrize("scale", [1e-4, 1e4])
def test_closure_bound_scales_with_edge_length(scale):
    # at edge length 1e4 roundoff alone leaves |sum of edges| near 1e-12
    p = mk.random_equilateral_polygon(64, 3, seed=0).scaled(scale)
    e = close_equilateral(p.edge_vectors(), scale)
    assert np.abs(np.linalg.norm(e, axis=1) - scale).max() <= 1e-12 * scale
    assert np.linalg.norm(e.sum(axis=0)) < 1e-12 * scale
    out = mk.project_equilateral_closed(p.vertices)
    assert out.equilaterality().max_edge_deviation <= 1e-12
    assert np.abs(out.vertices - p.vertices).max() <= 1e-12 * p.total_length


def chord_matrix(v):
    """1 / |v_i - v_j|^2 pair by pair, zero on the diagonal and on consecutive pairs."""
    n = len(v)
    Q = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if (j - i) % n not in (0, 1, n - 1):
                Q[i, j] = 1.0 / np.sum((v[i] - v[j]) ** 2)
    return Q


@pytest.mark.filterwarnings("error::RuntimeWarning")   # a wrongly masked triangle divides by 0
@pytest.mark.parametrize("block_pairs", [1, 7 * 13 + 3, 13**2])
def test_chord_blocks_tile_the_pair_matrix(monkeypatch, block_pairs):
    p = mk.random_equilateral_polygon(13, dim=3, seed=2)
    monkeypatch.setattr(polygon, "BLOCK_PAIRS", block_pairs)
    blocks = list(polygon.inverse_square_chord_blocks(p, 1e-9))
    tiled = np.zeros((13, 13))
    covered = []
    for r0, Q, _ in blocks:
        assert Q.shape == (min(max(1, block_pairs // (13 - r0)), 12 - r0), 13 - r0)
        covered += range(r0, r0 + len(Q))
        assert np.all(Q[np.tri(*Q.shape, dtype=bool)] == 0.0)     # j <= i
        tiled[r0:r0 + len(Q), r0:] = Q
    assert covered == list(range(12))   # rows 0 .. n - 2, each in exactly one block
    np.testing.assert_allclose(tiled, np.triu(chord_matrix(p.vertices), 1), rtol=1e-15, atol=0.0)
    gaps = np.linalg.norm(p.vertices[:, None] - p.vertices[None], axis=2)[~np.eye(13, dtype=bool)]
    assert min(smallest for _, _, smallest in blocks) == pytest.approx(gaps.min(), rel=1e-15)


def test_double_point_in_a_later_block(monkeypatch):
    v = mk.regular_ngon(8, 1.0).vertices.copy()
    v[6] = v[2]
    p = mk.ClosedPolygon(v)
    monkeypatch.setattr(polygon, "BLOCK_PAIRS", 1)   # one row per block
    blocks = polygon.inverse_square_chord_blocks(p, 1e-9)
    assert [next(blocks)[0] for _ in range(2)] == [0, 1]
    with pytest.raises(DoublePointError) as err:
        next(blocks)
    assert err.value.pair == (2, 6)
    with pytest.raises(DoublePointError) as err:
        mk.discrete_moebius_energy(p)
    assert err.value.pair == (2, 6)


def test_polygon_eval():
    sq = mk.regular_ngon(4, 1.0)
    mid = sq.eval(0.125)[0]
    assert np.allclose(mid, 0.5 * (sq.vertices[0] + sq.vertices[1]), atol=1e-15)
    at_nodes = sq.eval(sq.arc_params)
    assert np.allclose(at_nodes, sq.vertices, atol=1e-15)
    assert np.allclose(sq.eval(sq.total_length)[0], sq.vertices[0], atol=1e-15)


def test_polygon_eval_unit_speed_within_edges():
    p = mk.random_equilateral_polygon(12, dim=3, seed=4)
    rng = np.random.default_rng(0)
    t = p.arc_params[3] + rng.uniform(0.05, 0.45, size=64)
    h = 0.4
    gap = np.linalg.norm(p.eval(t + h) - p.eval(t), axis=1)
    same_edge = (t + h) < p.arc_params[4]  # both samples inside edge 3
    assert np.any(same_edge)
    assert np.all(np.abs(gap[same_edge] - h) <= 1e-14)


def test_zero_edge_rejected():
    with pytest.raises(InputError):
        mk.ClosedPolygon([[0, 0], [0, 0], [1, 0]])


def test_polygon_json_roundtrip(tmp_path):
    p = mk.random_equilateral_polygon(9, dim=3, seed=1)
    path = tmp_path / "p.json"
    p.write_json(path)
    q = mk.ClosedPolygon.read_json(path)
    assert np.array_equal(p.vertices, q.vertices)
    data = json.loads(path.read_text())
    assert data["n"] == 9 and data["dim"] == 3
    bad = dict(data, n=11)
    with pytest.raises(InputError):
        mk.ClosedPolygon.from_dict(bad)


@pytest.mark.parametrize("vertices", [
    [["a", "b"], [1, 0], [0, 1]],
    [[0, 0], [1, 0, 2], [0, 1]],
    [[0, 0], [1, 0], {"x": 0}],
], ids=["strings", "ragged", "mapping"])
def test_non_numeric_vertices_rejected(vertices):
    with pytest.raises(InputError, match="vertices must be an array of numbers"):
        mk.ClosedPolygon(vertices)


@pytest.mark.parametrize("field, claim", [("n", "three"), ("n", 3.7), ("n", "3"), ("dim", 2.5), ("dim", "2")])
def test_polygon_json_claims_compared_as_given(field, claim):
    # a count that is no integer, or is a string, never matches the vertices
    data = {"vertices": [[0, 0], [1, 0], [0, 1]], field: claim}
    with pytest.raises(InputError, match=f"claims {field}="):
        mk.ClosedPolygon.from_dict(data)


def test_polygon_json_integral_float_claims_accepted():
    p = mk.ClosedPolygon.from_dict({"n": 3.0, "dim": 2.0, "vertices": [[0, 0], [1, 0], [0, 1]]})
    assert (p.n, p.dim) == (3, 2)


def test_curve_distance_identity(circle_1):
    for norm, q in (("Lq", 1), ("Lq", 2), ("Lq", math.inf), ("W1q", 2), ("W1q", math.inf)):
        assert mk.curve_distance(circle_1, circle_1, norm=norm, q=q) == 0.0


def test_curve_distance_translated_circle(circle_1):
    h = 0.01
    shifted = mk.arclength_reparametrize(
        mk.circle(radius=1.0 / (2 * math.pi), center=(h, 0.0)), nodes=1024, tol=1e-12
    )
    dist = mk.curve_distance(circle_1, shifted, norm="Lq", q=math.inf)
    assert dist == pytest.approx(h, rel=1e-9)


def test_curve_distance_symmetry_and_triangle(circle_1):
    gon = mk.inscribe_uniform(circle_1, 16)[0]
    gon1 = gon.scaled(1.0 / gon.total_length)
    gon2 = mk.inscribe_uniform(circle_1, 24)[0]
    gon2 = gon2.scaled(1.0 / gon2.total_length)
    d_ab = mk.curve_distance(circle_1, gon1, norm="Lq", q=2)
    d_ba = mk.curve_distance(gon1, circle_1, norm="Lq", q=2)
    assert d_ab == pytest.approx(d_ba, abs=1e-12)
    d_ac = mk.curve_distance(circle_1, gon2, norm="Lq", q=2)
    d_cb = mk.curve_distance(gon2, gon1, norm="Lq", q=2)
    assert d_ab <= d_ac + d_cb + 1e-6


def test_curve_distance_w1inf_vs_brute_force(circle_1):
    gon = mk.inscribe_uniform(circle_1, 64)[0]
    gon = gon.scaled(1.0 / gon.total_length)
    got = mk.curve_distance(circle_1, gon, norm="W1q", q=math.inf, grid=8192)

    # dense-sampling oracle with its own polygon evaluation
    m = 1_000_000
    s = (np.arange(m) + 0.5) / m
    radius = 1.0 / (2 * math.pi)
    circ = radius * np.stack([np.cos(s / radius), np.sin(s / radius)], axis=1)
    circ_tan = np.stack([-np.sin(s / radius), np.cos(s / radius)], axis=1)
    a = gon.arc_params
    idx = np.clip(np.searchsorted(a, s, side="right") - 1, 0, gon.n - 1)
    edges = np.roll(gon.vertices, -1, axis=0) - gon.vertices
    unit = edges / np.linalg.norm(edges, axis=1)[:, None]
    poly = gon.vertices[idx] + (s - a[idx])[:, None] * unit[idx]
    sup_pos = np.max(np.linalg.norm(circ - poly, axis=1))
    sup_tan = np.max(np.linalg.norm(circ_tan - unit[idx], axis=1))
    brute = max(sup_pos, sup_tan)
    assert got == pytest.approx(brute, rel=0.01)


def test_curve_distance_length_mismatch(circle_1, circle_2pi):
    with pytest.raises(InputError):
        mk.curve_distance(circle_1, circle_2pi, norm="Lq", q=2)


@pytest.mark.parametrize("q", [0.5, 0.0, -1.0, -math.inf, math.nan])
def test_curve_distance_rejects_q_outside_1_to_inf(circle_1, q):
    with pytest.raises(InputError, match="q must lie"):
        mk.curve_distance(circle_1, circle_1, norm="Lq", q=q)


def test_edge_vectors_are_fresh_copies_of_the_rolled_differences():
    p = mk.random_equilateral_polygon(11, dim=3, seed=4)
    rolled = np.roll(p.vertices, -1, axis=0) - p.vertices
    e = p.edge_vectors()
    assert np.array_equal(e, rolled)
    e[0] = 99.0
    assert np.array_equal(p.edge_vectors(), rolled)
    assert p.edge_vectors() is not p.edge_vectors()


def test_unit_edges_are_shared_and_read_only():
    p = mk.random_equilateral_polygon(9, dim=2, seed=1)
    u = p.unit_edges()
    assert u is p.unit_edges()
    assert np.array_equal(u, p.edge_vectors() / p.edge_lengths[:, None])
    with pytest.raises(ValueError):
        u[0, 0] = 1.0
