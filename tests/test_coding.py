"""Tests for the coarse-grained alphabet and shadowing-based coding.

Scale reality, continued from the charts/manifolds tests: the bin-net
radius e^(-8(j+2)) underflows float64 for every chart the size formula
admits (any table of diameter < 1 forces |log Q| >~ 150), so net selection
is honestly bitwise -- distinct sampled points never merge, sampled-orbit
alphabets are chains plus exact self-loops at genuinely periodic floats,
and the recurrent core of an aperiodic corpus is legitimately empty.  The
real inequality branches are exercised on hand-built gamma points with
small levels, where the radius is representable and merging is geometric.

The linear fixture at +-390 steps is the double-coding lab: all window
sizes are representable (~1e-137), the stretch-series contamination of the
splitting directions flushes to exact zeros, and a companion orbit through
x = 1e-170 codes alongside the fixed point, projecting to a distinct point
closer than any tolerance.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import pesin_coder.coding as coding
from pesin_coder.cocycle import (
    lyapunov_exponents,
    orbit_segment,
    oseledets_splitting,
)
from pesin_coder.coding import (
    Alphabet,
    BinSignature,
    COVER_SIDE,
    DoubleChart,
    GammaPoint,
    GridCover,
    Itinerary,
    NET_EXPONENT,
    assign_centers,
    bin_signature,
    coarse_grain,
    detect_double_codings,
    discreteness_certificate,
    double_chart,
    edge_report,
    gamma_close,
    gammas_from_segment,
    inverse_diagnostics,
    load_alphabet,
    make_graph,
    make_itinerary,
    project_pi,
    prune_graph,
    save_alphabet,
    sigma_sharp_filter,
    sufficiency_itinerary,
)
from pesin_coder.dynamics import billiard_map
from pesin_coder.errors import (
    BoundViolated,
    DiagnosticFailed,
    EmptyAlphabet,
    InequalityViolated,
    NoBinCenter,
    OrbitHitsDiscontinuity,
    SeriesDiverging,
    SplittingNotConverged,
)
from pesin_coder.tables import (
    PhasePoint,
    make_flower,
    make_linear_fixture,
    make_sinai,
    make_stadium,
)

from helpers import (
    CFG,
    CHI,
    CONSTS,
    STADIUM_CHI,
    minimal_frame,
    tame_stadium_window,
)

# frozen fixture lattice data (eps = 0.01, fixed point of the linear map)
FIX_Q_EXPO = 92949          # log Q = -309.83
FIX_P_EXPO = 94332          # = Q.expo + delta_exponent(1383), log = -314.44
FIX_J = 314
FIX_M = 309

_CACHE: dict = {}


def fixture_gammas(x0: float = 0.0, span: int = 390, lo: int = -4,
                   hi: int = 4):
    """Gamma window on the linear fixture; +-390 steps saturate the
    splitting directions to exact (1,0)/(0,1) at every window position."""
    key = ("fix", x0, span, lo, hi)
    if key not in _CACHE:
        fx = make_linear_fixture()
        seg = orbit_segment(fx, PhasePoint(0, x0, 0.0), span, span)
        sp = oseledets_splitting(seg)
        _CACHE[key] = (fx, gammas_from_segment(seg, sp, CHI, CFG, CONSTS,
                                               lo, hi))
    return _CACHE[key]


def fixture_alphabet(*x0s: float):
    key = ("alpha",) + x0s
    if key not in _CACHE:
        windows = [fixture_gammas(x0)[1] for x0 in x0s]
        _CACHE[key] = coarse_grain(windows, CFG, CONSTS)
    return _CACHE[key]


H = 1e-170  # companion orbit: 390 backward steps stay inside the domain


def test_gamma_window_reads_only_its_distances(monkeypatch):
    # a window on [-6, 6] reads rho on [-7, 7], so distances on [-8, 8]:
    # 17 of the 123 points (with padding) of a +-60 segment
    import pesin_coder.cocycle as cocycle

    calls = []
    dist = cocycle.dist_to_discontinuity
    monkeypatch.setattr(cocycle, "dist_to_discontinuity",
                        lambda table, p: calls.append(p) or dist(table, p))
    st = make_stadium()
    for p in st.liouville_sample(np.random.default_rng(0), 20):
        calls.clear()
        try:
            seg = orbit_segment(st, p, 60, 60)
            sp = oseledets_splitting(seg)
            gammas_from_segment(seg, sp, STADIUM_CHI, CFG, CONSTS, -6, 6)
        except (OrbitHitsDiscontinuity, SplittingNotConverged,
                SeriesDiverging):
            continue
        break
    else:
        raise AssertionError("no stadium sample gave a gamma window")
    assert calls == [seg.point(n) for n in range(-8, 9)]


def stadium_gammas():
    """Tame stadium window (seed 11 orbit), memoized across tests."""
    st, _, _, gam = tame_stadium_window()
    return st, gam


def test_tame_stadium_window_is_the_pinned_orbit():
    # the stadium windows of these tests and of the manifold tests build
    # from one search, which lands on this orbit
    _, seg, _, _ = tame_stadium_window()
    assert seg.point(0) == PhasePoint(1, 2.481042998575038, -0.525515148130097)


def stadium_alphabet():
    if "stadium_alpha" not in _CACHE:
        _, gam = stadium_gammas()
        _CACHE["stadium_alpha"] = coarse_grain([gam], CFG, CONSTS)
    return _CACHE["stadium_alpha"]


def synthetic_gamma(x: float = 0.0, expo: int = FIX_Q_EXPO,
                    dist: float = 0.3):
    """Hand-built gamma (bypasses the orbit pipeline) for net geometry."""
    fx = make_linear_fixture()
    fr = minimal_frame()
    Q = CFG.size(expo)
    pt = PhasePoint(0, x, 0.0)
    return GammaPoint(fx, (pt, pt, pt), (fr, fr, fr), (Q, Q, Q),
                      (dist, dist, dist), (dist, dist, dist), Q, Q, Q)


# ----------------------------------------------------------- gamma windows
def test_fixture_gamma_window_values():
    _, gam = fixture_gammas()
    assert len(gam) == 9
    g = gam[4]
    assert g.Q.expo == FIX_Q_EXPO
    assert g.Q.log_value == pytest.approx(-309.83, abs=1e-12)
    assert (g.q.expo, g.p_s.expo, g.p_u.expo) == (FIX_P_EXPO,) * 3
    assert g.j == FIX_J
    assert g.dists == (0.3, 0.3, 0.3)
    assert np.array_equal(g.frame.e_s, [1.0, 0.0])
    assert np.array_equal(g.frame.e_u, [0.0, 1.0])
    # the fixed point's window is homogeneous: one gamma, nine times
    assert len({g.q.expo for g in gam}) == 1
    assert all(np.array_equal(g.frame.C, gam[0].frame.C) for g in gam)


def test_gamma_window_needs_margin():
    """Gammas on [lo, hi] need segment data on [lo - 1, hi + 2], no more."""
    fx = make_linear_fixture()
    n = 20  # 5-step sides: halved-window angle 1.4e-2 vs tol 1e-6; converges from 15
    seg = orbit_segment(fx, PhasePoint(0, 0.0, 0.0), n, n)
    sp = oseledets_splitting(seg)
    with pytest.raises(ValueError, match="too short"):
        gammas_from_segment(seg, sp, CHI, CFG, CONSTS, -(n - 1), n - 1)
    assert len(gammas_from_segment(seg, sp, CHI, CFG, CONSTS,
                                   -(n - 1), n - 2)) == 2 * n - 2
    with pytest.raises(ValueError, match="too short"):
        gammas_from_segment(seg, sp, CHI, CFG, CONSTS, -n, n - 2)
    with pytest.raises(ValueError, match="two steps"):
        gammas_from_segment(seg, sp, CHI, CFG, CONSTS, 0, 0)


def test_window_size_recursion_identity():
    """One-sided sizes obey the exact integer recursion at every step."""
    _, gam = stadium_gammas()
    d = CFG.delta_exponent
    for a, b in zip(gam, gam[1:]):
        assert a.p_s.expo == max(b.p_s.expo - 3, a.Q.expo + d)
        assert b.p_u.expo == max(a.p_u.expo - 3, b.Q.expo + d)
    assert gam[-1].p_s.expo == gam[-1].Q.expo + d
    assert gam[0].p_u.expo == gam[0].Q.expo + d
    for g in gam:
        assert g.q.expo == max(g.p_s.expo, g.p_u.expo)


# ------------------------------------------------------------------- cover
def test_cover_boxes_and_persistence():
    cover = GridCover()
    p1 = PhasePoint(0, 0.1, 0.1)
    p2 = PhasePoint(0, 0.26, 0.1)
    p3 = PhasePoint(1, 0.1, 0.1)
    assert cover.box_key(p1) == (0, 0, 0)
    assert cover.box_key(p2) == (0, 1, 0)
    assert cover.box_key(PhasePoint(0, -0.01, 0.0)) == (0, -1, 0)
    assert cover.box_id(p1) == 0
    assert cover.box_id(p2) == 1
    assert cover.box_id(p3) == 2
    assert cover.box_id(p1) == 0  # stable on revisit
    clone = GridCover.from_json(cover.to_json())
    assert clone.box_id(p3) == 2
    assert clone.n_boxes == 3
    bad = cover.to_json()
    bad["boxes"][0][3] = 7
    with pytest.raises(ValueError, match="dense"):
        GridCover.from_json(bad)
    other = dict(cover.to_json(), side=0.5)
    with pytest.raises(ValueError, match="box side 0.5"):
        GridCover.from_json(other)


# --------------------------------------------------------------- signatures
def test_fixture_signature_integers():
    _, gam = fixture_gammas()
    sig = bin_signature(gam[4], GridCover())
    assert sig.k == (1, 1, 1)
    assert sig.l == (0, 0, 0)
    assert sig.a == (0, 0, 0)
    assert sig.m == FIX_M
    assert sig.j == FIX_J
    assert sig.base() == ((1, 1, 1), (0, 0, 0), (0, 0, 0), FIX_M)


def test_signature_rejects_bad_distance():
    with pytest.raises(ValueError, match="in \\(0,1\\)"):
        bin_signature(synthetic_gamma(dist=1.2), GridCover())


def test_stadium_signatures_all_distinct():
    _, gam = stadium_gammas()
    cover = GridCover()
    sigs = [bin_signature(g, cover) for g in gam]
    assert sigs[6].k == (3, 3, 5)
    assert sigs[6].l == (0, 1, 1)
    assert sigs[6].a == (6, 7, 8)
    assert sigs[6].m == 1258
    assert sigs[6].j == 1383
    assert [s.j for s in sigs] == [1383] * 12 + [1384]
    assert len({s.base() for s in sigs}) == 13


# ------------------------------------------------------------- net geometry
def test_net_merges_below_representable_radius():
    # at level 0 the radius is e^-16 ~ 1.13e-7: real inequality branch
    g0 = synthetic_gamma(0.0)
    assert gamma_close(g0, synthetic_gamma(1e-8), j=0)
    assert not gamma_close(g0, synthetic_gamma(1e-6), j=0)
    # radius shrinks with the level: e^-24 ~ 3.8e-11 at level 1
    assert not gamma_close(g0, synthetic_gamma(1e-8), j=1)
    assert gamma_close(g0, synthetic_gamma(1e-11), j=1)


def test_net_requires_exact_size_ratio():
    g0 = synthetic_gamma(0.0)
    assert gamma_close(g0, synthetic_gamma(0.0, expo=FIX_Q_EXPO + 1), j=0)
    assert not gamma_close(g0, synthetic_gamma(0.0, expo=FIX_Q_EXPO + 2),
                           j=0)


def test_net_is_bitwise_at_real_levels():
    # at level 314 the radius underflows: only exact-zero distance passes
    g0 = synthetic_gamma(0.0)
    assert gamma_close(g0, synthetic_gamma(0.0), j=FIX_J)
    assert not gamma_close(g0, synthetic_gamma(1e-300), j=FIX_J)


# ------------------------------------------------------------ double charts
def test_double_chart_size_cap():
    _, gam = fixture_gammas()
    g = gam[4]
    with pytest.raises(ValueError, match="exceeds delta Q"):
        double_chart(g, GridCover(), CFG, CONSTS, CFG.size(FIX_P_EXPO - 1),
                     g.p_u, g.j)


def test_double_chart_level_window():
    _, gam = fixture_gammas()
    g = gam[4]
    with pytest.raises(ValueError, match="outside the level window"):
        double_chart(g, GridCover(), CFG, CONSTS, g.p_s, g.p_u, FIX_J + 6)
    dc = double_chart(g, GridCover(), CFG, CONSTS, g.p_s, g.p_u, g.j)
    assert dc.p_min.expo == FIX_P_EXPO
    assert dc.signature.j == FIX_J
    assert dc.chart.eta.expo == FIX_P_EXPO
    # identity semantics: a chart built again from equal data is another symbol
    twin = double_chart(g, GridCover(), CFG, CONSTS, g.p_s, g.p_u, g.j)
    assert dc != twin and len({dc, twin, dc}) == 2


# ------------------------------------------------------------------- edges
def test_fixture_self_edge():
    alpha = fixture_alphabet(0.0)
    v = alpha.graph.vertices[0]
    assert edge_report(v, v, CFG, CONSTS) == []


def test_edge_rejects_one_lattice_step():
    alpha = fixture_alphabet(0.0)
    v = alpha.graph.vertices[0]
    c = alpha.centers[0]
    mod = double_chart(c, alpha.cover, CFG, CONSTS, CFG.size(FIX_P_EXPO + 1),
                       c.p_u, c.j)
    assert "stable size recursion broken" in edge_report(mod, v, CFG, CONSTS)


def test_edge_fails_across_orbits():
    alpha = fixture_alphabet(0.0, H)
    v_fix = alpha.graph.vertices[0]
    v_h = alpha.graph.vertices[1]
    reasons = edge_report(v_fix, v_h, CFG, CONSTS)
    assert "forward overlap fails" in reasons
    assert "backward overlap fails" in reasons


# ------------------------------------------------------------------- graphs
def test_make_graph_dedup_and_validation():
    g = make_graph(("a", "b"), [(0, 1), (0, 1), (1, 0), (0, 0)])
    assert g.n_edges == 3
    assert g.edges == ((0, 0), (0, 1), (1, 0))
    with pytest.raises(ValueError, match="outside vertex range"):
        make_graph(("a",), [(0, 1)])


def test_prune_removes_acyclic_parts():
    chain = make_graph((0, 1, 2), [(0, 1), (1, 2)])
    sub = prune_graph(chain)
    assert sub.n_vertices == 0 and sub.vertices == ()
    cycle_tail = make_graph((0, 1, 2, 3),
                            [(0, 1), (1, 0), (1, 2), (2, 3)])
    sub = prune_graph(cycle_tail)
    assert sub.vertices == (0, 1)
    assert sub.edges == ((0, 1), (1, 0))


def test_prune_walks_forward_from_a_source():
    # dropping the source 0 leaves 1 with no in-edge, and dropping 1 takes
    # one of 2's two in-edges: the self-loop at 2 stays
    g = make_graph(("a", "b", "c"), [(0, 1), (1, 2), (2, 2)])
    sub = prune_graph(g)
    assert sub.vertices == ("c",)
    assert sub.edges == ((0, 0),)


def core_indices(alpha) -> tuple[int, ...]:
    """The graph index of each vertex of the alphabet's core."""
    return tuple(alpha.graph.vertices.index(v) for v in alpha.core.vertices)


# ------------------------------------------------------------ coarse grain
def test_fixture_alphabet_is_one_self_loop():
    alpha = fixture_alphabet(0.0)
    s = alpha.stats
    assert (s["samples"], s["windows"], s["bins"]) == (9, 1, 1)
    assert (s["centers"], s["vertices"], s["edges"]) == (1, 1, 1)
    assert (s["core_vertices"], s["core_edges"]) == (1, 1)
    assert alpha.graph.edges == ((0, 0),)
    assert core_indices(alpha) == (0,)
    assert alpha.cover.n_boxes == 1


def test_two_orbit_alphabet_loop_plus_chain():
    alpha = fixture_alphabet(0.0, H)
    s = alpha.stats
    assert (s["centers"], s["vertices"], s["edges"]) == (10, 10, 9)
    assert alpha.graph.edges == \
        ((0, 0),) + tuple((k, k + 1) for k in range(1, 9))
    assert core_indices(alpha) == (0,)  # only the genuine fixed point recurs


def test_duplicate_and_nested_windows_dedupe():
    _, gam = fixture_gammas()
    _, inner = fixture_gammas(lo=-2, hi=2)
    alpha = coarse_grain([gam, gam, inner], CFG, CONSTS)
    assert alpha.stats["samples"] == 23
    assert alpha.stats["centers"] == 1
    assert alpha.stats["vertices"] == 1


def all_pairs_edges(alpha) -> tuple:
    """The edge list of the all-pairs scan: edge_report on every ordered
    pair of the alphabet's vertices, sorted."""
    vs = alpha.graph.vertices
    return tuple((i, j) for i, v in enumerate(vs) for j, w in enumerate(vs)
                 if not edge_report(v, w, CFG, CONSTS))


def fixture_round(seed: int) -> list:
    """The coded windows of a fixture-code round of the benchmark: the fixed
    point, then the first three of thirteen seeded points of the 1e-170
    box, on +-390 segments with gamma windows -4..4."""
    key = ("round", seed)
    if key not in _CACHE:
        fx = make_linear_fixture()
        rng = np.random.default_rng(seed)
        xs = [(0.0, 0.0)] + rng.uniform(-H, H, size=(13, 2)).tolist()[:3]
        windows = []
        for a, b in xs:
            seg = orbit_segment(fx, PhasePoint(0, a, b), 390, 390)
            windows.append(gammas_from_segment(
                seg, oseledets_splitting(seg), CHI, CFG, CONSTS, -4, 4))
        _CACHE[key] = windows
    return _CACHE[key]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fixture_round_edges_are_the_all_pairs_scan(seed):
    alpha = coarse_grain(fixture_round(seed), CFG, CONSTS)
    assert alpha.stats["vertices"] == 28
    assert alpha.graph.n_edges > 0
    assert alpha.graph.edges == all_pairs_edges(alpha)


def test_stadium_and_nested_window_edges_are_the_all_pairs_scan():
    _, gam = fixture_gammas()
    _, inner = fixture_gammas(lo=-2, hi=2)
    for alpha in (stadium_alphabet(),
                  coarse_grain([gam, gam, inner], CFG, CONSTS)):
        assert alpha.graph.n_edges > 0
        assert alpha.graph.edges == all_pairs_edges(alpha)


def test_fixture_round_reports_on_few_pairs(monkeypatch):
    # the index hands edge_report only pairs whose forward overlap can
    # pass; the all-pairs scan made 28^2 = 784 calls on this round
    windows = fixture_round(0)
    calls = []
    real = coding.edge_report
    monkeypatch.setattr(coding, "edge_report",
                        lambda *args: calls.append(args) or real(*args))
    alpha = coarse_grain(windows, CFG, CONSTS)
    assert alpha.stats["vertices"] == 28
    assert len(calls) <= alpha.stats["edges"] + len(windows)


# log Q = -70: p_min = delta Q ~ e^-74.6, so the overlap bound p_min^8 is a
# normal double and the edge index runs on cells of a normal side
REP_Q_EXPO = 21000


def chain_window(deltas) -> list:
    """Hand-built fixture window at x_k = k 2^-830 (k >= 1): gamma i sits at
    x_(i+1) between x_i and f(x_(i+1)) = x_(i+2) + deltas[i], with the
    minimal frame and equal sizes throughout."""
    fx = make_linear_fixture()
    fr = minimal_frame()
    Q = CFG.size(REP_Q_EXPO)
    p = Q.step(CFG.delta_exponent)

    def x(k: int, shift: float = 0.0) -> PhasePoint:
        return PhasePoint(0, k * 2.0 ** -830 + shift, 0.0)

    return [GammaPoint(fx, (x(i), x(i + 1), x(i + 2, dl)), (fr, fr, fr),
                       (Q, Q, Q), (0.9, 0.9, 0.9), (0.9, 0.9, 0.9), p, p, p)
            for i, dl in enumerate(deltas)]


def test_representable_overlap_edges_are_the_all_pairs_scan():
    p = CFG.size(REP_Q_EXPO).step(CFG.delta_exponent)
    bound = math.exp(8.0 * p.log_value)
    assert bound > 2.3e-308  # a normal double
    # every x_k lies on a cell edge (the cell side is a power of two below
    # 2^-830), so a negative shift puts f(x_v) in the cell below x_w's
    deltas = [0.0, -bound / 2, bound / 2, -2 * bound, 3 * bound,
              -bound * 1e-3, bound * 1e-3, 2.0 ** -831, -bound / 3, 0.0]
    alpha = coarse_grain([chain_window(deltas)], CFG, CONSTS)
    assert alpha.stats["centers"] == alpha.stats["vertices"] == len(deltas)
    want = tuple((i, i + 1) for i, dl in enumerate(deltas[:-1])
                 if abs(dl) < bound)
    assert alpha.graph.edges == all_pairs_edges(alpha) == want
    assert len(want) == 6


def all_centers_hits(windows) -> list:
    """The result of each net lookup of coarse_grain's net selection, in
    call order, with every member tested against every center of its
    net, in net order."""
    flat = [g for w in windows for g in w]
    cover = GridCover()
    sigs = [bin_signature(g, cover) for g in flat]
    bins: dict = {}
    for fi, sig in enumerate(sigs):
        bins.setdefault(sig.base(), []).append(fi)
    centers, center_ids, hits = [], {}, []
    for members in bins.values():
        for j in sorted({sigs[fi].j for fi in members}):
            net = []
            for fi in members:
                hit = next((c for c in net
                            if gamma_close(flat[fi], centers[c], j)), None)
                hits.append(hit)
                if hit is None:
                    if fi not in center_ids:
                        center_ids[fi] = len(centers)
                        centers.append(flat[fi])
                    net.append(center_ids[fi])
    return hits


def net_hits(monkeypatch, windows) -> tuple[list, Alphabet]:
    """The results of coarse_grain's net lookups, in call order, and its
    alphabet."""
    hits = []
    first_close = coding._first_close

    def recording(*args):
        hits.append(first_close(*args))
        return hits[-1]

    monkeypatch.setattr(coding, "_first_close", recording)
    alpha = coarse_grain(windows, CFG, CONSTS)
    monkeypatch.undo()
    return hits, alpha


def net_gamma(shift: float) -> GammaPoint:
    """Hand-built fixture gamma whose three points sit at shift from
    (7, 8, 9) 2^-860, each a cell edge of the level's net index, with
    the minimal frame and the sizes of `chain_window`."""
    fx = make_linear_fixture()
    fr = minimal_frame()
    Q = CFG.size(REP_Q_EXPO)
    p = Q.step(CFG.delta_exponent)
    pts = tuple(PhasePoint(0, k * 2.0 ** -860 + shift, 0.0)
                for k in (7, 8, 9))
    return GammaPoint(fx, pts, (fr, fr, fr), (Q, Q, Q), (0.9, 0.9, 0.9),
                      (0.9, 0.9, 0.9), p, p, p)


NET_CASES = ["fixture-0", "fixture-1", "fixture-2", "stadium", "cell-edge"]


def net_windows(case: str) -> list:
    """The windows of a net lookup case: a fixture-code round, the tame
    stadium window, or hand-built gammas across the cells of a net."""
    if case == "stadium":
        return [stadium_gammas()[1]]
    if case == "cell-edge":
        r = math.exp(-NET_EXPONENT * (net_gamma(0.0).j + 2.0))
        assert r > 2.3e-308  # a normal double: the cell path
        # centers at 0, -1.5 r (the cell below) and 1.5 r; -0.75 r and
        # 0.75 r are close to two centers each and must take the first
        shifts = [0.0, -1.5 * r, 1.5 * r, -0.75 * r, 0.5 * r, -1.2 * r,
                  0.75 * r, 1.75 * r, -2.0 * r, r / 1e3]
        return [[net_gamma(s) for s in shifts]]
    return fixture_round(int(case[-1]))


@pytest.mark.parametrize("case", NET_CASES)
def test_net_selection_is_the_all_centers_scan(monkeypatch, case):
    # the net index hands gamma_close only the centers whose middle point
    # lies near the member's, in net order, so each lookup returns the
    # center that the scan of the whole net returns
    windows = net_windows(case)
    got, alpha = net_hits(monkeypatch, windows)
    want = all_centers_hits(windows)
    assert got == want
    assert len(alpha.centers) == want.count(None)
    if case == "cell-edge":
        assert want == [None, None, None, 0, 0, 1, 0, 2, 1, 0]


def scan_find_center(alpha: Alphabet, gamma: GammaPoint) -> int | None:
    """Alphabet.find_center with a scan of the whole net, for reference."""
    sig = coding._signature(gamma, alpha.cover.find_box)
    return next((c for c in alpha.nets.get((sig.base(), sig.j), ())
                 if gamma_close(gamma, alpha.centers[c], sig.j)), None)


@pytest.mark.parametrize("case", NET_CASES)
def test_find_center_is_the_whole_net_scan(tmp_path, case):
    # find_center looks up the alphabet's net index, which load_alphabet
    # rebuilds from the saved nets, so both alphabets answer as the scan
    windows = net_windows(case)
    alpha = (stadium_alphabet() if case == "stadium"
             else coarse_grain(windows, CFG, CONSTS))
    path = tmp_path / "alphabet.json"
    save_alphabet(alpha, path)
    gammas = [g for w in windows for g in w]
    for a in (alpha, load_alphabet(path)):
        want = [scan_find_center(a, g) for g in gammas]
        assert [a.find_center(g) for g in gammas] == want
        assert want.count(None) < len(want)


def all_pairs_double_codings(points, table, tol: float) -> list:
    """The all-pairs loop of double codings, for reference."""
    return [(i, j, d) for i in range(len(points))
            for j in range(i + 1, len(points))
            if (d := table.distance(points[i], points[j])) < tol]


def at_distance(tb, p: PhasePoint, target: float) -> PhasePoint:
    """p moved in theta to a point exactly target from it, the shift
    searched ulp by ulp from target / metric_scale."""
    t = target / tb.metric_scale
    for _ in range(64):
        q = PhasePoint(p.component, p.r, p.theta + t)
        d = tb.distance(p, q)
        if d == target:
            return q
        t = math.nextafter(t, -math.inf if d > target else math.inf)
    raise AssertionError(f"no point {target} from {p}")


@pytest.mark.parametrize("kind", ["fixture", "stadium"])
@pytest.mark.parametrize("tol", [1e-6, 0.05])
def test_double_codings_are_the_all_pairs_scan(kind, tol):
    tb = make_linear_fixture() if kind == "fixture" else make_stadium()
    rng = np.random.default_rng(5)
    pts = tb.liouville_sample(rng, 60)
    # near copies, some closer than tol and some not
    pts += [PhasePoint(p.component, p.r, p.theta + s * tol) for p, s in
            zip(pts, [0.1, -0.3, 0.5, 0.9, -0.99, 1.01, 2.0, -3.5, 0.0,
                      1e-3, 0.7, -0.7])]
    # pairs across a cell edge (a multiple of 2^-10 is one, as the side is
    # a power of two below it), a pair exactly tol apart and a point one
    # ulp closer, and -0.0 against 0.0
    c, r = pts[0].component, pts[0].r
    for k in (1, -7, 64):
        pts += [PhasePoint(c, r, k * 2.0 ** -10 - tol / 4),
                PhasePoint(c, r, k * 2.0 ** -10 + tol / 8)]
    base = PhasePoint(pts[1].component, pts[1].r, 0.0)
    far = at_distance(tb, base, tol)
    pts += [base, far, replace(far, theta=math.nextafter(far.theta, 0.0)),
            PhasePoint(c, r, -0.0), PhasePoint(c, r, 0.0)]
    pts = [pts[k] for k in rng.permutation(len(pts))]
    want = all_pairs_double_codings(pts, tb, tol)
    assert len(want) >= 8
    assert detect_double_codings(pts, tb, tol) == want
    assert any(d == 0.0 for _, _, d in want)
    for wide in (math.inf, 0.0, -1.0, math.nan):
        assert detect_double_codings(pts[:30], tb, wide) == \
            all_pairs_double_codings(pts[:30], tb, wide)


def test_empty_input_raises():
    with pytest.raises(EmptyAlphabet):
        coarse_grain([], CFG, CONSTS)
    with pytest.raises(EmptyAlphabet):
        coarse_grain([[]], CFG, CONSTS)


def test_stadium_alphabet_is_a_chain():
    alpha = stadium_alphabet()
    s = alpha.stats
    assert (s["samples"], s["bins"], s["centers"]) == (13, 13, 13)
    assert (s["vertices"], s["edges"]) == (13, 12)
    assert (s["core_vertices"], s["core_edges"]) == (0, 0)
    assert alpha.graph.edges == tuple((k, k + 1) for k in range(12))
    assert core_indices(alpha) == ()
    ps = [v.p_s.expo for v in alpha.graph.vertices]
    assert ps == [415164 + 3 * k for k in range(13)]
    assert alpha.graph.vertices[0].p_u.expo == 322111
    assert alpha.graph.vertices[12].p_u.expo == 415200
    # every window size underflows: containment checks are exact-zero only
    assert all(v.p_min.value == 0.0 for v in alpha.graph.vertices)


# -------------------------------------------------------------- sufficiency
def test_fixture_itinerary_codes_and_shadows():
    alpha = fixture_alphabet(0.0)
    _, gam = fixture_gammas()
    it = sufficiency_itinerary(alpha, gam, anchor=4)
    assert len(it) == 9
    assert all(it.in_alphabet)
    assert it.meta["shadow_gap"] == 0.0
    assert np.array_equal(it.meta["shadow_w"], [0.0, 0.0])
    assert len(set(it.symbols())) == 1


def test_no_bin_center_for_unsampled_orbit():
    alpha = fixture_alphabet(0.0)
    _, gam_h = fixture_gammas(H)
    with pytest.raises(NoBinCenter) as ei:
        assign_centers(alpha, gam_h, 0)
    assert ei.value.n == 0
    assert ei.value.signature.j == FIX_J
    with pytest.raises(NoBinCenter) as ei:
        sufficiency_itinerary(alpha, gam_h, anchor=4)
    assert ei.value.n == -4  # window-relative step


def test_failed_lookup_leaves_the_alphabet_unchanged(tmp_path):
    # a fresh alphabet: the cached one has already served other lookups
    alpha = coarse_grain([fixture_gammas()[1]], CFG, CONSTS)
    before = tmp_path / "before.json"
    save_alphabet(alpha, before)
    cover = json.dumps(alpha.cover.to_json())
    assert alpha.cover.n_boxes == 1
    # the companion orbit through -H crosses into the box r < 0
    _, gam_neg = fixture_gammas(-H)
    with pytest.raises(NoBinCenter) as ei:
        sufficiency_itinerary(alpha, gam_neg, anchor=4)
    assert ei.value.n == -4
    assert json.dumps(alpha.cover.to_json()) == cover
    after = tmp_path / "after.json"
    save_alphabet(alpha, after)
    assert after.read_bytes() == before.read_bytes()
    assert None in ei.value.signature.a  # the unseen box has no id


def test_mixed_window_fails_edge_relation():
    alpha = fixture_alphabet(0.0, H)
    _, gam = fixture_gammas()
    _, gam_h = fixture_gammas(H)
    mixed = [gam[0], gam_h[1], gam[2], gam_h[3], gam[4]]
    with pytest.raises(InequalityViolated, match="edge relation"):
        sufficiency_itinerary(alpha, mixed, anchor=2)


@pytest.mark.parametrize("lo", [0, 3])
def test_sub_window_leaving_its_level_window_is_typed(lo):
    # coding seven steps of the stadium window re-runs the size recursions
    # on them alone, and the off-alphabet chart of the first step leaves its
    # level window: a typed refusal whose witness is the window-relative
    # step, as NoBinCenter counts it
    alpha = stadium_alphabet()
    _, gam = stadium_gammas()
    with pytest.raises(InequalityViolated,
                       match=r"^off-alphabet chart at step -3: p_s\^p_u = "
                             r"e\^-12\d\d\.\d+ outside the level window "
                             r"\[e\^-1385, e\^-1381\]$") as ei:
        sufficiency_itinerary(alpha, gam[lo:lo + 7], anchor=3)
    assert ei.value.witness == -3


def test_make_itinerary_rejects_non_edge():
    alpha = fixture_alphabet(0.0, H)
    v_fix, v_h = alpha.graph.vertices[0], alpha.graph.vertices[1]
    with pytest.raises(InequalityViolated, match="edge relation at step 0"):
        make_itinerary([v_fix, v_h], 0, CFG, CONSTS, [True] * 2, {})


@pytest.mark.parametrize("n_flags", [1, 4, 6])
def test_make_itinerary_counts_its_flags(n_flags):
    # one in_alphabet flag per chart; a 5-chart word kept one flag before
    v = fixture_alphabet(0.0).graph.vertices[0]
    with pytest.raises(ValueError, match=f"{n_flags} flags for 5 charts"):
        make_itinerary([v] * 5, 2, CFG, CONSTS, [True] * n_flags, {})


def test_make_itinerary_names_the_failing_pair():
    alpha = fixture_alphabet(0.0, H)
    v_fix, v_h = alpha.graph.vertices[0], alpha.graph.vertices[1]
    with pytest.raises(InequalityViolated, match="overlap fails") as ei:
        make_itinerary([v_fix, v_fix, v_h], 0, CFG, CONSTS, [True] * 3, {})
    assert ei.value.witness == 1


def test_coding_checks_each_pair_once(monkeypatch):
    alpha = fixture_alphabet(0.0)
    _, gam = fixture_gammas()
    calls = []
    real = coding.edge_report

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(coding, "edge_report", counted)
    it = sufficiency_itinerary(alpha, gam, anchor=4)
    assert len(it) == 9
    assert len(calls) == 8


def test_stadium_itinerary_codes_and_shadows():
    alpha = stadium_alphabet()
    _, gam = stadium_gammas()
    it = sufficiency_itinerary(alpha, gam, anchor=6)
    assert all(it.in_alphabet)
    assert it.meta["shadow_gap"] == 0.0
    x = it.meta["shadow_point"]
    assert (x.component, x.r, x.theta) == \
        (1, 2.481042998575038, -0.525515148130097)
    _CACHE["stadium_it"] = it


def test_sub_window_codes_a_chart_off_the_alphabet():
    # the sub-window starting at step 2 re-runs the unstable size recursion
    # from there, so its first p_u touches the cap delta Q: no vertex has
    # that pair, and the chart is built on the fly; the later steps meet
    # the alphabet's sizes again
    alpha = stadium_alphabet()
    _, gam = stadium_gammas()
    it = sufficiency_itinerary(alpha, gam[2:], anchor=4)
    assert it.in_alphabet == (False,) + (True,) * 10
    first = it.vertices[0]
    assert all(first is not v for v in alpha.graph.vertices)
    assert first.gamma is alpha.centers[2]
    assert (first.p_s.expo, first.p_u.expo) == (415170, 319202)
    assert alpha.graph.vertices[2].p_u.expo == 322105
    assert first.p_u.expo == first.gamma.Q.expo + CFG.delta_exponent
    assert it.vertices[1:] == alpha.graph.vertices[3:]
    # the word still shadows the anchor's sampled point bitwise
    assert it.meta["shadow_gap"] == 0.0
    assert it.meta["shadow_point"] == gam[6].x


def test_coding_and_projection_shadow_twice(monkeypatch):
    # the base shadow once, in sufficiency_itinerary; project_pi adds only
    # the shifted-anchor shadow
    alpha = fixture_alphabet(0.0)
    _, gam = fixture_gammas()
    calls = []
    real = coding.shadow

    def counted(path, consts):
        calls.append(path.base_index)
        return real(path, consts)

    monkeypatch.setattr(coding, "shadow", counted)
    it = sufficiency_itinerary(alpha, gam, anchor=4)
    x, _ = project_pi(it, CONSTS)
    assert calls == [4, 5]
    assert x is it.meta["shadow_point"]


def far_shadow(path, consts):
    """A shadow that lands far from every coded point of the fixture."""
    return PhasePoint(0, 0.1, 0.1), {"w": None}


def test_shadow_miss_names_the_anchor(monkeypatch):
    alpha = fixture_alphabet(0.0)
    _, gam = fixture_gammas()
    monkeypatch.setattr(coding, "shadow", far_shadow)
    with pytest.raises(InequalityViolated, match="shadow misses") as e:
        sufficiency_itinerary(alpha, gam, anchor=4)
    assert e.value.witness == 4


def test_shift_mismatch_names_the_shifted_anchor(monkeypatch):
    alpha = fixture_alphabet(0.0)
    _, gam = fixture_gammas()
    it = sufficiency_itinerary(alpha, gam, anchor=4)
    monkeypatch.setattr(coding, "shadow", far_shadow)
    with pytest.raises(InequalityViolated, match="shift/projection") as e:
        project_pi(it, CONSTS)
    assert e.value.witness == 5


# ------------------------------------------------------- recurrence filter
def test_recurrence_filter_cases():
    assert sigma_sharp_filter([1, 1, 2, 3, 4, 5, 5])
    assert not sigma_sharp_filter([1, 1, 2, 3, 4, 5])
    assert not sigma_sharp_filter([1, 2, 3, 4, 5, 1])
    assert not sigma_sharp_filter([7])
    alpha = fixture_alphabet(0.0)
    _, gam = fixture_gammas()
    assert sigma_sharp_filter(
        sufficiency_itinerary(alpha, gam, anchor=4).symbols())


def test_recurrence_filter_rejects_chains():
    alpha = fixture_alphabet(0.0, H)
    _, gam_h = fixture_gammas(H)
    it_h = sufficiency_itinerary(alpha, gam_h, anchor=4)
    assert not sigma_sharp_filter(it_h.symbols())
    _CACHE["it_h"] = it_h


# -------------------------------------------------------------- projection
def test_projection_fixed_point_exact():
    alpha = fixture_alphabet(0.0)
    _, gam = fixture_gammas()
    it = sufficiency_itinerary(alpha, gam, anchor=4)
    x, rep = project_pi(it, CONSTS)
    assert (x.component, x.r, x.theta) == (0, 0.0, 0.0)
    assert rep["equivariance_gap"] == 0.0


def test_projection_returns_sampled_point():
    alpha = fixture_alphabet(0.0, H)
    _, gam_h = fixture_gammas(H)
    it_h = sufficiency_itinerary(alpha, gam_h, anchor=4)
    x, rep = project_pi(it_h, CONSTS)
    assert x.r == H and x.theta == 0.0
    assert rep["equivariance_gap"] == 0.0


def test_projection_needs_interior_shift():
    alpha = fixture_alphabet(0.0)
    _, gam = fixture_gammas()
    it = sufficiency_itinerary(alpha, gam, anchor=7)
    with pytest.raises(ValueError, match="interior shifted anchor"):
        project_pi(it, CONSTS)
    x = it.meta["shadow_point"]
    assert (x.component, x.r, x.theta) == (0, 0.0, 0.0)


def test_projection_refuses_an_unshadowed_word():
    alpha = fixture_alphabet(0.0)
    v = alpha.graph.vertices[0]
    it = make_itinerary([v] * 5, 2, CFG, CONSTS, [True] * 5, {})
    with pytest.raises(ValueError, match="sufficiency_itinerary"):
        project_pi(it, CONSTS)


def test_stadium_projection_equivariant():
    alpha = stadium_alphabet()
    _, gam = stadium_gammas()
    it = _CACHE.get("stadium_it") or sufficiency_itinerary(alpha, gam,
                                                           anchor=6)
    x, rep = project_pi(it, CONSTS)
    assert (x.r, x.theta) == (2.481042998575038, -0.525515148130097)
    assert rep["equivariance_gap"] == 0.0


# ------------------------------------------------- periodic-orbit oracle
def _two_bounce(kind: str):
    """The bitwise period-2 orbits of the billiard tables: the stadium's
    cap-to-cap, sinai's wall-to-scatterer and the flower's tip-to-tip."""
    if kind == "stadium":
        return make_stadium(), PhasePoint(1, math.pi / 2, 0.0)
    if kind == "sinai":
        return make_sinai(), PhasePoint(1, 1.0, 0.0)
    fl = make_flower()
    return fl, PhasePoint(1, fl.lengths[1] / 2, 0.0)


@pytest.mark.parametrize("kind", ["stadium", "sinai", "flower"])
def test_periodic_orbit_codes_end_to_end(kind):
    # a genuinely periodic orbit recurs bitwise, so its window's alphabet
    # closes into a cycle, and the word projects back onto the orbit
    table, p = _two_bounce(kind)
    seg = orbit_segment(table, p, 60, 60)
    sp = oseledets_splitting(seg)
    gam = gammas_from_segment(seg, sp, 0.3, CFG, CONSTS, -6, 6)
    alpha = coarse_grain([gam], CFG, CONSTS)
    s = alpha.stats
    assert (s["centers"], s["vertices"], s["edges"]) == (2, 2, 2)
    assert core_indices(alpha) == (0, 1)
    assert alpha.core.edges == ((0, 1), (1, 0))
    it = sufficiency_itinerary(alpha, gam, anchor=6)
    assert all(it.in_alphabet)
    x, rep = project_pi(it, CONSTS)
    assert it.meta["shadow_gap"] == 0.0 and rep["equivariance_gap"] == 0.0
    assert (x.component, x.r, x.theta) == (p.component, p.r, p.theta)
    # Birkhoff lambda_2 against the period-2 product's expanding eigenvalue
    M = table.derivative(billiard_map(table, p), True) \
        @ table.derivative(p, True)
    lam = 0.5 * math.log(max(abs(np.linalg.eigvals(M))))
    assert abs(lyapunov_exponents(seg, sp).lambda2 - lam) < 1e-13


# ----------------------------------------------------------- double codings
def coded_pair():
    """The fixed point's word and its companion's, coded through the
    alphabet of both windows."""
    if "pair" not in _CACHE:
        alpha2 = fixture_alphabet(0.0, H)
        _CACHE["pair"] = tuple(
            sufficiency_itinerary(alpha2, fixture_gammas(x0)[1], anchor=4)
            for x0 in (0.0, H))
    return _CACHE["pair"]


def test_double_coding_detected_below_tolerance():
    fx = make_linear_fixture()
    it_fix, it_h = coded_pair()
    x1, _ = project_pi(it_fix, CONSTS)
    x2, _ = project_pi(it_h, CONSTS)
    assert detect_double_codings([x1, x2], tol=1e-6, table=fx) == \
        [(0, 1, 1e-170)]
    assert detect_double_codings([x1, x2], tol=1e-171, table=fx) == []


def test_diagnostics_pass_on_real_double_coding():
    it_fix, it_h = coded_pair()
    rep = inverse_diagnostics(it_fix, it_h, CFG, CONSTS)
    assert rep["checked"] == 9
    assert rep["sigma"] == (0,) * 9  # orientation bit constant
    cbrt = 0.01 ** (1.0 / 3.0)
    sl = rep["slack"]
    assert sl["Q"] == pytest.approx(cbrt, abs=1e-12)
    assert sl["p_s"] == pytest.approx(cbrt, abs=1e-12)
    assert sl["p_u"] == pytest.approx(cbrt, abs=1e-12)
    assert sl["d_delta"] == pytest.approx(cbrt, abs=1e-12)
    assert sl["sin_alpha"] == pytest.approx(0.1, abs=1e-12)
    assert sl["cos_alpha"] == pytest.approx(0.1, abs=1e-12)
    assert sl["s_param"] == pytest.approx(0.4, abs=1e-12)
    assert sl["u_param"] == pytest.approx(0.4, abs=1e-12)
    assert 60.0 < sl["distance"] < 80.0


def test_interchange_offset_is_measured_below_the_squares_range():
    # the two codings' centers are 1e-170 apart, so the interchange offset
    # is about 1e-169, whose square underflows: the offset is measured in
    # log space and keeps a finite slack, not the exact-zero short circuit
    it_fix, it_h = coded_pair()
    sl = inverse_diagnostics(it_fix, it_h, CFG, CONSTS)["slack"]
    assert 60.0 < sl["offset"] < 80.0


def _with_frame(g: GammaPoint, **fields) -> GammaPoint:
    """The gamma with fields of its own frame (step 0) replaced."""
    return replace(g, frames=(g.frames[0], replace(g.frame, **fields),
                              g.frames[2]))


def _poisoned(it: Itinerary, k: int, poison) -> Itinerary:
    """The word with vertex k's gamma replaced by poison(gamma), built
    without the checks that would refuse it."""
    v = it.vertices[k]
    bad = DoubleChart(chart=v.chart, p_s=v.p_s, p_u=v.p_u,
                      gamma=poison(v.gamma), signature=v.signature)
    return Itinerary(it.vertices[:k] + (bad,) + it.vertices[k + 1:],
                     it.anchor, it.in_alphabet, it.path, {})


@pytest.mark.parametrize("name, item, poison", [
    # log space: a NaN center makes the center distance NaN
    ("distance", 1, lambda g: replace(g, points=(
        g.points[0], PhasePoint(0, math.nan, 0.0), g.points[2]))),
    # a ratio, a strict bound, and a lattice log
    ("s_param", 3, lambda g: _with_frame(g, s_param=math.nan)),
    ("d_delta", 6, lambda g: _with_frame(g, C=np.full((2, 2), math.nan))),
    ("Q", 4, lambda g: replace(g, Qs=(g.Qs[0], replace(g.Q, eps=math.nan),
                                      g.Qs[2]))),
], ids=["log-space", "ratio", "strict", "lattice"])
def test_diagnostics_fail_on_a_nan(name, item, poison):
    # one bound of each kind, each with a NaN measured value
    it_fix, it_h = coded_pair()
    with pytest.raises(DiagnosticFailed,
                       match=rf"^{name} bound: measured nan is not <=? "
                             rf"allowed ") as ei:
        inverse_diagnostics(_poisoned(it_fix, 6, poison), it_h, CFG, CONSTS)
    assert (ei.value.item, ei.value.n) == (item, 2)


def test_diagnostics_forgive_rounding_past_a_ratio_bound():
    # 1e-12 past the bound e^(4 sqrt(eps)) of the s ratio passes, and the
    # slack it records is negative: the tolerance stays out of it
    it_fix, it_h = coded_pair()
    s_h = it_h.vertices[6].gamma.frame.s_param
    s_past = s_h * math.exp(4.0 * math.sqrt(CFG.eps) + 5e-13)
    word = _poisoned(it_fix, 6, lambda g: _with_frame(g, s_param=s_past))
    rep = inverse_diagnostics(word, it_h, CFG, CONSTS)
    assert -1e-12 < rep["slack"]["s_param"] < 0.0


def test_diagnostics_self_comparison_zero_slack_consumed():
    it_fix, _ = coded_pair()
    rep = inverse_diagnostics(it_fix, it_fix, CFG, CONSTS)
    assert rep["slack"]["distance"] == math.inf
    assert rep["sigma"] == (0,) * 9


def test_diagnostics_shape_mismatch():
    it_fix, it_h = coded_pair()
    short = make_itinerary(it_h.vertices[1:], 3, CFG, CONSTS,
                           it_h.in_alphabet[1:], {})
    with pytest.raises(ValueError, match="shape and anchor"):
        inverse_diagnostics(it_fix, short, CFG, CONSTS)


def test_diagnostics_distance_violation():
    """An orbit too far from the fixed point violates the center bound."""
    h2 = 2e-139  # h2*e^4 exceeds (p_s ^ p_u)/25 but stays in the window
    _, gam2 = fixture_gammas(h2, span=318)
    alpha2 = coarse_grain([gam2], CFG, CONSTS)
    it2 = sufficiency_itinerary(alpha2, gam2, anchor=4)
    it_fix, _ = coded_pair()
    with pytest.raises(DiagnosticFailed) as ei:
        inverse_diagnostics(it_fix, it2, CFG, CONSTS)
    assert ei.value.item == 1
    assert ei.value.n == -4


def test_maximality_proxy_fails_on_sliced_word():
    """Dropping the window ends removes the steps where sizes touch the
    cap, so the finite-window maximality certificate must fail."""
    alpha = stadium_alphabet()
    _, gam = stadium_gammas()
    it = _CACHE.get("stadium_it") or sufficiency_itinerary(alpha, gam,
                                                           anchor=6)
    inner = make_itinerary(it.vertices[1:12], 5, CFG, CONSTS,
                           it.in_alphabet[1:12], {})
    with pytest.raises(DiagnosticFailed) as ei:
        inverse_diagnostics(inner, inner, CFG, CONSTS)
    assert ei.value.item == "maximality"


# ------------------------------------------------------------ certificates
def test_certificate_fixture_counts():
    alpha = fixture_alphabet(0.0)
    cert = discreteness_certificate(alpha, t_log=-315.0)
    assert cert["count"] == 1 and cert["groups"] == 1
    assert (cert["max_k"], cert["max_l"]) == (1, 0)
    assert (cert["max_m"], cert["max_j"]) == (FIX_M, FIX_J)
    # allowed - measured, the 1e-9 tolerance left out: |log t| - k, the
    # growth cap of the frame bins is the loosest, |log t| - m, and
    # |log t| + 2 - j
    assert cert["slack"] == {"distance bin": 314.0, "frame bin": 315.0,
                             "size bin": 6.0, "level": 3.0}
    # the default threshold is the median size itself: strict > empties it
    assert discreteness_certificate(alpha)["count"] == 0


def test_certificate_stadium_counts():
    alpha = stadium_alphabet()
    cert = discreteness_certificate(alpha)
    assert cert["t_log"] == pytest.approx(-1383.94, abs=1e-9)
    assert cert["count"] == 6 and cert["groups"] == 6
    assert (cert["max_k"], cert["max_l"]) == (5, 1)
    assert (cert["max_m"], cert["max_j"]) == (1139, 1383)


def _fixture_alphabet_with(gamma=None, signature=None) -> Alphabet:
    """The fixed point's one-vertex alphabet with that vertex's gamma or
    signature replaced."""
    alpha = fixture_alphabet(0.0)
    v = alpha.graph.vertices[0]
    fake = DoubleChart(chart=v.chart, p_s=v.p_s, p_u=v.p_u,
                       gamma=gamma or v.gamma,
                       signature=signature or v.signature)
    return Alphabet(CFG, CONSTS, alpha.cover, alpha.centers, alpha.nets,
                    graph=make_graph((fake,), [(0, 0)]),
                    center_of_vertex=(0,), stats=dict(alpha.stats))


def test_certificate_rejects_inconsistent_level():
    sig = fixture_alphabet(0.0).graph.vertices[0].signature
    bad = _fixture_alphabet_with(
        signature=BinSignature(sig.k, sig.l, sig.a, sig.m, 999))
    with pytest.raises(DiagnosticFailed,
                       match="level bound: measured 999 is not <=") as ei:
        discreteness_certificate(bad, t_log=-315.0)
    assert (ei.value.item, ei.value.n) == ("discreteness", 0)


def test_certificate_fails_on_a_nan_cap():
    # the growth cap of the first frame bin reads chi
    g = fixture_alphabet(0.0).graph.vertices[0].gamma
    bad = _fixture_alphabet_with(gamma=_with_frame(g, chi=math.nan))
    with pytest.raises(DiagnosticFailed,
                       match="frame bin bound: measured 0 is not < allowed "
                             "nan"):
        discreteness_certificate(bad, t_log=-315.0)


# ------------------------------------------------------------- persistence
def test_save_load_round_trip_bitwise(tmp_path):
    alpha = fixture_alphabet(0.0, H)
    f1 = tmp_path / "alphabet.json"
    save_alphabet(alpha, f1)
    back = load_alphabet(f1)
    assert back.graph.n_vertices == alpha.graph.n_vertices
    assert back.graph.edges == alpha.graph.edges
    assert core_indices(back) == core_indices(alpha)
    assert back.stats == alpha.stats
    for c1, c2 in zip(alpha.centers, back.centers):
        assert c1.x.r == c2.x.r and c1.x.theta == c2.x.theta
        assert np.array_equal(c1.frame.C, c2.frame.C)
        assert c1.Q.expo == c2.Q.expo
        assert c1.dists == c2.dists and c1.rhos == c2.rhos
    for v1, v2 in zip(alpha.graph.vertices, back.graph.vertices):
        assert (v1.p_s.expo, v1.p_u.expo) == (v2.p_s.expo, v2.p_u.expo)
        assert v1.signature == v2.signature
    f2 = tmp_path / "again.json"
    save_alphabet(back, f2)
    assert f1.read_bytes() == f2.read_bytes()


def test_load_refuses_other_net_exponent(tmp_path):
    alpha = fixture_alphabet(0.0)
    f = tmp_path / "alphabet.json"
    save_alphabet(alpha, f)
    doc = json.loads(f.read_text())
    assert doc["stats"]["net_exponent"] == NET_EXPONENT == 8.0
    doc["stats"]["net_exponent"] = 6.0
    f.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="net exponent 6.0"):
        load_alphabet(f)


def test_load_refuses_other_cover_side(tmp_path):
    alpha = fixture_alphabet(0.0)
    f = tmp_path / "alphabet.json"
    save_alphabet(alpha, f)
    doc = json.loads(f.read_text())
    assert doc["cover"]["side"] == COVER_SIDE == 0.25
    doc["cover"]["side"] = 0.5
    f.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="box side 0.5"):
        load_alphabet(f)


def test_load_refuses_other_metric_scale(tmp_path):
    # the scale is derived from the table, so the file can only repeat it
    alpha = fixture_alphabet(0.0)
    f = tmp_path / "alphabet.json"
    save_alphabet(alpha, f)
    doc = json.loads(f.read_text())
    assert doc["table"]["metric_scale"] == 1.0
    doc["table"]["metric_scale"] = 0.5
    f.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape("table.metric_scale = 0.5")):
        load_alphabet(f)


@pytest.mark.parametrize("field, corrupt", [
    ("vertices[0].center", lambda doc: doc["vertices"][0].update(center=-1)),
    ("vertices[0].center", lambda doc: doc["vertices"][0].update(center=99)),
    ("vertices[0].center", lambda doc: doc["vertices"][0].update(center=0.5)),
    ("nets[0] center list", lambda doc: doc["nets"][0][5].append(13)),
])
def test_load_refuses_center_ids_outside_the_file(tmp_path, field, corrupt):
    alpha = fixture_alphabet(0.0, H)
    assert len(alpha.centers) == 10
    f = tmp_path / "alphabet.json"
    save_alphabet(alpha, f)
    doc = json.loads(f.read_text())
    corrupt(doc)
    f.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(field)):
        load_alphabet(f)


@pytest.mark.parametrize("edge", [[0.0, 0], ["0", 0], [True, 0], [0, 10],
                                  [-1, 0], [0], [0, 0, 0], "00"],
                         ids=["float", "str", "bool", "past-end", "negative",
                              "short", "long", "string"])
def test_load_refuses_bad_edges(tmp_path, edge):
    alpha = fixture_alphabet(0.0, H)
    assert alpha.graph.n_vertices == 10
    f = tmp_path / "alphabet.json"
    save_alphabet(alpha, f)
    doc = json.loads(f.read_text())
    doc["edges"][3] = edge
    f.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape("edges[3]")):
        load_alphabet(f)


@pytest.mark.parametrize("field, corrupt", [
    ("nets[0].k", lambda doc: doc["nets"][0][0].__setitem__(0, 1.5)),
    ("nets[0].l", lambda doc: doc["nets"][0][1].__setitem__(1, "1")),
    ("nets[0].a", lambda doc: doc["nets"][0][2].__setitem__(2, True)),
    ("nets[0].m", lambda doc: doc["nets"][0].__setitem__(3, 309.0)),
    ("nets[0].j", lambda doc: doc["nets"][0].__setitem__(4, "3")),
    ("vertices[0].p_s", lambda doc: doc["vertices"][0].update(p_s=2.5)),
    ("vertices[0].p_u", lambda doc: doc["vertices"][0].update(p_u=False)),
    ("vertices[0].j", lambda doc: doc["vertices"][0].update(j=1.0)),
], ids=["k-float", "l-str", "a-bool", "m-float", "j-str", "p_s-float",
        "p_u-bool", "vertex-j-float"])
def test_load_refuses_non_integer_fields(tmp_path, field, corrupt):
    alpha = fixture_alphabet(0.0, H)
    f = tmp_path / "alphabet.json"
    save_alphabet(alpha, f)
    doc = json.loads(f.read_text())
    corrupt(doc)
    f.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(field)):
        load_alphabet(f)


def _set_box(n, k, value):
    return lambda doc: doc["cover"]["boxes"][n].__setitem__(k, value)


@pytest.mark.parametrize("field, corrupt", [
    ("cover.boxes[0]", _set_box(0, 1, 0.5)),
    ("cover.boxes[0]", _set_box(0, 0, True)),
    ("cover.boxes[0]", _set_box(0, 2, "0")),
    ("cover.boxes[1] repeats", lambda doc: doc["cover"].update(
        boxes=[[0, 0, 0, 0], [0, 0, 0, 1]])),
    ("centers[0].p_s", lambda doc: doc["centers"][0].update(p_s=94332.5)),
    ("centers[0].p_u", lambda doc: doc["centers"][0].update(p_u="1")),
    ("centers[0].q", lambda doc: doc["centers"][0].update(q=False)),
    ("centers[0].Q_expos",
     lambda doc: doc["centers"][0]["Q_expos"].__setitem__(1, 92949.0)),
    ("centers[0].points",
     lambda doc: doc["centers"][0]["points"][1].__setitem__(0, True)),
], ids=["box-float", "box-bool", "box-str", "box-repeated", "center-p_s-float",
        "center-p_u-str", "center-q-bool", "center-Q-float",
        "center-component-bool"])
def test_load_refuses_coerced_cover_and_center_fields(tmp_path, field,
                                                       corrupt):
    alpha = fixture_alphabet(0.0, H)
    f = tmp_path / "alphabet.json"
    save_alphabet(alpha, f)
    doc = json.loads(f.read_text())
    assert doc["cover"]["boxes"] == [[0, 0, 0, 0]]
    corrupt(doc)
    f.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(field)):
        load_alphabet(f)


def _set_center(key, value, *index):
    def corrupt(doc):
        obj = doc["centers"][0][key]
        for i in index[:-1]:
            obj = obj[i]
        obj[index[-1]] = value
    return corrupt


@pytest.mark.parametrize("field, corrupt", [
    ("centers[0].points", _set_center("points", "0.0", 1, 1)),
    ("centers[0].points", _set_center("points", True, 1, 2)),
    ("centers[0].dists", _set_center("dists", "0.3", 0)),
    ("centers[0].rhos", _set_center("rhos", "0.5", 2)),
    ("centers[0].frames", _set_center("frames", "1.0", 1, 0)),
    ("centers[0].frames", _set_center("frames", False, 0, 6)),
    ("eps", lambda doc: doc.update(eps="0.01")),
    ("consts.a", lambda doc: doc["consts"].update(a="1.5")),
    ("consts.beta", lambda doc: doc["consts"].update(beta="0.5")),
    ("consts.K", lambda doc: doc["consts"].update(K=True)),
], ids=["point-r-str", "point-theta-bool", "dist-str", "rho-str", "frame-str",
        "frame-chi-bool", "eps-str", "a-str", "beta-str", "K-bool"])
def test_load_refuses_non_number_real_fields(tmp_path, field, corrupt):
    alpha = fixture_alphabet(0.0, H)
    f = tmp_path / "alphabet.json"
    save_alphabet(alpha, f)
    doc = json.loads(f.read_text())
    corrupt(doc)
    f.write_text(json.dumps(doc))
    with pytest.raises(ValueError,
                       match=re.escape(field) + " = .* is not a number"):
        load_alphabet(f)


def _drop(*keys):
    def corrupt(doc):
        obj = doc
        for key in keys[:-1]:
            obj = obj[key]
        del obj[keys[-1]]
        return doc
    return corrupt


def _shorten(*keys):
    def corrupt(doc):
        obj = doc
        for key in keys:
            obj = obj[key]
        obj.pop()
        return doc
    return corrupt


def _as_list(*keys):
    def corrupt(doc):
        obj = doc
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = [obj[keys[-1]]]
        return doc
    return corrupt


@pytest.mark.parametrize("message, corrupt", [
    ("stats is missing", _drop("stats")),
    ("vertices is missing", _drop("vertices")),
    ("vertices[0].p_s is missing", _drop("vertices", 0, "p_s")),
    ("centers[0].p_s is missing", _drop("centers", 0, "p_s")),
    ("table.metric_scale is missing", _drop("table", "metric_scale")),
    ("cover.boxes is missing", _drop("cover", "boxes")),
    ("the file is not an object", lambda doc: [doc]),
    ("stats is not an object", lambda doc: {**doc, "stats": []}),
    ("centers[0].frames[1] is not a list of 7 entries",
     _shorten("centers", 0, "frames", 1)),
    ("centers[0].points[2] is not a list of 3 entries",
     _shorten("centers", 0, "points", 2)),
    ("centers[0].points is not a list of 3 entries",
     _shorten("centers", 0, "points")),
    ("centers[0].frames is not a list of 3 entries",
     _shorten("centers", 0, "frames")),
    ("centers[0].Q_expos is not a list of 3 entries",
     _shorten("centers", 0, "Q_expos")),
    ("centers[0].dists is not a list of 3 entries",
     _shorten("centers", 0, "dists")),
    ("centers[0].rhos is not a list of 3 entries",
     _shorten("centers", 0, "rhos")),
    ("nets[0] is not a list of 6 entries", _shorten("nets", 0)),
    ("nets[0].k is not a list of 3 entries", _shorten("nets", 0, 0)),
    ("cover.boxes[0] is not a list of 4 entries",
     _shorten("cover", "boxes", 0)),
    ("unknown table kind ['linear-fixture']",
     _as_list("table", "kind")),
    ("table params must be a dict", _as_list("table", "params")),
], ids=["no-stats", "no-vertices", "no-vertex-p_s", "no-center-p_s",
        "no-metric-scale", "no-boxes", "top-level-list", "stats-list",
        "short-frame-row", "short-point-row", "two-points", "two-frames",
        "two-Q", "two-dists", "two-rhos", "short-net-row", "short-net-k",
        "short-box-row", "table-kind-list", "table-params-list"])
def test_load_refuses_malformed_files(tmp_path, message, corrupt):
    alpha = fixture_alphabet(0.0, H)
    f = tmp_path / "alphabet.json"
    save_alphabet(alpha, f)
    f.write_text(json.dumps(corrupt(json.loads(f.read_text()))))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_alphabet(f)


@pytest.mark.parametrize("stretch", [1e160, 1e200])
def test_load_refuses_a_frame_that_breaks_its_bounds(tmp_path, stretch):
    # s = u = 1e200 make det C underflow to 0; it raises as 1e160 does
    alpha = fixture_alphabet(0.0, H)
    f = tmp_path / "alphabet.json"
    save_alphabet(alpha, f)
    doc = json.loads(f.read_text())
    doc["centers"][0]["frames"][1][4:6] = [stretch, stretch]
    f.write_text(json.dumps(doc))
    with pytest.raises(BoundViolated, match="closed form"):
        load_alphabet(f)


@pytest.mark.parametrize("message, corrupt", [
    ("centers[0].points[1]: point outside fixture domain",
     _set_center("points", math.inf, 1, 2)),
    ("centers[0].points[1]: point outside fixture domain",
     _set_center("points", math.nan, 1, 1)),
    ("centers[0].points[1]: component 7 outside",
     _set_center("points", 7, 1, 0)),
    ("centers[0].rhos[1] = 0.0 is not in (0, 1)",
     _set_center("rhos", 0.0, 1)),
    ("centers[0].rhos[1] = nan is not in (0, 1)",
     _set_center("rhos", math.nan, 1)),
    ("centers[0].dists[2] = nan is not in (0, 1)",
     _set_center("dists", math.nan, 2)),
    ("centers[0].frames[1] chi = nan is not in (0, inf)",
     _set_center("frames", math.nan, 1, 6)),
    ("centers[0].frames[0] chi = -1.0 is not in (0, inf)",
     _set_center("frames", -1.0, 0, 6)),
], ids=["theta-inf", "r-nan", "component-7", "rho-0", "rho-nan", "dist-nan",
        "chi-nan", "chi-negative"])
def test_load_refuses_impossible_center_values(tmp_path, message, corrupt):
    # each once escaped raw (OverflowError from the cover's box key,
    # ValueError from int(nan) or log(0), an unnamed distance error) or
    # loaded without complaint
    alpha = fixture_alphabet(0.0, H)
    f = tmp_path / "alphabet.json"
    save_alphabet(alpha, f)
    doc = json.loads(f.read_text())
    corrupt(doc)
    f.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        load_alphabet(f)


def test_load_refuses_empty_vertex_list(tmp_path):
    alpha = fixture_alphabet(0.0)
    f = tmp_path / "alphabet.json"
    save_alphabet(alpha, f)
    doc = json.loads(f.read_text())
    doc["vertices"], doc["edges"] = [], []
    f.write_text(json.dumps(doc))
    with pytest.raises(EmptyAlphabet):
        load_alphabet(f)


def test_loaded_alphabet_still_codes(tmp_path):
    alpha = fixture_alphabet(0.0, H)
    f = tmp_path / "alphabet.json"
    save_alphabet(alpha, f)
    back = load_alphabet(f)
    _, gam_h = fixture_gammas(H)
    it = sufficiency_itinerary(back, gam_h, anchor=4)
    assert all(it.in_alphabet)
    assert it.meta["shadow_gap"] == 0.0
    v0 = back.graph.vertices[0]
    assert edge_report(v0, v0, CFG, CONSTS) == []


def test_saved_file_is_plain_json(tmp_path):
    alpha = fixture_alphabet(0.0)
    f = tmp_path / "alphabet.json"
    save_alphabet(alpha, f)
    doc = json.loads(f.read_text())
    assert doc["eps"] == 0.01
    assert doc["table"]["kind"] == "linear-fixture"
    assert len(doc["centers"]) == 1
    assert doc["vertices"] == [{"center": 0, "p_s": FIX_P_EXPO,
                                "p_u": FIX_P_EXPO, "j": FIX_J}]
    assert doc["edges"] == [[0, 0]]
