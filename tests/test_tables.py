"""Table construction, geometry conventions, metric, table specs."""
from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pesin_coder.accel import comp_frame, comp_point, run_orbit
from pesin_coder.errors import DomainEscape, OrbitHitsDiscontinuity
from pesin_coder.tables import (
    Arc,
    BilliardTable,
    CORNER_TOL,
    GRAZING_COS_TOL,
    MIN_FLIGHT,
    WINDING_SAMPLES,
    _SEARCH_CACHE_DEPTH,
    PhasePoint,
    Segment,
    make_circle,
    make_flower,
    make_linear_fixture,
    make_sinai,
    make_stadium,
    make_table,
)

ALL_BUILDERS = [make_circle, make_stadium, make_sinai, make_flower]
# the fixture's half-width at diam(M) = 2 sqrt(2) half_width = 1
FIXTURE_DIAM_ONE = 1.0 / (2.0 * math.sqrt(2.0))


# ------------------------------------------------------------- construction
def test_loops_close_all_tables():
    for mk in ALL_BUILDERS:
        tb = mk()
        for loop in tb.loops:
            for i, ci in enumerate(loop):
                cj = loop[(i + 1) % len(loop)]
                ex, ey = comp_point(tb.ctype[ci], tb.cpar[ci], tb.lengths[ci])
                sx, sy = comp_point(tb.ctype[cj], tb.cpar[cj], 0.0)
                assert math.hypot(ex - sx, ey - sy) < 1e-12


def test_open_loop_rejected():
    seg1 = Segment((0.0, 0.0), (1.0, 0.0))
    seg2 = Segment((1.0, 0.0), (2.0, 1.0))  # does not return to the start
    with pytest.raises(ValueError, match="not closed"):
        BilliardTable([seg1, seg2], [[0, 1]], "open", {})


UNIT_SQUARE = [Segment((0.0, 0.0), (1.0, 0.0)), Segment((1.0, 0.0), (1.0, 1.0)),
               Segment((1.0, 1.0), (0.0, 1.0)), Segment((0.0, 1.0), (0.0, 0.0))]
UNIT_CIRCLE = Arc(center=(0.0, 0.0), radius=1.0, a0=-math.pi,
                  length=2 * math.pi, orient=+1, start_corner=False,
                  end_corner=False)


@pytest.mark.parametrize("components, loops, names", [
    ([Segment((0.0, 0.0), (0.0, 0.0))], [[0]], "component 0"),
    ([Arc(center=(0.0, 0.0), radius=0.0, a0=0.0, length=1.0, orient=+1)],
     [[0]], "component 0"),
    ([Arc(center=(0.0, 0.0), radius=1.0, a0=0.0, length=0.0, orient=+1)],
     [[0]], "component 0"),
    (UNIT_SQUARE[:1] + [Segment((1.0, 0.0), (1.0, math.nan))]
     + UNIT_SQUARE[2:], [[0, 1, 2, 3]], "component 1"),
    ([UNIT_CIRCLE], [[0, 1]], "loop 0"),
    ([UNIT_CIRCLE], [[]], "loop 0"),
    ([UNIT_CIRCLE], [[0], [0.0]], "loop 1"),
    (UNIT_SQUARE, [[0, 1, 2]], "component 3"),
    (UNIT_SQUARE, [[0, 1, 2, 3], [0, 1, 2, 3]], "component 0"),
    (UNIT_SQUARE, [[0, 1, 2, 3, 0, 1, 2, 3]], "component 0"),
    ([replace(UNIT_CIRCLE, orient=0)], [[0]], "component 0 needs orient"),
    ([replace(UNIT_CIRCLE, orient=2)], [[0]], "component 0 needs orient"),
    (UNIT_SQUARE + [replace(UNIT_CIRCLE, center=(0.5, 0.5), radius=0.25,
                            length=0.5 * math.pi, orient=-2)],
     [[0, 1, 2, 3], [4]], "component 4 needs orient"),
], ids=["zero-segment", "zero-radius", "zero-arc-length", "nan-endpoint",
        "index-out-of-range", "empty-loop", "float-index", "unlooped",
        "two-loops", "named-twice", "orient-0", "orient-2", "orient-minus-2"])
def test_hand_built_boundary_refused(components, loops, names):
    # each once escaped as ZeroDivisionError, IndexError or KeyError, or built
    with pytest.raises(ValueError, match=names):
        BilliardTable(components, loops, "hand-built", {})


HUGE = 1e300
HUGE_SQUARE = [Segment((-HUGE, -HUGE), (HUGE, -HUGE)),
               Segment((HUGE, -HUGE), (HUGE, HUGE)),
               Segment((HUGE, HUGE), (-HUGE, HUGE)),
               Segment((-HUGE, HUGE), (-HUGE, -HUGE))]


@pytest.mark.parametrize("build", [
    lambda: BilliardTable(HUGE_SQUARE, [[0, 1, 2, 3]], "hand-built", {}),
    lambda: make_stadium(1.0, HUGE)], ids=["square", "stadium"])
def test_overflowing_boundary_diameter_refused(build):
    # the square once built with metric scale 0.0 after an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="boundary diameter inf"):
            build()


@pytest.mark.parametrize("radius", [1e-15, 1e-20])
def test_thin_stadium_builds_and_every_orbit_hits_D(radius):
    # a cap arc below the ulp of the straight half-length: the table
    # builds, and no sampled orbit gets past its first collision
    st = make_stadium(radius, 1.0)
    for p in st.liouville_sample(np.random.default_rng(0), 5):
        with pytest.raises(OrbitHitsDiscontinuity):
            st.orbit(p, 20, 20)


def test_corner_collection():
    st = make_stadium()
    # stadium: four smooth segment/arc junctions
    assert len(st.corner_points) == 4
    got = sorted(map(tuple, np.round(st.corner_points, 12)))
    assert got == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]
    # circle: no corners at all
    assert len(make_circle().corner_points) == 0
    # sinai: 4 square corners; scatterer seam is unflagged
    assert len(make_sinai().corner_points) == 4
    assert len(make_flower().corner_points) == 4


def inward_normal(tb, component: int, s: float) -> np.ndarray:
    """The unit tangent rotated by 90 degrees: (-ty, tx)."""
    _, _, tx, ty = comp_frame(tb.ctype[component], tb.cpar[component], s)
    return np.array([-ty, tx])


def test_tangent_normal_curvature_conventions():
    # circle of radius 2: tangent ccw, inward normal toward center, kappa=+1/2
    tb = make_circle(radius=2.0)
    s = 1.3
    P = tb.point_xy(0, s)
    T = np.array(comp_frame(tb.ctype[0], tb.cpar[0], s)[2:])
    N = inward_normal(tb, 0, s)
    assert abs(np.dot(T, T) - 1.0) < 1e-12
    assert np.dot(N, -P) > 0  # inward = toward the center
    assert abs(T[0] * N[1] - T[1] * N[0] - 1.0) < 1e-12  # N = rot90(T)
    assert tb.curvature(0) == 0.5

    # sinai scatterer: traversal cw, inward normal AWAY from scatterer center
    sn = make_sinai()
    s = 0.7
    P = sn.point_xy(4, s)
    N = inward_normal(sn, 4, s)
    assert np.dot(N, P) > 0  # away from origin = into the table
    assert sn.curvature(4) == -1.0 / 0.5

    # segments are flat
    assert sn.curvature(0) == 0.0


def test_arc_axis_rotation_consistency():
    # expressing the same arc with its start angle split between a0 and axis
    # must not move any point: global angle = axis + a0 + orient*s/R
    base = Arc(center=(0.0, 0.0), radius=1.0, a0=0.2, length=1.0, orient=+1)
    for axis in (math.pi / 2, math.pi, -math.pi / 2, 3 * math.pi / 2, 0.7):
        rot = Arc(center=(0.0, 0.0), radius=1.0, a0=0.2 - axis, length=1.0,
                  orient=+1, axis=axis)
        for t in (0.0, 0.31, 0.99):
            assert np.allclose(comp_point(*rot.packed(), t),
                               comp_point(*base.packed(), t), atol=1e-12)


def test_arc_axis_snaps_quarter_turns():
    # rotation entries for k*pi/2 axes are exactly 0/±1
    arc = Arc(center=(0.0, 0.0), radius=1.0, a0=0.0, length=1.0, orient=+1,
              axis=math.pi)
    _, row = arc.packed()
    assert (row[6], row[7]) == (-1.0, 0.0)
    arc = Arc(center=(0.0, 0.0), radius=1.0, a0=0.0, length=1.0, orient=+1,
              axis=-math.pi / 2)
    _, row = arc.packed()
    assert (row[6], row[7]) == (0.0, -1.0)


@pytest.mark.parametrize("mk", ALL_BUILDERS)
def test_packed_rows_are_python_numbers(mk):
    # the ray kernel reads these one entry at a time: numpy scalars there
    # cost about three times the plain-Python arithmetic
    tb = mk()
    assert type(tb.ctype) is tuple and type(tb.cpar) is tuple
    assert all(type(t) is int for t in tb.ctype)
    assert all(type(row) is tuple and all(type(v) is float for v in row)
               for row in tb.cpar)
    assert type(tb.corner_points) is tuple
    assert all(type(v) is float for xy in tb.corner_points for v in xy)


# sha256 of float.hex of the corner points, the component lengths, the
# boundary diameter and the metric scale, all read from the packed rows
BOUNDARY_PINS = {
    make_circle: "280913b6b3465255",
    make_stadium: "ca24e9b2b8ba600c",
    make_sinai: "756428b460fe16f3",
    make_flower: "f12d01af4174bb49",
}


@pytest.mark.parametrize("mk", list(BOUNDARY_PINS))
def test_boundary_facts_are_bitwise_pinned(mk):
    tb = mk()
    values = ([v for xy in tb.corner_points for v in xy] + list(tb.lengths)
              + [tb.boundary_diameter, tb.metric_scale])
    text = "|".join(float(v).hex() for v in values)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == BOUNDARY_PINS[mk]


# float.hex of d(p, D); each point runs at least one golden-section refinement
DIST_PINS = {
    make_stadium: ["0x1.99f0c99837413p-8", "0x1.11b54e5de8099p-6",
                   "0x1.cb075dbaab0dep-5"],
    make_sinai: ["0x1.cecc8eb93345ep-7", "0x1.3f251e86c6f96p-6",
                 "0x1.c568dece5777fp-7"],
    make_flower: ["0x1.4ced4269a8cc8p-6", "0x1.a1771fb52b895p-7",
                  "0x1.13e483e8e3e52p-4"],
}


@pytest.mark.parametrize("mk", list(DIST_PINS))
def test_dist_to_D_is_bitwise_pinned(mk):
    tb = mk()
    pts = [PhasePoint(0, 0.7, 0.3), PhasePoint(1, 1.0, -0.4), PhasePoint(2, 0.3, 1.1)]
    assert [tb.dist_to_D(p).hex() for p in pts] == DIST_PINS[mk]


def orbit_neighbourhoods(tb, seed: int, n: int) -> list[PhasePoint]:
    """n seeded Liouville points, each with its +-3 orbit neighbours (the
    point alone when that orbit meets D)."""
    out = []
    for x in tb.liouville_sample(np.random.default_rng(seed), n):
        try:
            out += tb.orbit(x, 3, 3)[0]
        except OrbitHitsDiscontinuity:
            out.append(x)
    return out


# sha256 of float.hex of d(p, D) over 200 seeded Liouville points and their
# +-3 orbit neighbours, pinned before the search tops were cached
DIST_ORBIT_PINS = {
    make_stadium: "9160dd694ccc2405",
    make_sinai: "b3da8df66216a0dc",
    make_flower: "2f3caffc18adc6f2",
}


@pytest.mark.parametrize("mk", list(DIST_ORBIT_PINS))
def test_dist_to_D_on_orbits_is_bitwise_pinned(mk):
    tb = mk()
    pts = orbit_neighbourhoods(tb, 24, 200)
    text = "|".join(tb.dist_to_D(p).hex() for p in pts)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == DIST_ORBIT_PINS[mk]


@pytest.mark.parametrize("mk", list(DIST_ORBIT_PINS))
def test_dist_to_D_bits_do_not_depend_on_the_search_cache(mk):
    # a fresh table, the same table warmed, and a fresh table queried in
    # reversed order give the same bits
    pts = orbit_neighbourhoods(mk(), 5, 30)
    tb = mk()
    fresh = [tb.dist_to_D(p).hex() for p in pts]
    assert any(tb._search_tops)
    warmed = [tb.dist_to_D(p).hex() for p in pts]
    other = mk()
    backwards = [other.dist_to_D(p).hex() for p in reversed(pts)][::-1]
    assert fresh == warmed == backwards


@pytest.mark.parametrize("mk", list(DIST_ORBIT_PINS))
def test_search_cache_holds_at_most_128_points_a_row(mk):
    tb = mk()
    for p in tb.liouville_sample(np.random.default_rng(11), 500):
        tb.dist_to_D(p)
    sizes = [len(top) for top in tb._search_tops]
    assert len(sizes) == len(tb.singularity_cloud()["fam"])
    assert 0 < max(sizes) <= 2 ** (_SEARCH_CACHE_DEPTH - 1) == 128


@pytest.mark.parametrize("mk, last", [
    (make_stadium, (0, "0x1.4c835ac27be03p-1", "0x1.2e01c3ed428e7p+0")),
    (make_flower, (1, "0x1.2114a6b00ebdcp+0", "0x1.2f32552798fa7p+0")),
])
def test_long_orbit_is_bitwise_pinned(mk, last):
    q = mk().orbit(PhasePoint(0, 0.5, 0.2), 0, 1000)[0][-1]
    assert (q.component, q.r.hex(), q.theta.hex()) == last


# sha256 of float.hex of the derivatives of a +-200 orbit and of the point
# after it: the mirror equation reads each flight length, so this pins the
# flights that the orbit no longer returns
ORBIT_DERIV_PINS = {
    make_stadium: "b968dc8ef0df79db",
    make_flower: "fe9cc8c0d2b9fc78",
}


@pytest.mark.parametrize("mk", list(ORBIT_DERIV_PINS))
def test_orbit_derivatives_are_bitwise_pinned(mk):
    pts, derivs, after = mk().orbit(PhasePoint(0, 0.5, 0.2), 200, 200)
    assert len(pts) == len(derivs) == 401
    out = [float(v).hex() for v in derivs.ravel()]
    out += [str(after.component), after.r.hex(), after.theta.hex()]
    digest = hashlib.sha256("|".join(out).encode()).hexdigest()[:16]
    assert digest == ORBIT_DERIV_PINS[mk]


# sha256 of float.hex of comp_frame (px, py, tx, ty) at both ends and 16
# seeded arclengths of every component: the values of the separate point
# and tangent functions it replaced
FRAME_PINS = {
    make_circle: "0f17b06166c44309",
    make_stadium: "9167690c88dea7d6",
    make_sinai: "912884cfe703b4f8",
    make_flower: "5acf9612cd072f5f",
}


@pytest.mark.parametrize("mk", list(FRAME_PINS))
def test_comp_frame_is_bitwise_pinned(mk):
    tb = mk()
    rng = np.random.default_rng(3)
    out = []
    for c, L in enumerate(tb.lengths):
        for s in [0.0, L] + rng.uniform(0.0, L, 16).tolist():
            out += [v.hex() for v in comp_frame(tb.ctype[c], tb.cpar[c], s)]
    digest = hashlib.sha256("|".join(out).encode()).hexdigest()[:16]
    assert digest == FRAME_PINS[mk]


def rectangle_3x1():
    return BilliardTable([Segment((0.0, 0.0), (3.0, 0.0)),
                          Segment((3.0, 0.0), (3.0, 1.0)),
                          Segment((3.0, 1.0), (0.0, 1.0)),
                          Segment((0.0, 1.0), (0.0, 0.0))],
                         [[0, 1, 2, 3]], "rectangle", {})


# sha256 of the states and flights run_orbit returns (components, then
# float.hex of r, theta and tau), with its status and step count; the 45
# degree ray in the 3 x 1 rectangle bounces once and lands on the corner
RUN_ORBIT_PINS = {
    "flower-forward": (make_flower, (0, 0.5, 0.2, 1000), "c390ea7ed4c94aa3", 0, 1000),
    "flower-backward": (make_flower, (0, 0.5, -0.2, 1000), "632f28bd4155f98f", 0, 1000),
    "stadium": (make_stadium, (1, 1.1, 0.4, 1000), "6ce540c4e17254a9", 0, 1000),
    "rectangle-corner": (rectangle_3x1, (0, 1.0, math.pi / 4, 10),
                         "f6e67f2a0115bac0", 2, 1),
}


@pytest.mark.parametrize("case", list(RUN_ORBIT_PINS))
def test_run_orbit_is_bitwise_pinned(case):
    mk, (c, r, th, n), pin, want_status, want_k = RUN_ORBIT_PINS[case]
    tb = mk()
    comps, rs, ths, taus, status, k = run_orbit(
        tb.ctype, tb.cpar, c, r, th, n, GRAZING_COS_TOL, MIN_FLIGHT, CORNER_TOL)
    assert (status, k) == (want_status, want_k)
    out = [str(int(v)) for v in comps[:k + 1]]
    out += [float(v).hex() for a in (rs[:k + 1], ths[:k + 1], taus[:k]) for v in a]
    assert hashlib.sha256("|".join(out).encode()).hexdigest()[:16] == pin


@pytest.mark.parametrize("component", [-1, 4, 7])
def test_component_outside_the_table_refused(component):
    # -1 would read the last packed row, 4 and 7 are past it
    st = make_stadium()
    p = PhasePoint(component, 0.5, 0.1)
    inside = PhasePoint(0, 0.5, 0.1)
    rows = np.zeros((2, 2))
    calls = [lambda: st.step(p, True), lambda: st.step(p, False),
             lambda: st.derivative(p, True), lambda: st.derivative(p, False),
             lambda: st.dist_to_D(p), lambda: st.embed(p, 0.1, 0.0),
             lambda: st.point_xy(component, 0.5),
             lambda: st.offset(inside, p), lambda: st.offset(p, inside),
             lambda: st.wrap_r(component, 0.3),
             lambda: st.step_many(p, rows, True, inside),
             lambda: st.step_many(inside, rows, True, p)]
    for call in calls:
        with pytest.raises(ValueError, match=rf"^component {component} outside \[0, 4\)$"):
            call()


def test_contains_point():
    st = make_stadium()
    assert st.contains_point((0.0, 0.0))
    assert st.contains_point((1.9, 0.0))
    assert not st.contains_point((2.1, 0.0))
    assert not st.contains_point((0.0, 1.1))
    sn = make_sinai()
    assert sn.contains_point((0.9, 0.9))
    assert not sn.contains_point((0.1, 0.0))  # inside the scatterer


def test_contains_point_samples_the_boundary_once(monkeypatch):
    st = make_stadium()
    calls = []
    sample = st.point_xy
    monkeypatch.setattr(st, "point_xy", lambda c, s: calls.append(c) or sample(c, s))
    assert st.contains_point((0.0, 0.0))
    assert len(calls) == 4 * WINDING_SAMPLES
    assert not st.contains_point((2.1, 0.0))
    assert st.contains_point((1.9, 0.0))
    assert len(calls) == 4 * WINDING_SAMPLES


def test_wrap_r_walks_loop():
    st = make_stadium()
    # stepping past the end of the bottom segment lands on the right cap
    c, r = st.wrap_r(0, 2.0 + 0.25)
    assert c == 1 and abs(r - 0.25) < 1e-12
    # negative arclength walks backwards onto the left cap
    c, r = st.wrap_r(0, -0.25)
    assert c == 3 and abs(r - (math.pi - 0.25)) < 1e-12
    # single-component loops just wrap mod length
    cir = make_circle()
    c, r = cir.wrap_r(0, 2 * math.pi + 0.5)
    assert c == 0 and abs(r - 0.5) < 1e-12


@pytest.mark.parametrize("mk", [make_circle, make_stadium])
@pytest.mark.parametrize("dr, dtheta", [
    (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (-math.inf, 0.0),
    (0.0, math.inf)], ids=["nan-dr", "nan-dtheta", "inf-dr", "-inf-dr",
                           "inf-dtheta"])
def test_embed_refuses_non_finite_offsets(mk, dr, dtheta):
    # an infinite dr walked the stadium loop forever; NaN came back as a point
    with pytest.raises(DomainEscape, match="not finite|leaves"):
        mk().embed(PhasePoint(0, 0.5, 0.1), dr, dtheta)


@pytest.mark.parametrize("mk", [make_circle, make_stadium, make_flower])
def test_embed_refuses_offsets_as_long_as_the_loop(mk):
    # wrap_r walks one component per pass: at dr = 1e300 the stadium walk
    # never ended, since r - L rounds back to r
    tb = mk()
    p = PhasePoint(0, 0.5, 0.1)
    total = tb._loop_at[0][3]
    for dr in (1e300, -1e300, total, -total):
        with pytest.raises(DomainEscape, match="leaves"):
            tb.embed(p, dr, 0.0)
    # just inside the loop length the walk still wraps, in at most two passes
    for dr in (math.nextafter(total, 0.0), -math.nextafter(total, 0.0)):
        q = tb.embed(p, dr, 0.0)
        assert 0.0 <= q.r < tb.lengths[q.component]


# sha256 of float.hex of each embed -> offset round trip across a junction
# (the bits of the prefix-sum fold in offset, with its rounding at small dr)
ROUND_TRIP_PINS = {
    make_stadium: "2d8887f104f0c69a",
    make_sinai: "3f2af3db6f964c7a",
    make_flower: "bdbacccd2ed0ad33",
}


@pytest.mark.parametrize("mk", list(ROUND_TRIP_PINS))
def test_junction_round_trips_are_bitwise_pinned(mk):
    tb = mk()
    out = []
    for loop in tb.loops:
        for i, c in enumerate(loop):
            nxt = loop[(i + 1) % len(loop)]
            L = tb.lengths[c]
            for d in (1e-6, 1e-4, 1e-2, 0.5):
                # d/2 before the junction, forward by d; and back again
                for x, dr, lands in ((PhasePoint(c, L - d / 2, 0.1), d, nxt),
                                     (PhasePoint(nxt, d / 2, -0.2), -d, c)):
                    p = tb.embed(x, dr, d / 3)
                    assert p.component == lands
                    back = tb.offset(x, p)
                    out += [p.r.hex(), float(back[0]).hex(),
                            float(back[1]).hex()]
    digest = hashlib.sha256("|".join(out).encode()).hexdigest()[:16]
    assert digest == ROUND_TRIP_PINS[mk]


# -------------------------------------------------------------------- metric
def test_metric_is_chordal_product():
    st = make_stadium()
    p = PhasePoint(0, 0.5, 0.1)
    q = PhasePoint(0, 1.5, -0.2)
    expect = st.metric_scale * math.hypot(1.0, 0.3)
    assert abs(st.distance(p, q) - expect) < 1e-12
    assert st.distance(p, p) == 0.0
    assert st.distance(p, q) == st.distance(q, p)


def test_metric_triangle_inequality_random():
    st = make_stadium()
    rng = np.random.default_rng(1)
    pts = st.liouville_sample(rng, 30)
    for i in range(0, 28, 3):
        a, b, c = pts[i], pts[i + 1], pts[i + 2]
        assert st.distance(a, c) <= st.distance(a, b) + st.distance(b, c) + 1e-12


def test_diameter_below_one():
    for mk in ALL_BUILDERS:
        tb = mk()
        assert tb.diameter() < 1.0
    fx = make_linear_fixture()
    assert fx.diameter() < 1.0
    # the widest fixture accepted; one ulp wider is refused (bad specs)
    widest = math.nextafter(FIXTURE_DIAM_ONE, 0.0)
    assert make_linear_fixture(half_width=widest).diameter() < 1.0


def test_validate_point():
    st = make_stadium()
    st.validate_point(PhasePoint(0, 0.5, 0.3))
    with pytest.raises(ValueError):
        st.validate_point(PhasePoint(0, 5.0, 0.3))
    with pytest.raises(ValueError):
        st.validate_point(PhasePoint(0, 0.5, 2.0))


@pytest.mark.parametrize("make,x", [
    (make_stadium, PhasePoint(-1, 0.5, 0.1)),   # negative index would run on component 3
    (make_stadium, PhasePoint(5, 0.0, 0.0)),    # past the last component
    (make_stadium, PhasePoint(0, 100.0, 0.1)),  # r beyond the component length
    (make_stadium, PhasePoint(0, 0.5, 2.0)),    # |theta| beyond pi/2
    (make_linear_fixture, PhasePoint(3, 0.01, 0.01)),  # the fixture has one component
    (make_stadium, PhasePoint(0, 0.5, math.nan)),
    (make_linear_fixture, PhasePoint(0, 0.01, math.nan)),
    (make_linear_fixture, PhasePoint(0, math.nan, 0.01)),
], ids=["component-negative", "component-too-large", "r-outside", "theta-outside",
        "fixture-component", "theta-nan", "fixture-theta-nan", "fixture-r-nan"])
def test_orbit_rejects_start_outside_phase_space(make, x):
    from pesin_coder.cocycle import orbit_segment

    with pytest.raises(ValueError, match="outside|exceeds"):
        orbit_segment(make(), x, 3, 3)


def test_liouville_sample_respects_cap_and_measure():
    st = make_stadium()
    rng = np.random.default_rng(7)
    pts = st.liouville_sample(rng, 4000, theta_cap=1.2)
    ths = np.array([p.theta for p in pts])
    assert np.max(np.abs(ths)) < 1.2
    # sin(theta) should be uniform: check mean and spread loosely
    s = np.sin(ths)
    assert abs(s.mean()) < 0.05
    assert abs(np.std(s) - math.sqrt(1.0 / 3.0) * math.sin(1.2)) < 0.25


# ------------------------------------------------------------------- fixture
def test_fixture_basics():
    fx = make_linear_fixture()
    assert fx.lambda_u == math.e and fx.lambda_s == 1.0 / math.e
    fx.validate_point(PhasePoint(0, 0.29, -0.29))
    with pytest.raises(ValueError):
        fx.validate_point(PhasePoint(0, 0.31, 0.0))
    p, q = PhasePoint(0, 0.1, 0.2), PhasePoint(0, 0.0, 0.0)
    assert abs(fx.distance(p, q) - math.hypot(0.1, 0.2)) < 1e-15
    with pytest.raises(ValueError):
        make_linear_fixture(lambda_u=0.5)


def test_fixture_sampling_in_domain():
    fx = make_linear_fixture()
    rng = np.random.default_rng(3)
    for p in fx.liouville_sample(rng, 200):
        assert max(abs(p.r), abs(p.theta)) <= fx.half_width


# --------------------------------------------------------------- table specs
def test_make_table_dispatch():
    tb = make_table("stadium", {"radius": 1.0, "straight_half_length": 2.0})
    assert tb.kind == "stadium"
    assert tb.lengths[0] == 4.0
    with pytest.raises(ValueError, match="unknown table kind"):
        make_table("pentagon")


@pytest.mark.parametrize("kind,params", [
    ("circle", {"radius": 0.0}),
    ("circle", {"radius": -1.0}),
    ("sinai", {"scatterer_radius": 2.0}),
    ("sinai", {"scatterer_radius": 0.0}),
    ("sinai", {"half_side": -1.0}),
    ("linear-fixture", {"half_width": -0.3}),
    ("circle", {"radius": 1.0, "colour": 2}),
    ("circle", {"radius": "1"}),
    ("circle", {"radius": math.inf}),
    ("linear-fixture", {"half_width": math.inf}),
    ("linear-fixture", {"half_width": 0.5}),
    ("linear-fixture", {"half_width": FIXTURE_DIAM_ONE}),
    ("linear-fixture", {"half_width": math.nan}),
    (["stadium"], {}),
    ("stadium", [1, 2]),
    ("stadium", "ab"),
], ids=["circle-radius-0", "circle-radius-negative", "sinai-scatterer-too-big",
        "sinai-scatterer-0", "sinai-half-side-negative",
        "fixture-half-width-negative", "circle-unknown-parameter",
        "circle-radius-string", "circle-radius-inf", "fixture-half-width-inf",
        "fixture-wider-than-diam-1", "fixture-diam-1",
        "fixture-half-width-nan", "kind-list", "params-list", "params-string"])
def test_make_table_rejects_bad_specs(kind, params):
    with pytest.raises(ValueError, match="must|need"):
        make_table(kind, params)


@pytest.mark.parametrize("build,kwargs", [
    (make_circle, {"radius": math.inf}),
    (make_stadium, {"straight_half_length": math.inf}),
    (make_sinai, {"half_side": math.inf}),
    (make_flower, {"arc_radius": math.inf}),
    (make_linear_fixture, {"half_width": math.inf}),
    (make_linear_fixture, {"lambda_u": math.nan}),
], ids=["circle-radius-inf", "stadium-straight-inf", "sinai-half-side-inf",
        "flower-arc-radius-inf", "fixture-half-width-inf",
        "fixture-lambda-u-nan"])
def test_builders_reject_non_finite_numbers(build, kwargs):
    with pytest.raises(ValueError, match="finite"):
        build(**kwargs)
