"""Table construction, geometry conventions, metric, table specs."""
from __future__ import annotations

import hashlib
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pesin_coder.accel import (
    CORNER,
    GRAZING,
    NO_INTERSECTION,
    OK,
    comp_frame,
    run_orbit,
    run_step_many,
    segment_row,
)
from pesin_coder.errors import (
    DomainEscape,
    FormsDisagree,
    OrbitHitsDiscontinuity,
)
from pesin_coder.tables import (
    Arc,
    BilliardTable,
    BOUNDARY_SAMPLES,
    WINDING_SAMPLES,
    _CLOUD_FAN,
    _CLOUD_TANGENCIES,
    _SEARCH_CACHE_DEPTH,
    _WINDING_CHUNK,
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
                ex, ey = comp_frame(tb.rows[ci], tb.lengths[ci])[:2]
                sx, sy = comp_frame(tb.rows[cj], 0.0)[:2]
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
# each loop run the other way round: its interior is on the right
CLOCKWISE_SQUARE = [Segment(s.p1, s.p0) for s in UNIT_SQUARE[::-1]]
CLOCKWISE_CIRCLE = replace(UNIT_CIRCLE, a0=0.0, orient=-1)
SINAI_SQUARE = [Segment((-1.0, -1.0), (1.0, -1.0)),
                Segment((1.0, -1.0), (1.0, 1.0)),
                Segment((1.0, 1.0), (-1.0, 1.0)),
                Segment((-1.0, 1.0), (-1.0, -1.0))]
CLOCKWISE_SINAI_SQUARE = [Segment(s.p1, s.p0) for s in SINAI_SQUARE[::-1]]
SCATTERER = Arc(center=(0.0, 0.0), radius=0.5, a0=math.pi, length=math.pi,
                orient=-1, start_corner=False, end_corner=False)
COUNTERCLOCKWISE_SCATTERER = replace(SCATTERER, a0=-math.pi, orient=+1)


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
    (CLOCKWISE_SQUARE, [[0, 1, 2, 3]], "loop 0 runs clockwise"),
    ([CLOCKWISE_CIRCLE], [[0]], "loop 0 runs clockwise"),
    (SINAI_SQUARE + [COUNTERCLOCKWISE_SCATTERER], [[0, 1, 2, 3], [4]],
     "loop 1 runs counterclockwise"),
    (CLOCKWISE_SINAI_SQUARE + [COUNTERCLOCKWISE_SCATTERER],
     [[0, 1, 2, 3], [4]], "loop 0 runs clockwise"),
    (CLOCKWISE_SINAI_SQUARE + [SCATTERER], [[0, 1, 2, 3], [4]],
     "loop 0 runs clockwise"),
    (SINAI_SQUARE + [replace(SCATTERER, center=(x, 0.0), radius=0.9,
                             length=1.8 * math.pi) for x in (-0.5, 0.5)],
     [[0, 1, 2, 3], [4], [5]], "loop 0 encloses less area"),
], ids=["zero-segment", "zero-radius", "zero-arc-length", "nan-endpoint",
        "index-out-of-range", "empty-loop", "float-index", "unlooped",
        "two-loops", "named-twice", "orient-0", "orient-2", "orient-minus-2",
        "clockwise-square", "clockwise-circle", "sinai-scatterer-reversed",
        "sinai-both-reversed", "sinai-outer-reversed", "holes-outweigh-outer"])
def test_hand_built_boundary_refused(components, loops, names):
    # each once escaped as ZeroDivisionError, IndexError or KeyError, or
    # built (a reversed loop raised only at the first derivative() call)
    with pytest.raises(ValueError, match=names):
        BilliardTable(components, loops, "hand-built", {})


HUGE = 1e300
HUGE_SQUARE = [Segment((-HUGE, -HUGE), (HUGE, -HUGE)),
               Segment((HUGE, -HUGE), (HUGE, HUGE)),
               Segment((HUGE, HUGE), (-HUGE, HUGE)),
               Segment((-HUGE, HUGE), (-HUGE, -HUGE))]


def square(h):
    return [Segment((-h, -h), (h, -h)), Segment((h, -h), (h, h)),
            Segment((h, h), (-h, h)), Segment((-h, h), (-h, -h))]


@pytest.mark.parametrize("build", [
    lambda: BilliardTable(HUGE_SQUARE, [[0, 1, 2, 3]], "hand-built", {}),
    lambda: make_stadium(1.0, HUGE),
    # each side's square is 1e308, finite; only the diagonal's sum of two
    # squares overflows
    lambda: BilliardTable(square(0.5e154), [[0, 1, 2, 3]], "hand-built", {})],
    ids=["square", "stadium", "square-diagonal"])
def test_overflowing_boundary_diameter_refused(build):
    # the square once built with metric scale 0.0 after an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="boundary diameter inf"):
            build()


# boundary_diameter and metric_scale of each builder's default table, as
# float.hex, pinned before tiny tables were scaled up to sample theirs
DEFAULT_SCALES = {
    make_circle: ("0x1.0000000000000p+1", "0x1.05360695a3d0bp-2"),
    make_stadium: ("0x1.0000000000000p+2", "0x1.7e862370e3e0dp-3"),
    make_sinai: ("0x1.6a09e667f3bcdp+1", "0x1.cc409f23d5751p-3"),
    make_flower: ("0x1.6a09e667f3bcdp+1", "0x1.cc409f23d5751p-3"),
}


def test_boundary_diameter_of_tiny_and_default_tables():
    # a table of size 1e-200 has the diameter of its sampled points, not
    # the 0.0 of underflowing squares; the default tables keep their bits
    for table, size in ((make_circle(1e-200), 2e-200),
                        (make_stadium(1e-200, 1e-200), 4e-200)):
        pts = np.concatenate(table._polyline(BOUNDARY_SAMPLES)) * 2.0 ** 700
        sampled = max(math.dist(p, q) for p in pts for q in pts) / 2.0 ** 700
        assert table.boundary_diameter == pytest.approx(sampled, rel=5e-16)
        assert table.boundary_diameter == pytest.approx(size, rel=1e-3)
        assert table.metric_scale == 0.95 / math.hypot(
            table.boundary_diameter, math.pi)
    for build, (diameter, scale) in DEFAULT_SCALES.items():
        table = build()
        assert table.boundary_diameter.hex() == diameter
        assert table.metric_scale.hex() == scale
    assert make_linear_fixture().metric_scale == 1.0


def pairwise_diameter(table):
    """The boundary diameter from the (N, N, 2) pairwise reduction
    np.sum((p_i - p_j)**2, axis=-1), with the power-of-two rescaling of
    tables below 2**-500."""
    pts = np.concatenate(table._polyline(BOUNDARY_SAMPLES))
    top = float(np.abs(pts).max())
    shift = -math.frexp(top)[1] if 0.0 < top < 2.0 ** -500 else 0
    pts = np.ldexp(pts, shift)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    return math.ldexp(math.sqrt(d2.max()), -shift)


def random_specs(rng, n):
    """n parameter lists of each builder, over six decades of scale."""
    specs = []
    for _ in range(n):
        s = 10.0 ** rng.uniform(-3.0, 3.0)
        u, v = rng.uniform(0.05, 0.95, 2)
        specs += [(make_circle, (s,)), (make_stadium, (s, s * 4.0 * u)),
                  (make_sinai, (s, s * u)),
                  (make_flower, (s * math.sqrt(2.0) / v, s))]
    return specs


def test_boundary_diameter_is_the_pairwise_reduction():
    # the two flat passes give the bits of the pairwise sum of squares on
    # every builder default, 20 seeded specs per builder and a table whose
    # points are scaled by a power of two first
    tables = [mk() for mk in ALL_BUILDERS] + [make_circle(1e-200)]
    tables += [mk(*args) for mk, args in
               random_specs(np.random.default_rng(38), 20)]
    assert len(tables) == 85
    for table in tables:
        expected = pairwise_diameter(table)
        assert table.boundary_diameter.hex() == expected.hex()
        assert table.metric_scale == 0.95 / math.hypot(expected, math.pi)


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


def point_xy(tb, component: int, s: float) -> np.ndarray:
    """The boundary point at arclength s of a component, as an array."""
    return np.array(comp_frame(tb.rows[component], s)[:2])


def inward_normal(tb, component: int, s: float) -> np.ndarray:
    """The unit tangent rotated by 90 degrees: (-ty, tx)."""
    _, _, tx, ty = comp_frame(tb.rows[component], s)
    return np.array([-ty, tx])


def test_tangent_normal_curvature_conventions():
    # circle of radius 2: tangent ccw, inward normal toward center, kappa=+1/2
    tb = make_circle(radius=2.0)
    s = 1.3
    P = point_xy(tb, 0, s)
    T = np.array(comp_frame(tb.rows[0], s)[2:])
    N = inward_normal(tb, 0, s)
    assert abs(np.dot(T, T) - 1.0) < 1e-12
    assert np.dot(N, -P) > 0  # inward = toward the center
    assert abs(T[0] * N[1] - T[1] * N[0] - 1.0) < 1e-12  # N = rot90(T)
    assert tb.curvature(0) == 0.5

    # sinai scatterer: traversal cw, inward normal AWAY from scatterer center
    sn = make_sinai()
    s = 0.7
    P = point_xy(sn, 4, s)
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
            assert np.allclose(comp_frame(rot.packed(), t)[:2],
                               comp_frame(base.packed(), t)[:2], atol=1e-12)


def test_arc_axis_snaps_quarter_turns():
    # rotation entries for k*pi/2 axes are exactly 0/±1
    arc = Arc(center=(0.0, 0.0), radius=1.0, a0=0.0, length=1.0, orient=+1,
              axis=math.pi)
    row = arc.packed()
    assert (row[10], row[11]) == (-1.0, 0.0)
    arc = Arc(center=(0.0, 0.0), radius=1.0, a0=0.0, length=1.0, orient=+1,
              axis=-math.pi / 2)
    row = arc.packed()
    assert (row[10], row[11]) == (0.0, -1.0)


@pytest.mark.parametrize("mk", ALL_BUILDERS)
def test_packed_rows_are_python_numbers(mk):
    # the ray kernel unpacks a whole row at each component: numpy scalars
    # there cost about three times the plain-Python arithmetic
    tb = mk()
    assert type(tb.rows) is tuple and len(tb.rows) == len(tb.lengths)
    for c, row in enumerate(tb.rows):
        assert type(row) is tuple and len(row) == 15
        assert type(row[0]) is int and row[0] in (0, 1)
        assert all(type(v) is float for v in row[1:])
        # the derived constants are the expressions the per-step loop
        # evaluated before they were packed, bit for bit
        (arc, x0, y0, length, hit, ux, uy, R, a0, orient, axc, axs, RR,
         start, end) = row
        if arc:
            assert hit.hex() == (length + 1e-9 * R).hex()
            assert RR.hex() == (R * R).hex()
            assert (ux, uy) == (0.0, 0.0)
        else:
            assert hit.hex() == (length + 1e-12).hex()
            assert (R, a0, orient, axc, axs, RR) == (0.0,) * 6
        assert length == tb.lengths[c]
        assert start in (0.0, 1.0) and end in (0.0, 1.0)
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
            out += map(PhasePoint, *tb.orbit(x, 3, 3)[0])
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
    comps, rs, ths = mk().orbit(PhasePoint(0, 0.5, 0.2), 0, 1000)[0]
    assert (comps[-1], rs[-1].hex(), ths[-1].hex()) == last


# sha256 of float.hex of the derivatives of a +-200 orbit and of the point
# after it: the mirror equation reads each flight length, so this pins the
# flights that the orbit no longer returns
ORBIT_DERIV_PINS = {
    make_stadium: "b968dc8ef0df79db",
    make_flower: "fe9cc8c0d2b9fc78",
}


@pytest.mark.parametrize("mk", list(ORBIT_DERIV_PINS))
def test_orbit_derivatives_are_bitwise_pinned(mk):
    (comps, rs, ths), derivs, after = mk().orbit(PhasePoint(0, 0.5, 0.2), 200, 200)
    assert len(comps) == len(rs) == len(ths) == len(derivs) == 401
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
            out += [v.hex() for v in comp_frame(tb.rows[c], s)]
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
    comps, rs, ths, taus, status, k = run_orbit(tb.rows, c, r, th, n)
    assert (status, k) == (want_status, want_k)
    out = [str(int(v)) for v in comps[:k + 1]]
    out += [float(v).hex() for a in (rs[:k + 1], ths[:k + 1], taus[:k]) for v in a]
    assert hashlib.sha256("|".join(out).encode()).hexdigest()[:16] == pin


def step_many_against_run_orbit(rows, states) -> set:
    """run_step_many over the states (component, r, theta), each row checked
    against one run_orbit step from it: the same status and, when that is
    OK, the same image bit for bit.  Returns the statuses seen."""
    comps, rs, ths = (np.array(col) for col in zip(*states))
    ci, s, th, status = run_step_many(rows, comps, rs, ths)
    for k, (c, r, t) in enumerate(states):
        cs, rs1, ths1, _, want, n = run_orbit(rows, c, r, t, 1)
        assert int(status[k]) == want, (k, c, r, t)
        if want == OK:
            assert n == 1
            assert int(ci[k]) == cs[1]
            assert float(s[k]).hex() == rs1[1].hex()
            assert float(th[k]).hex() == ths1[1].hex()
    return set(status.tolist())


# states whose single step ends in a given status, by table: starts within
# GRAZING_COS_TOL of tangency, the near-tangent sweep off the stadium cap
# that reaches the bottom wall tangentially, and the sinai sweep over the
# square's corner (1, 1)
GRAZING_STARTS = [(0, 0.3, math.pi / 2 - 1e-9), (0, 0.3, -math.pi / 2 + 5e-9)]
STEP_MANY_CASES = {
    make_circle: ([], {OK, GRAZING}),
    make_stadium: ([(1, 1e-5, -math.pi / 2 + 1e-5 + dt)
                    for dt in np.linspace(-1e-7, 1e-7, 33).tolist()],
                   {OK, GRAZING}),
    make_sinai: ([(0, 1.9, math.atan(0.05) + dt)
                  for dt in np.linspace(-2e-12, 2e-12, 33).tolist()],
                 {OK, GRAZING, CORNER}),
    make_flower: ([], {OK, GRAZING}),
}


@pytest.mark.parametrize("mk", list(STEP_MANY_CASES))
def test_step_many_rows_are_run_orbit_steps(mk):
    tb = mk()
    extra, want = STEP_MANY_CASES[mk]
    states = [(p.component, p.r, p.theta)
              for p in tb.liouville_sample(np.random.default_rng(8), 150)]
    seen = step_many_against_run_orbit(tb.rows, states + GRAZING_STARTS + extra)
    assert want <= seen


def test_step_many_reports_each_status_on_an_open_strip():
    # two unit segments facing each other across the strip 0 <= y <= 1, not
    # a closed table, the top one with corner flags at both ends: steep rays
    # leave through the open ends and hit nothing, rays from (0.5, 0) at
    # -+atan(1/2) meet the top's end and start, and a start within
    # GRAZING_COS_TOL of tangency is grazing although its ray misses too
    rows = (segment_row(0.0, 0.0, 1.0, 0.0, 1.0, False, False),
            segment_row(1.0, 1.0, -1.0, 0.0, 1.0, True, True))
    aims = [-1.2, -math.atan(0.5), -0.3, 0.0, 0.4, math.atan(0.5), 1.3,
            math.pi / 2 - 1e-9]
    states = [(c, 0.5, t) for c in (0, 1) for t in aims]
    seen = step_many_against_run_orbit(rows, states)
    assert seen == {OK, GRAZING, CORNER, NO_INTERSECTION}


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
             lambda: st.distance(p, inside), lambda: st.distance(inside, p),
             lambda: st.offset(inside, p), lambda: st.offset(p, inside),
             lambda: st.embed(PhasePoint(component, 0.3, 0.1), 0.0, 0.0),
             lambda: st.step_many(p, rows, True, inside),
             lambda: st.step_many(inside, rows, True, p)]
    for call in calls:
        with pytest.raises(ValueError, match=rf"^component {component} outside \[0, 4\)$"):
            call()


def winding_inside(tb, xy) -> bool:
    """The one-point angle-sum winding test that contains_point batches."""
    total = 0.0
    for loop_pts in tb._polyline(WINDING_SAMPLES):
        poly = loop_pts - np.asarray(xy, dtype=float)
        ang = np.arctan2(poly[:, 1], poly[:, 0])
        dang = np.diff(np.concatenate([ang, ang[:1]]))
        dang = (dang + math.pi) % (2 * math.pi) - math.pi
        total += dang.sum() / (2 * math.pi)
    return abs(total - 1.0) < 0.5


def test_contains_point():
    # N points in, N booleans out, each the one-point winding test's answer
    st = make_stadium()
    pts = [(0.0, 0.0), (1.9, 0.0), (2.1, 0.0), (0.0, 1.1)]
    got = st.contains_point(np.array(pts))
    assert got.dtype == bool and got.tolist() == [True, True, False, False]
    sn = make_sinai()
    # the second point is inside the scatterer
    assert sn.contains_point(np.array([(0.9, 0.9), (0.1, 0.0)])).tolist() == [
        True, False]
    assert st.contains_point(np.empty((0, 2))).shape == (0,)
    # more points than one chunk holds: every answer is the one-point test's
    rng = np.random.default_rng(4)
    many = rng.uniform(-2.5, 2.5, (3 * _WINDING_CHUNK // (4 * WINDING_SAMPLES)
                                   + 7, 2))
    want = [winding_inside(st, xy) for xy in many]
    assert st.contains_point(many).tolist() == want
    assert st.contains_point(many[5:6]).tolist() == want[5:6]


def test_contains_point_samples_the_boundary_once(monkeypatch):
    # each loop is sampled by one comp_frames_many call, on the first call
    # only; later calls reuse the cached arrays
    import pesin_coder.tables as tables

    sn = make_sinai()
    calls = []
    frames = tables.comp_frames_many
    monkeypatch.setattr(tables, "comp_frames_many",
                        lambda *args: calls.append(args) or frames(*args))
    assert sn.contains_point(np.array([(0.9, 0.9)])).tolist() == [True]
    assert len(calls) == len(sn.loops) == 2
    assert [len(args[1]) for args in calls] == [4 * WINDING_SAMPLES,
                                                 WINDING_SAMPLES]
    cached = sn._polyline(WINDING_SAMPLES)
    assert sn.contains_point(np.array([(0.1, 0.0), (0.9, 0.9)])).tolist() == [
        False, True]
    assert len(calls) == 2
    assert all(a is b for a, b in zip(sn._polyline(WINDING_SAMPLES), cached))


@pytest.mark.parametrize("mk", ALL_BUILDERS)
@pytest.mark.parametrize("samples", [BOUNDARY_SAMPLES, WINDING_SAMPLES])
def test_polyline_is_the_point_xy_samples(mk, samples):
    # one comp_frames_many call per loop gives comp_frame's point bits
    tb = mk()
    for loop, got in zip(tb.loops, tb._polyline(samples), strict=True):
        want = np.array([point_xy(tb, ci, s) for ci in loop
                         for s in np.linspace(0.0, tb.lengths[ci], samples,
                                              endpoint=False)])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_a_row_only_the_array_form_refuses_is_typed(monkeypatch):
    # run_step_many marks row 2 grazing although the scalar form maps it:
    # step_many raises FormsDisagree with the row and its start point
    import pesin_coder.tables as tables

    st = make_stadium()
    x = PhasePoint(1, 2.481042998575038, -0.525515148130097)
    y = st.step(x, True)
    d = np.array([[0.0, 0.0], [1e-6, 0.0], [0.0, 1e-6], [1e-6, 1e-6]])
    assert st.step_many(x, d, True, y)[1] is None
    real = tables.run_step_many

    def forged(*args):
        comps, r, th, status = real(*args)
        status = status.copy()
        status[2] = GRAZING
        return comps, r, th, status

    monkeypatch.setattr(tables, "run_step_many", forged)
    with pytest.raises(FormsDisagree,
                       match=r"^row 2 of step_many fails in the array form "
                             r"only, from PhasePoint\(component=1") as ei:
        st.step_many(x, d, True, y)
    assert ei.value.row == 2
    assert ei.value.point == st.embed(x, 0.0, 1e-6)


@pytest.mark.parametrize("mk", ALL_BUILDERS)
def test_distance_is_the_array_form(mk):
    # distance reads comp_frame's point on Python floats, with the bits of the
    # difference of the two boundary points taken as numpy arrays
    tb = mk()
    pts = tb.liouville_sample(np.random.default_rng(3), 40)
    for p, q in zip(pts, pts[1:]):
        # metric_coords gives the coordinates that distance reads
        assert tb.metric_coords(p) == (*point_xy(tb, p.component, p.r),
                                       p.theta)
        dp = point_xy(tb, p.component, p.r) - point_xy(tb, q.component, q.r)
        want = tb.metric_scale * math.hypot(math.hypot(dp[0], dp[1]),
                                            p.theta - q.theta)
        assert tb.distance(p, q).hex() == want.hex()


def scalar_cloud(tb) -> dict:
    """singularity_cloud the scalar way: one _trace_singular_source call per
    source, and one one-point winding test per chord point."""
    sources = [(0, ci, branch * (s + 1e-12))
               for ci, L in enumerate(tb.lengths) if tb.rows[ci][0] == 1
               for s in np.linspace(0.0, L, _CLOUD_TANGENCIES,
                                    endpoint=False).tolist()
               for branch in (1.0, -1.0)]
    sources += [(1, k, psi) for k in range(len(tb.corner_points))
                for psi in np.linspace(0.0, 2 * math.pi, _CLOUD_FAN,
                                       endpoint=False).tolist()]
    rows, fams = [], []
    for fam in sources:
        got = tb._trace_singular_source(*fam)
        if got is None:
            continue
        hx, hy, th, src, t, w = got
        if all(winding_inside(tb, (src[0] + t * k / 5.0 * w[0],
                                   src[1] + t * k / 5.0 * w[1]))
               for k in range(1, 5)):
            rows.append((hx, hy, th))
            fams.append(fam)
    return {"px": np.array([r[0] for r in rows]),
            "py": np.array([r[1] for r in rows]),
            "theta": np.array([r[2] for r in rows]), "fam": fams}


def seeded_specs(seed: int, n: int) -> list:
    """n seeded (kind, params) billiard specs inside make_table's ranges
    (a flower's arc_radius exceeds sqrt(2) half_side)."""
    rng = np.random.default_rng(seed)
    specs = []
    for kind in rng.choice(["circle", "stadium", "sinai", "flower"], n).tolist():
        a, b = rng.uniform(0.2, 3.0, 2).tolist()
        ratio = float(rng.uniform(0.05, 0.95))
        specs.append((kind, {"circle": {"radius": a},
                             "stadium": {"radius": a,
                                         "straight_half_length": b},
                             "sinai": {"half_side": a,
                                       "scatterer_radius": ratio * a},
                             "flower": {"half_side": a,
                                        "arc_radius": math.sqrt(2.0) * a
                                        / ratio}}[kind]))
    return specs


CLOUD_SPECS = [("stadium", {}), ("sinai", {}), ("flower", {}), ("circle", {}),
               ("stadium", {"radius": 1e-15, "straight_half_length": 1.0}),
               ("sinai", {"scatterer_radius": 0.6364995317549043})
               ] + seeded_specs(29, 6)


@pytest.mark.parametrize("kind, params", CLOUD_SPECS + seeded_specs(30, 40))
def test_builder_tables_pass_the_orientation_check(kind, params):
    # every loop of a builder table runs with the interior on its left
    assert make_table(kind, params).kind == kind


@pytest.mark.parametrize("kind, params", CLOUD_SPECS)
def test_singularity_cloud_is_the_scalar_build(kind, params):
    # the array build keeps every bit and every row of the scalar one
    want = scalar_cloud(make_table(kind, params))
    got = make_table(kind, params).singularity_cloud()
    for key in ("px", "py", "theta"):
        assert got[key].dtype == want[key].dtype
        assert got[key].tobytes() == want[key].tobytes(), key
    assert got["fam"] == want["fam"]


# sinai corner-fan rays that run along a wall: each traces to a point, and
# the angle-sum winding test drops it, as the scalar build does (an even-odd
# crossing-number test keeps all three, and the cloud has 146 rows, not 144)
SINAI_WALL_RAYS = [(1, 0, math.pi), (1, 3, 0.0), (1, 3, math.pi / 2)]


def test_sinai_wall_rays_stay_out_of_the_cloud():
    sn = make_sinai()
    cloud = sn.singularity_cloud()
    assert len(cloud["fam"]) == 144
    for fam in SINAI_WALL_RAYS:
        hx, hy, th, src, t, w = sn._trace_singular_source(*fam)
        chord = np.array([(src[0] + t * k / 5.0 * w[0],
                           src[1] + t * k / 5.0 * w[1]) for k in range(1, 5)])
        got = sn.contains_point(chord).tolist()
        assert got == [winding_inside(sn, xy) for xy in chord]
        assert not all(got)
        assert fam not in cloud["fam"]


def test_wrap_r_walks_loop():
    # embed wraps the arclength r = p.r + dr round the loop
    st = make_stadium()
    # stepping past the end of the bottom segment lands on the right cap
    q = st.embed(PhasePoint(0, 0.0, 0.1), 2.0 + 0.25, 0.0)
    assert q.component == 1 and abs(q.r - 0.25) < 1e-12
    # negative arclength walks backwards onto the left cap
    q = st.embed(PhasePoint(0, 0.0, 0.1), -0.25, 0.0)
    assert q.component == 3 and abs(q.r - (math.pi - 0.25)) < 1e-12
    # single-component loops just wrap mod length
    cir = make_circle()
    q = cir.embed(PhasePoint(0, 2 * math.pi, 0.1), 0.5, 0.0)
    assert q.component == 0 and abs(q.r - 0.5) < 1e-12


@pytest.mark.parametrize("mk", [make_circle, make_stadium])
@pytest.mark.parametrize("r", [-math.inf, math.inf, math.nan, 1e18, -1e18])
def test_wrap_r_refuses_r_the_walk_cannot_finish(mk, r):
    # at -inf or 1e18 the stadium walk would not end, and NaN is no arclength
    with pytest.raises(ValueError,
                       match=f"^arclength {re.escape(str(r))} on component 0 "):
        mk().embed(PhasePoint(0, r, 0.1), 0.0, 0.0)


@pytest.mark.parametrize("mk", [make_circle, make_stadium])
@pytest.mark.parametrize("r", [100.0, -1000.0, 1e18, math.inf, math.nan])
def test_step_many_refuses_the_start_points_embed_refuses(mk, r):
    # step_many mapped the rows from r = 100 and -1000, which embed refuses,
    # and from 1e18 or inf its walk did not end
    tb = mk()
    x = PhasePoint(0, r, 0.1)
    d = np.array([[0.0, 0.0], [1e-3, 0.0], [-1e-3, 1e-3]])
    with pytest.raises(ValueError) as want:
        tb.embed(x, *d[0].tolist())
    assert str(want.value).startswith(f"arclength {r} on component 0 ")
    for forward in (True, False):
        with pytest.raises(ValueError) as got:
            tb.step_many(x, d, forward, PhasePoint(0, 0.5, 0.1))
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("mk", [make_circle, make_stadium])
@pytest.mark.parametrize("loops, dr, dtheta", [
    (0, 0.0, 1.5), (0, 0.0, -1.7), (1, 0.0, 0.0), (-1, 0.0, 1e-3),
    (0, math.nan, 0.0), (0, 1e-3, math.nan), (0, math.inf, 0.0)],
    ids=["angle", "-angle", "loop", "-loop", "nan-dr", "nan-dtheta", "inf"])
def test_step_many_reports_embeds_refusal(mk, loops, dr, dtheta):
    # row 5 is the first that embed refuses (dr is counted from `loops`
    # loop lengths): step_many returns it with embed's class and message,
    # after five mapped rows and before two rows refused another way
    tb = mk()
    x = PhasePoint(0, 0.3, 0.1)
    total = float(tb._loop_length[0])
    d = np.array([(v, -v) for v in np.linspace(-1e-3, 1e-3, 5)]
                 + [(loops * total + dr, dtheta), (0.0, 2.0), (-total, 0.0)])
    with pytest.raises(DomainEscape) as want:
        tb.embed(x, *d[5].tolist())
    for forward in (True, False):
        off, (k, e) = tb.step_many(x, d, forward, PhasePoint(0, 0.35, 0.1))
        assert (k, type(e), str(e)) == (5, DomainEscape, str(want.value))
        assert np.isfinite(off[:5]).all() and np.isnan(off[5:]).all()


@pytest.mark.parametrize("mk", [make_circle, make_stadium, make_sinai,
                                make_flower])
def test_wrap_r_takes_every_r_embed_makes(mk):
    # embed passes p.r + dr with p.r in [0, L] and |dr| below the loop
    # length: the extremes of that range at every component
    tb = mk()
    for c, L in enumerate(tb.lengths):
        total = float(tb._loop_length[c])
        for r0 in (0.0, math.nextafter(L, 0.0), L):
            for dr in (math.nextafter(total, 0.0),
                       -math.nextafter(total, 0.0), 0.0):
                q = tb.embed(PhasePoint(c, r0, 0.1), dr, 0.0)
                assert 0.0 <= q.r <= tb.lengths[q.component]


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
    # the walk passes one component at a time: at dr = 1e300 the stadium
    # walk never ended, since r - L rounds back to r
    tb = mk()
    p = PhasePoint(0, 0.5, 0.1)
    total = float(tb._loop_length[0])
    for dr in (1e300, -1e300, total, -total):
        with pytest.raises(DomainEscape, match="leaves"):
            tb.embed(p, dr, 0.0)
    # just inside the loop length the walk still wraps, in at most two passes
    for dr in (math.nextafter(total, 0.0), -math.nextafter(total, 0.0)):
        q = tb.embed(p, dr, 0.0)
        assert 0.0 <= q.r < tb.lengths[q.component]


def test_offset_on_its_own_component_is_the_difference():
    # the junction fold runs on every row of _offset_many and is discarded
    # on x's own component, where r = inf makes it NaN without a warning
    st = make_stadium()
    got = st.offset(PhasePoint(0, 0.5, 0.1), PhasePoint(0, math.inf, 0.3))
    assert got[0] == math.inf and got[1] == 0.3 - 0.1


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


def test_liouville_sample_measure():
    st = make_stadium()
    rng = np.random.default_rng(7)
    # the first 4000 samples with |theta| < 1.2, each candidate taking its
    # three draws whether it is kept or not
    pts = []
    while len(pts) < 4000:
        p, = st.liouville_sample(rng, 1)
        if abs(p.theta) < 1.2:
            pts.append(p)
    ths = np.array([p.theta for p in pts])
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
    assert fx.metric_coords(p) == (0.1, 0.2) and fx.metric_scale == 1.0
    with pytest.raises(ValueError):
        make_linear_fixture(lambda_u=0.5)


def test_fixture_sampling_in_domain():
    fx = make_linear_fixture()
    rng = np.random.default_rng(3)
    for p in fx.liouville_sample(rng, 200):
        assert max(abs(p.r), abs(p.theta)) <= fx.half_width


# (r, theta, n_minus, n_plus) of a start and the signed step where its walk
# leaves the square: the forward half is walked first, so it raises first
# when both halves leave
_E = math.e
FIXTURE_ESCAPES = [
    ((0.0, 0.3 / _E ** 3 * 1.01, 0, 10), 3),
    ((0.3 / _E ** 4 * 1.01, 0.0, 10, 0), -4),
    ((0.3 / _E ** 2 * 1.01, 0.3 / _E ** 5 * 1.01, 10, 10), 5),
    ((0.3 / _E ** 6 * 1.01, 0.3 / _E ** 2 * 1.01, 10, 10), 2),
    ((0.3, 0.0, 3, 3), -1),
    ((-0.0, -0.3, 3, 3), 1),
]


@pytest.mark.parametrize("start, step", FIXTURE_ESCAPES)
def test_fixture_walk_raises_at_its_signed_step(start, step):
    r, theta, n_minus, n_plus = start
    with pytest.raises(OrbitHitsDiscontinuity) as ei:
        make_linear_fixture().orbit(PhasePoint(0, r, theta), n_minus, n_plus)
    assert ei.value.n == step
    assert str(ei.value) == (f"orbit hits discontinuity at step {step}: "
                             f"point outside fixture domain")


def test_orbit_refuses_a_closing_step_onto_a_corner():
    # one step, then the step that df at the last point needs lands on the
    # corner (3, 1), as in RUN_ORBIT_PINS' rectangle-corner case
    with pytest.raises(OrbitHitsDiscontinuity) as ei:
        rectangle_3x1().orbit(PhasePoint(0, 1.0, math.pi / 4), 0, 1)
    assert ei.value.n == 1 and ei.value.reason.startswith(
        "derivative probe: traced ray lands on a junction from ")


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


@pytest.mark.parametrize("arc_radius", [1.0636, 1.2, math.sqrt(2.0),
                                        math.nan])
def test_flower_with_crossing_arcs_refused(arc_radius):
    # for arc_radius <= sqrt(2) half_side neighbouring arcs cross at (d, d)
    # inside the square, d = sqrt(arc_radius**2 - 1); 1.0636 even ran
    # clockwise, and 1.2 built
    with pytest.raises(ValueError, match=r"exceed sqrt\(2\) \* half_side"):
        make_flower(arc_radius, 1.0)


@pytest.mark.parametrize("build, args, names", [
    (make_circle, (np.float32(1.3),), ["radius"]),
    (make_stadium, (np.float32(0.7), np.float32(1.3)),
     ["radius", "straight_half_length"]),
    (make_sinai, (np.float32(1.3), np.float32(0.4)),
     ["half_side", "scatterer_radius"]),
    (make_flower, (np.float32(2.3), np.float32(1.1)),
     ["arc_radius", "half_side"]),
    (make_stadium, (3, 2), ["radius", "straight_half_length"]),
], ids=["circle-float32", "stadium-float32", "sinai-float32", "flower-float32",
        "stadium-int"])
def test_builders_take_their_parameters_as_floats(build, args, names):
    # a float32 once kept the boundary arithmetic in float32 and failed as
    # "loop not closed"
    tb = build(*args)
    assert tb.params == {n: float(v) for n, v in zip(names, args)}
    assert all(type(v) is float for v in tb.params.values())


@pytest.mark.parametrize("build, kwargs, message", [
    (make_circle, {"radius": 10 ** 400}, "radius must be finite"),
    (make_stadium, {"radius": 10 ** 400}, "radius must be finite"),
    (make_stadium, {"straight_half_length": 10 ** 400},
     "straight_half_length must be finite"),
    (make_sinai, {"half_side": 10 ** 400}, "half_side must be finite"),
    (make_flower, {"arc_radius": 10 ** 400}, "arc_radius must be finite"),
    (make_circle, {"radius": "2"}, "radius must be a real number"),
    (make_circle, {"radius": True}, "radius must be a real number"),
    (make_sinai, {"scatterer_radius": None},
     "scatterer_radius must be a real number"),
    (make_flower, {"half_side": 1j}, "half_side must be a real number"),
], ids=["circle-radius-huge", "stadium-radius-huge", "stadium-straight-huge",
        "sinai-half-side-huge", "flower-arc-radius-huge", "circle-radius-str",
        "circle-radius-bool", "sinai-scatterer-none", "flower-half-side-complex"])
def test_builders_refuse_parameters_that_are_not_floats(build, kwargs, message):
    # an int beyond the float range once escaped as a raw OverflowError;
    # float() would take "2" and True, which once built or raised TypeError
    with pytest.raises(ValueError, match=f"^{message}"):
        build(**kwargs)
