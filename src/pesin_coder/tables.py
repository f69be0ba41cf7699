"""Billiard table geometry, phase points, metric, and the two maps.

Conventions (fixed once; the BilliardTable constructor checks the first on
the signed areas of the boundary loops):
  * every boundary loop is traversed with the table's interior on the LEFT;
  * the unit tangent is t = dP/dr, the inward normal n = rot90(t) = (-ty, tx);
  * signed curvature kappa is defined by dt/dr = kappa * n, so focusing pieces
    (circle table, stadium caps) have kappa = +1/R and dispersing pieces
    (scatterers, inward-bulging arcs) have kappa = -1/R;
  * a phase point (component, r, theta) flies along cos(theta)*n + sin(theta)*t.

The metric on phase space is the flat product metric: d(x,y) =
metric_scale * hypot(|P(x)-P(y)|_2, theta_x - theta_y).  The metric scale
is derived so that diam(M) = 0.95: chart exponentials are plain translations
and parallel transport is the identity.  `metric_coords(p)` gives the
coordinates that `distance` reads: (x, y, theta) on a billiard table,
(r, theta) on the fixture, whose metric scale is 1.

A billiard table and the exactly solvable linear fixture are both maps f
with a discontinuity set D, and both answer the same seven methods; no other
module asks which of the two it holds:
  step(p, forward)           f(p) or f^-1(p);
  derivative(p, forward)     df at p, or d(f^-1) at p;
  orbit(x, n_minus, n_plus)  f^n(x) for n in [-n_minus, n_plus] as columns
                             (components, r, theta), df at each point, and
                             f of the last point;
  dist_to_D(p)               metric distance from p to D;
  embed(p, dr, dtheta)       the point at coordinate offset (dr, dtheta) from p;
  offset(x, p)               the signed coordinate offset from x to p;
  step_many(x, d, forward, y)  offset(y, f^{+-1}(embed(x, d_k))) for N rows
                             d_k, and the first row that fails.

A billiard table's step has a scalar form (`accel.run_orbit`, one point)
and an array form (`accel.run_step_many`, N rows at once, for step_many),
one geometry pinned bitwise by a test on every row of full grids; see
`accel` for why cos, sin and atan2 stay scalar `math` calls in both.  embed
and offset are one row of step_many's `_embed_many` (refusal and loop walk)
and `_offset_many`, so the rerun of a failed row embeds and refuses as the
rows did, and only the step can disagree (`FormsDisagree`).

The discontinuity set D of a billiard map consists of the grazing fibers
(|theta| = pi/2), the corner fibers (junction arclengths, all theta), and the
one-step forward/backward preimages of tangencies and corners (first
generation only; deeper generations surface dynamically as errors).  The
distance to the preimage curves is estimated from a precomputed point cloud on
them plus local 1-D minimizations over the curve parameters.  The cloud is
built in array form: every source ray in one `accel.trace_rays` pass, and
every chord point that must lie inside the table in one `contains_point`
winding test.  The minimizations trace one source at a time in the scalar
form (`_trace_singular_source`); a test pins the two forms bitwise on every
cloud row.  The traced points at the top of each minimization depend on the
cloud row alone, so the table caches them per row and the estimate keeps its
bits.  The estimate is a min over distances to points ON D, hence an upper
bound on d(x, D) that converges as the cloud refines.  It is not 1-Lipschitz
in x: the refinement runs only near the nearest cloud row, so the estimate
jumps where that row changes (see `BilliardTable.dist_to_D`).
"""
from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .accel import (CORNER, CORNER_TOL, GRAZING, GRAZING_COS_TOL, MIN_FLIGHT,
                    OK, _cos_sin, _math_map, arc_row, comp_curvature,
                    comp_frame, comp_frames_many, run_orbit, run_step_many,
                    segment_row, trace_ray, trace_rays)
from .errors import (
    CornerHit,
    DomainEscape,
    FormsDisagree,
    GrazingCollision,
    MapUndefined,
    NoIntersection,
    OrbitHitsDiscontinuity,
    OutOfDomain,
)

__all__ = [
    "GRAZING_COS_TOL",
    "MIN_FLIGHT",
    "CORNER_TOL",
    "FD_STEP",
    "BOUNDARY_SAMPLES",
    "WINDING_SAMPLES",
    "PhasePoint",
    "Segment",
    "Arc",
    "BilliardTable",
    "LinearFixtureMap",
    "derivative_along_orbit",
    "fd_derivative",
    "make_circle",
    "make_stadium",
    "make_sinai",
    "make_flower",
    "make_linear_fixture",
    "make_table",
]

CLOSURE_TOL = 1e-12
FD_STEP = 1e-6  # coordinate step of the central finite differences
BOUNDARY_SAMPLES = 64  # boundary points per component for the table diameter
WINDING_SAMPLES = 100  # boundary points per component for contains_point
# (point, polyline vertex) pairs per chunk of contains_point: 256 kB for
# each of its float temporaries
_WINDING_CHUNK = 1 << 15
# the singularity cloud's density, one spacing of which each dist_to_D search
# spans on either side of its row's parameter
_CLOUD_TANGENCIES = 48  # tangency sources per arc
_CLOUD_FAN = 64  # fan directions per corner
# the chord points of each cloud row that contains_point tests, at
# k / (_CHORD_CHECKS + 1) of the flight for k = 1 .. _CHORD_CHECKS
_CHORD_CHECKS = 4
# evaluations at the top of each golden-section search of dist_to_D whose
# traced point is cached per cloud row: at most 2**(depth - 1) entries a
# row.  Over the 2459 dist_to_D calls of a seed-0 stadium-code benchmark
# run (20 s), the share of evaluations read from the cache and the entries
# stored were, by depth: 2: 9.6%, 248; 4: 18.6%, 968; 6: 26.8%, 2208;
# 8: 33.3%, 4678; 12: 39.5%, 14 286; all 20: 41.2%, 40 987, which raised
# the run's peak RSS by 6.7 MB (44.0 to 50.7 MB)
_SEARCH_CACHE_DEPTH = 8
_NO_POINT = (math.inf, math.inf, math.inf)  # a search point with no trace
_OUTSIDE_FIXTURE = "point outside fixture domain"


@dataclass(frozen=True)
class PhasePoint:
    """A collision state: boundary component, arclength r, reflection angle theta.

    For the linear fixture the same container holds (component=0, r=x, theta=y)
    of the planar point; downstream code only sees a 2-coordinate state plus a
    component id either way.
    """

    component: int
    r: float
    theta: float


@dataclass(frozen=True)
class Segment:
    p0: tuple[float, float]
    p1: tuple[float, float]
    start_corner: bool = True
    end_corner: bool = True

    @property
    def length(self) -> float:
        return math.hypot(self.p1[0] - self.p0[0], self.p1[1] - self.p0[1])

    def packed(self) -> tuple:
        """The kernels' packed row (see `accel`)."""
        L = self.length
        ux = (self.p1[0] - self.p0[0]) / L
        uy = (self.p1[1] - self.p0[1]) / L
        return segment_row(self.p0[0], self.p0[1], ux, uy, L,
                           self.start_corner, self.end_corner)


def _axis_cos_sin(axis: float) -> tuple[float, float]:
    """cos/sin of the axis angle, exact for multiples of pi/2.

    Quarter-turn rotations have exact float matrices; snapping them lets orbits
    that strike an arc on its axis (angle 0 in arc coordinates) reproduce
    bitwise, e.g. the straight cap-to-cap bounce of the stadium.
    """
    k = round(axis / (0.5 * math.pi))
    if abs(axis - k * 0.5 * math.pi) < 1e-12:
        return (
            float([1.0, 0.0, -1.0, 0.0][k % 4]),
            float([0.0, 1.0, 0.0, -1.0][k % 4]),
        )
    return math.cos(axis), math.sin(axis)


@dataclass(frozen=True)
class Arc:
    center: tuple[float, float]
    radius: float
    a0: float  # start angle, measured relative to `axis`
    length: float
    orient: int  # +1 ccw (focusing side), -1 cw (dispersing side)
    start_corner: bool = True
    end_corner: bool = True
    axis: float = 0.0  # arc coordinates are rotated by this angle

    def packed(self) -> tuple:
        """The kernels' packed row (see `accel`)."""
        axc, axs = _axis_cos_sin(self.axis)
        return arc_row(self.center[0], self.center[1], self.radius, self.a0,
                       self.orient, self.length, axc, axs, self.start_corner,
                       self.end_corner)


def _packed(c: int, comp) -> tuple:
    """comp.packed(), refused unless comp has a positive length (and
    radius), an arc's orient is +1 or -1, and its packed row, derived
    constants included, is finite; c names it in the error."""
    if isinstance(comp, Arc) and comp.orient not in (1, -1):
        raise ValueError(f"component {c} needs orient +1 or -1, got {comp}")
    size = comp.length if isinstance(comp, Segment) \
        else min(comp.radius, comp.length)
    if size > 0.0:  # false for NaN too; packed() divides by the length
        row = comp.packed()
        if all(map(math.isfinite, row)):
            return row
    raise ValueError(f"component {c} needs a positive length and radius "
                     f"and finite coordinates, got {comp}")


# ------------------------------------------------------------ map helpers
def _kernel_error(status: int, p: PhasePoint) -> Exception:
    """The geometry error for a failed orbit-kernel status, started at p."""
    if status == GRAZING:
        return GrazingCollision(f"tangential collision from {p}")
    if status == CORNER:
        return CornerHit(f"traced ray lands on a junction from {p}")
    return NoIntersection(f"ray from {p} misses the boundary")


def _first_true(mask: np.ndarray, n: int) -> int:
    """The index of the first True among mask[:n], else n."""
    hits = np.flatnonzero(mask[:n])
    return int(hits[0]) if hits.size else n


def derivative_along_orbit(table, comps, ths, taus) -> np.ndarray:
    """Vectorized df at each of the n = len(taus) stored collisions, from
    sequences (lists or arrays) of the n + 1 components and angles.

    Mirror-equation form: d(r', theta')/d(r, theta) of each bounce.
    """
    kaps = table._curvatures[np.asarray(comps)]
    ths = np.asarray(ths, dtype=float)
    taus = np.asarray(taus, dtype=float)
    c_in = np.cos(ths[:-1])
    c_out = np.cos(ths[1:])
    k0 = kaps[:-1]
    k1 = kaps[1:]
    out = np.empty((len(taus), 2, 2))
    out[:, 0, 0] = (k0 * taus - c_in) / c_out
    out[:, 0, 1] = -taus / c_out
    out[:, 1, 0] = (k0 * c_out + k1 * c_in - k0 * k1 * taus) / c_out
    out[:, 1, 1] = (k1 * taus - c_out) / c_out
    return out


def fd_derivative(table, p: PhasePoint) -> np.ndarray:
    """Central finite differences of the map in (r, theta), step FD_STEP."""
    def image(dr, dth):
        try:
            return table.step(table.embed(p, dr, dth), True)
        except DomainEscape as e:  # the probe angle passes grazing
            raise GrazingCollision(str(e)) from e

    cols = []
    for dr, dth in ((FD_STEP, 0.0), (0.0, FD_STEP)):
        a, b = image(dr, dth), image(-dr, -dth)
        try:
            d = table.offset(b, a)
        except OutOfDomain as e:
            raise NoIntersection(
                "finite-difference images land on different loops") from e
        cols.append(d / (2 * FD_STEP))
    return np.array(cols).T


class BilliardTable:
    """A billiard table: packed components, loops, corners, metric.

    Every boundary fact is read from the packed rows `rows` that the
    kernels use, one tuple per component (layout in `accel`); the
    `Segment`/`Arc` objects are not kept.
    """

    def __init__(self, components, loops, kind: str, params: dict):
        self.loops = [list(lp) for lp in loops]
        self.kind = kind
        self.params = dict(params)
        # tuples of plain Python numbers, with the derived constants: the
        # ray kernel unpacks a whole row at each component
        self.rows = tuple(_packed(c, comp) for c, comp in enumerate(components))
        # the packed rows as columns (15 x n), for the array form
        self._columns = np.array(self.rows).T
        self._validate_loops()
        # arclengths (row entry 3) as Python floats for the scalar paths, and
        # as an array for step_many
        self.lengths = tuple(row[3] for row in self.rows)
        self._length_array = np.array(self.lengths)
        # signed curvature per component, for derivative_along_orbit
        self._curvatures = np.array([self.curvature(c)
                                     for c in range(len(self.rows))])
        self._validate_closure()
        # per component: its loop's number, its position in that loop, the
        # loop arclength before it and the loop's total length, for the walk
        # (_wrap_many) and the junction offset (_offset_many)
        self._loop_index = np.full(len(self.rows), -1)
        self._loop_position = np.zeros(len(self.rows), dtype=int)
        self._prefix = np.zeros(len(self.rows))
        self._loop_length = np.zeros(len(self.rows))
        for k, loop in enumerate(self.loops):
            lengths = [self.lengths[c] for c in loop]
            for ix, c in enumerate(loop):
                self._loop_index[c] = k
                self._loop_position[c] = ix
                self._prefix[c] = sum(lengths[:ix])
                self._loop_length[c] = sum(lengths)
        self.corner_points = self._collect_corners()
        self._polylines = {}  # lazy, filled by _polyline()
        self.boundary_diameter = self._boundary_diameter()
        if not math.isfinite(self.boundary_diameter):
            raise ValueError(f"boundary diameter {self.boundary_diameter} "
                             f"is not finite")
        # diam(M) = 0.95 < 1
        self.metric_scale = 0.95 / math.hypot(self.boundary_diameter, math.pi)
        self._validate_orientation()
        self._singular_cloud = None  # lazy, filled by singularity_cloud()
        self._search_tops = []  # per cloud row, filled with the cloud

    # ------------------------------------------------------------ validation
    def _validate_loops(self):
        n = len(self.rows)
        for k, loop in enumerate(self.loops):
            if not loop:
                raise ValueError(f"loop {k} is empty")
            for c in loop:
                if not (isinstance(c, numbers.Integral) and 0 <= c < n):
                    raise ValueError(f"loop {k} names {c!r}, not a component "
                                     f"index in [0, {n})")
        named = [c for loop in self.loops for c in loop]
        for c in range(n):
            if named.count(c) != 1:
                raise ValueError(f"component {c} is named {named.count(c)} "
                                 f"times by the loops, not once")

    def _end_point(self, c: int) -> tuple[float, float]:
        return comp_frame(self.rows[c], self.lengths[c])[:2]

    def _validate_closure(self):
        for loop in self.loops:
            for ci, cj in zip(loop, loop[1:] + loop[:1]):
                ex, ey = self._end_point(ci)
                sx, sy = comp_frame(self.rows[cj], 0.0)[:2]
                gap = math.hypot(ex - sx, ey - sy)
                if gap > CLOSURE_TOL:
                    raise ValueError(
                        f"loop not closed: component {ci} end to {cj} start gap {gap:.3e}")

    def _collect_corners(self):
        # a junction is a corner when the end flag (row entry 14) of the
        # component before it or the start flag (entry 13) of the one after
        # it is set
        return tuple(self._end_point(ci) for loop in self.loops
                     for ci, cj in zip(loop, loop[1:] + loop[:1])
                     if self.rows[ci][14] or self.rows[cj][13])

    def _boundary_diameter(self) -> float:
        """The largest distance between two sampled boundary points.  When
        every coordinate is below 2**-500, the squares of their differences
        could underflow, so the points are scaled by an exact power of two
        first and the distance scaled back.

        The squared distances are two flat (N, N) passes, dx*dx + dy*dy,
        with the bits of the pairwise np.sum((p_i - p_j)**2, axis=-1): each
        pair has the same two differences and squares, and numpy reduces a
        length-2 axis as a0 + a1 (its first term plus the second, both
        >= 0, so no -0.0 or order question arises)."""
        pts = np.concatenate(self._polyline(BOUNDARY_SAMPLES))
        top = float(np.abs(pts).max())
        shift = -math.frexp(top)[1] if 0.0 < top < 2.0 ** -500 else 0
        if shift:
            pts = np.ldexp(pts, shift)
        x, y = pts.T
        with np.errstate(over="ignore"):  # an overflow gives inf, refused
            d2 = x[:, None] - x
            dy = y[:, None] - y
            d2 *= d2
            dy *= dy
            d2 += dy
        return math.ldexp(math.sqrt(d2.max()), -shift)

    def _validate_orientation(self):
        """Refuse a loop without the interior on its left: of the shoelace
        areas of the BOUNDARY_SAMPLES polylines only the outer loop's (the
        largest |area|) is positive, and so is their total.  The points are
        offsets from one vertex over the largest, so no product overflows."""
        loops = self._polyline(BOUNDARY_SAMPLES)
        rel = [np.vstack([pts, pts[:1]]) - loops[0][0] for pts in loops]
        scale = max(float(np.abs(d).max()) for d in rel) or 1.0
        areas = [float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1])) / 2.0
                 for x, y in (d.T / scale for d in rel)]
        outer = int(np.argmax(np.abs(areas)))
        for k, area in enumerate(areas):
            if (area > 0.0) != (k == outer):
                raise ValueError(
                    f"loop {k} runs {'counter' * (area > 0.0)}clockwise, but "
                    f"{'the outer loop' if k == outer else 'a hole'} must not")
        if not sum(areas) > 0.0:
            raise ValueError(f"loop {outer} encloses less area than its holes")

    # ------------------------------------------------------------ geometry
    def curvature(self, component: int) -> float:
        return comp_curvature(self.rows[component])

    def contains_point(self, xy) -> np.ndarray:
        """Winding-number test of the N points xy (N x 2) against the
        boundary polyline sampled at WINDING_SAMPLES points per component,
        as N booleans.

        Per point and loop: the angles of the polyline vertices seen from
        the point (`np.arctan2`), their successive differences wrapped into
        [-pi, pi), summed and divided by 2 pi; a point is inside when the
        loops' total is within 0.5 of 1.  Each row of the (points x
        vertices) arrays holds the one-point arithmetic, so a point's
        answer does not depend on the others.  The points go through in
        chunks of at most `_WINDING_CHUNK` (point, vertex) pairs, so the
        temporaries stay a few hundred kB whatever N is: the benchmark
        bounds peak RSS at 10% over its parent, about 4 MB.
        """
        xy = np.asarray(xy, dtype=float)
        loops = self._polyline(WINDING_SAMPLES)
        chunk = max(1, _WINDING_CHUNK // max(len(lp) for lp in loops))
        out = np.empty(len(xy), dtype=bool)
        for k in range(0, len(xy), chunk):
            px = xy[k:k + chunk, :1]
            py = xy[k:k + chunk, 1:]
            total = np.zeros(len(px))
            for loop_pts in loops:
                ang = np.arctan2(loop_pts[:, 1] - py, loop_pts[:, 0] - px)
                dang = np.diff(np.concatenate([ang, ang[:, :1]], axis=1),
                               axis=1)
                dang = (dang + math.pi) % (2 * math.pi) - math.pi
                total += dang.sum(axis=1) / (2 * math.pi)
            out[k:k + chunk] = abs(total - 1.0) < 0.5
        return out

    def _polyline(self, samples_per_component: int) -> list[np.ndarray]:
        """Boundary samples of each loop (M x 2), built once per sample
        count: the points of `comp_frame`, from one `comp_frames_many` call
        per loop."""
        if samples_per_component not in self._polylines:
            polys = []
            for loop in self.loops:
                s = np.concatenate([
                    np.linspace(0.0, self.lengths[ci], samples_per_component,
                                endpoint=False) for ci in loop])
                at = np.repeat(loop, samples_per_component)
                px, py, _, _ = comp_frames_many(self._columns[:, at], s,
                                                True)
                polys.append(np.stack([px, py], axis=1))
            self._polylines[samples_per_component] = polys
        return self._polylines[samples_per_component]

    # ------------------------------------------------------------ phase metric
    def _check_component(self, component: int):
        """Refuse a component index outside [0, n): a negative one would
        read another row of the packed tuples."""
        if not 0 <= component < len(self.rows):
            raise ValueError(f"component {component} outside "
                             f"[0, {len(self.rows)})")

    def validate_point(self, p: PhasePoint):
        self._check_component(p.component)
        L = self.lengths[p.component]
        if not (0.0 <= p.r < L + 1e-12):
            raise ValueError(f"r={p.r} outside [0,{L}) on component {p.component}")
        # bounds written as "not within" also refuse NaN
        if not abs(p.theta) <= math.pi / 2 + 1e-12:
            raise ValueError(f"|theta|={abs(p.theta)} exceeds pi/2")

    def metric_coords(self, p: PhasePoint) -> tuple[float, float, float]:
        """(x, y, theta) of p: `distance` is metric_scale times the
        Euclidean distance of these."""
        self._check_component(p.component)
        return (*comp_frame(self.rows[p.component], p.r)[:2], p.theta)

    def distance(self, p: PhasePoint, q: PhasePoint) -> float:
        px, py, pt = self.metric_coords(p)
        qx, qy, qt = self.metric_coords(q)
        return self.metric_scale * math.hypot(math.hypot(px - qx, py - qy),
                                              pt - qt)

    def diameter(self) -> float:
        return self.metric_scale * math.hypot(self.boundary_diameter, math.pi)

    # ------------------------------------------------------------ sampling
    def liouville_sample(self, rng: np.random.Generator, n: int) -> list[PhasePoint]:
        """n samples of cos(theta) dr dtheta, three draws a candidate; one
        on the grazing fibers |theta| = pi/2 is dropped."""
        weights = self._length_array / self._length_array.sum()
        out = []
        while len(out) < n:
            c = int(rng.choice(len(self.rows), p=weights))
            r = float(rng.uniform(0.0, self.lengths[c]))
            th = float(math.asin(rng.uniform(-1.0, 1.0)))
            if abs(th) < math.pi / 2:
                out.append(PhasePoint(c, r, th))
        return out

    # ------------------------------------------------------------ the map
    def step(self, p: PhasePoint, forward: bool) -> PhasePoint:
        """f(p), or f^-1(p) via time reversal (r, theta) -> (r, -theta)."""
        return self._step(p, forward)[0]

    def _step(self, p: PhasePoint, forward: bool) -> tuple[PhasePoint, float]:
        """step(p, forward) and the flight to it, for the mirror equation."""
        self._check_component(p.component)
        sign = 1 if forward else -1
        comps, rs, ths, taus, status, _ = run_orbit(
            self.rows, p.component, p.r, sign * p.theta, 1)
        if status != OK:
            raise _kernel_error(status, PhasePoint(p.component, p.r, sign * p.theta))
        return PhasePoint(comps[1], rs[1], sign * ths[1]), taus[0]

    def derivative(self, p: PhasePoint, forward: bool) -> np.ndarray:
        """df at p in (r, theta) coordinates, or d(f^-1) at p = (df at f^-1 p)^-1.

        The mirror-equation formula (Chernov-Markarian 2006), whose signs
        rest on every loop having the interior on its left, as the
        constructor checks; the step's MapUndefined passes through.  A test
        pins it against `fd_derivative` on every builder table.
        """
        if not forward:
            M = self.derivative(self.step(p, False), True)
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det
        q, tau = self._step(p, True)
        return derivative_along_orbit(
            self, (p.component, q.component),
            np.array([p.theta, q.theta]), np.array([tau]))[0]

    def orbit(self, x: PhasePoint, n_minus: int, n_plus: int):
        """f^n(x) for n in [-n_minus, n_plus]: ((comps, rs, thetas), derivs,
        after), the orbit as three lists of Python numbers.

        derivs[i] is df at point i; for the last point it needs the
        collision after it, `after` = f(last point), which is not part of the
        orbit.  A start point outside phase space raises ValueError; a kernel
        failure raises OrbitHitsDiscontinuity at its step.
        """
        self.validate_point(x)
        comps, rs, ths, flights = self._kernel_orbit(x, n_plus, +1)
        comps_b, rs_b, ths_b, taus_b = self._kernel_orbit(x, n_minus, -1)
        # the backward half reversed, without its copy of x
        comps = comps_b[:0:-1] + comps
        rs = rs_b[:0:-1] + rs
        ths = ths_b[:0:-1] + ths
        flights = taus_b[::-1] + flights
        try:
            after, tau = self._step(PhasePoint(comps[-1], rs[-1], ths[-1]), True)
        except MapUndefined as e:
            raise OrbitHitsDiscontinuity(n_plus, f"derivative probe: {e}") from e
        derivs = derivative_along_orbit(self, comps + [after.component],
                                        ths + [after.theta], flights + [tau])
        return (comps, rs, ths), derivs, after

    def _kernel_orbit(self, p: PhasePoint, n: int, sign: int):
        """Kernel orbit of n steps as lists; sign=-1 runs the time-reversed
        map, whose angles come back negated."""
        comps, rs, ths, taus, status, k = run_orbit(
            self.rows, p.component, p.r, sign * p.theta, n)
        if status != OK:
            err = _kernel_error(status, p)
            raise OrbitHitsDiscontinuity(k if sign > 0 else -k - 1, str(err)) from err
        if sign < 0:
            ths = [-th for th in ths]
        return comps, rs, ths, taus

    def embed(self, p: PhasePoint, dr: float, dtheta: float) -> PhasePoint:
        """The phase point at (dr, dtheta) from p, one row of `_embed_many`."""
        self._check_component(p.component)
        comps, r, theta, refused = self._embed_many(
            p, np.array([[dr, dtheta]], dtype=float))
        if refused:
            raise refused[1]
        return PhasePoint(int(comps[0]), float(r[0]), float(theta[0]))

    def _embed_many(self, x: PhasePoint, d: np.ndarray):
        """embed(x, *d_k) for the rows of d (N x 2) before the first that
        embed refuses, as arrays (comps, r, theta), and that row's (k,
        DomainEscape), or None: the one refusal of embed and step_many."""
        theta = x.theta + d[:, 1]
        total = float(self._loop_length[x.component])
        # "within" refuses NaN too; the walk passes one component at a
        # time, so the offset must be shorter than the loop
        angle_ok = np.abs(theta) < math.pi / 2
        n = _first_true(~(angle_ok & (np.abs(d[:, 0]) < total)), len(d))
        comps, r = self._wrap_many(x.component, x.r + d[:n, 0])
        if n == len(d):
            return comps, r, theta, None
        return comps, r, theta[:n], (n, DomainEscape(
            f"embedded arclength offset {float(d[n, 0])} leaves "
            f"(-{total}, {total}), the loop length" if angle_ok[n] else
            f"embedded angle {float(theta[n])} leaves (-pi/2, pi/2)"))

    def offset(self, x: PhasePoint, p: PhasePoint) -> np.ndarray:
        """Signed (arclength, angle) offset from x to p along x's loop: one
        row of `_offset_many`, which raises OutOfDomain off that loop."""
        self._check_component(x.component)
        self._check_component(p.component)
        dr, on_loop = self._offset_many(x, np.array([p.component]),
                                        np.array([p.r]))
        if not on_loop[0]:
            raise OutOfDomain("points on different boundary loops")
        return np.array([dr[0], p.theta - x.theta])

    def step_many(self, x: PhasePoint, d: np.ndarray, forward: bool,
                  y: PhasePoint):
        """Offsets from y of f^{+-1}(x + d_k) for the N rows of d (N x 2).

        Returns (offsets, fail), where fail is (k, exception) for the first
        row whose embed, step or offset raises, or None; rows k and later are
        NaN.  The rows run through `_embed_many`, `accel.run_step_many` and
        `_offset_many`; a start point that the walk refuses raises its
        ValueError, as in `embed`.  Row k alone is rerun through embed, step
        and offset to raise its exception, so its class and message are the
        scalar ones.  The rerun's embed shares the rows' refusal, and only
        the step has a second form there: a row that the rerun maps raises
        FormsDisagree with the row and its start point, and the bitwise pin
        of `run_step_many` to `run_orbit` is broken.
        """
        self._check_component(x.component)
        self._check_component(y.component)
        out = np.full((len(d), 2), np.nan)
        sign = 1 if forward else -1
        comps, r, theta, _ = self._embed_many(x, d)
        comps, r, th, status = run_step_many(self.rows, comps, r, sign * theta)
        n = _first_true(status != OK, len(theta))
        dr, on_loop = self._offset_many(y, comps[:n], r[:n])
        n = _first_true(~on_loop, n)
        out[:n, 0] = dr[:n]
        out[:n, 1] = sign * th[:n] - y.theta
        if n == len(d):
            return out, None
        try:
            p = self.embed(x, *d[n].tolist())
            self.offset(y, self.step(p, forward))
        except (DomainEscape, MapUndefined, OutOfDomain) as e:
            return out, (n, e)
        raise FormsDisagree(n, p)

    def _wrap_many(self, component: int, r: np.ndarray):
        """The points at arclengths r_k from the start of `component`, as
        (components, r): r_k walks the loop one component a pass into
        [0, L) (modulo L on a loop of one component), updating r in place.
        It ends within two rounds when each r_k is within two loop lengths
        of 0, as every r that `embed` admits from phase space is; at 1e18
        it would take ~1e17 passes, or never end once r - L rounds to r.
        So the first r_k that is not within (NaN and inf too) raises
        ValueError naming the component and r_k."""
        loop = self.loops[self._loop_index[component]]
        total = self._loop_length[component]
        far = ~(np.abs(r) <= 2.0 * total)
        if far.any():
            raise ValueError(f"arclength {r[far][0]} on component {component} "
                             f"is not within two loop lengths ({2.0 * total}) "
                             f"of 0")
        if len(loop) == 1:
            return np.full(len(r), component), r % self._length_array[component]
        order = np.array(loop)
        idx = np.full(len(r), self._loop_position[component])
        back = r < 0.0
        while back.any():
            idx[back] = (idx[back] - 1) % len(loop)
            r[back] += self._length_array[order[idx[back]]]
            back = r < 0.0
        comps = order[idx]
        ahead = r >= self._length_array[comps]
        while ahead.any():
            r[ahead] -= self._length_array[comps[ahead]]
            idx[ahead] = (idx[ahead] + 1) % len(loop)
            comps = order[idx]
            ahead = r >= self._length_array[comps]
        return comps, r

    def _offset_many(self, x: PhasePoint, comps: np.ndarray, r: np.ndarray):
        """The arclength part of the offset from x to the points (comps, r),
        the short way round x's loop (folded into (-L/2, L/2] on a loop of
        one component, so small offsets keep their precision), and where
        each point is on that loop (`offset` raises OutOfDomain elsewhere)."""
        dr = r - x.r
        same = comps == x.component
        if len(self.loops[self._loop_index[x.component]]) == 1:
            L = self._length_array[x.component]
            return np.where(dr > L / 2.0, dr - L,
                            np.where(dr <= -L / 2.0, dr + L, dr)), same
        total = self._loop_length[x.component]
        sx = self._prefix[x.component] + x.r
        sp = self._prefix[comps] + r
        with np.errstate(invalid="ignore"):  # r = inf on x's own component
            across = (sp - sx + total / 2.0) % total - total / 2.0
        on_loop = self._loop_index[comps] == self._loop_index[x.component]
        return np.where(same, dr, across), on_loop

    # ------------------------------------------------- singularity distances
    def _trace_singular_source(self, kind: int, a: int, u: float):
        """Point of S+ generated by tangency (kind 0, component a, arclength
        |u|, branch sign(u)) or by a corner ray (kind 1, corner a, direction
        angle u), as plain floats: (x, y, theta, src, t, w), where (x, y) is
        the hit, theta the angle there whose FORWARD ray runs along -w, src
        the source, t the flight and w the direction.  None when the ray
        hits nothing or that forward ray leaves the hit near-tangentially."""
        if kind == 0:
            branch = 1.0 if u >= 0 else -1.0
            sx, sy, tx, ty = comp_frame(self.rows[a], abs(u))
            src = (sx, sy)
            w = (branch * tx, branch * ty)
        else:
            src = self.corner_points[a]
            w = (math.cos(u), math.sin(u))
        ci, s, t = trace_ray(self.rows, src[0], src[1], w[0], w[1])
        if ci < 0 or t > 1e200:
            return None
        hx, hy, tx, ty = comp_frame(self.rows[ci], s)
        cos0 = -(w[0] * -ty + w[1] * tx)  # against the inward normal
        sin0 = -(w[0] * tx + w[1] * ty)
        if cos0 <= 1e-6:
            return None
        return hx, hy, math.atan2(sin0, cos0), src, t, w

    def _search_point(self, kind: int, a: int, u: float) -> tuple:
        """(x, y, theta) of `_trace_singular_source`, or three infs where it
        gives no point, so that the search's hypot is inf there."""
        got = self._trace_singular_source(kind, a, u)
        return _NO_POINT if got is None else got[:3]

    def _trace_singular_sources(self, sources: list) -> tuple:
        """`_trace_singular_source` over the list `sources` in array form.

        Returns (at, hx, hy, theta, sx, sy, t, wx, wy): at indexes the
        sources whose point the scalar form returns, in order, and the
        arrays hold, on those rows, that point, the source, the flight and
        the direction.  Every ray goes through one `trace_rays` call, the
        frames come from `comp_frames_many`, and cos, sin and atan2 are
        scalar `math` calls, so each row has the scalar form's bits (see
        `accel`; a test pins the two forms bitwise).
        """
        kind, a, u = np.array(sources, dtype=float).reshape(-1, 3).T
        a = a.astype(int)
        sx, sy, wx, wy = (np.empty(len(u)) for _ in range(4))
        cols = self._columns
        tan = kind == 0
        if tan.any():
            ut = u[tan]
            branch = np.where(ut >= 0, 1.0, -1.0)
            sx[tan], sy[tan], tx, ty = comp_frames_many(cols[:, a[tan]],
                                                        np.abs(ut), True)
            wx[tan] = branch * tx
            wy[tan] = branch * ty
        fan = ~tan
        if fan.any():
            corners = np.array(self.corner_points)
            sx[fan] = corners[a[fan], 0]
            sy[fan] = corners[a[fan], 1]
            wx[fan], wy[fan] = _cos_sin(u[fan])
        # parallel rays divide by zero and missed circles take the root of
        # a negative number; trace_rays masks those rows, as in run_step_many
        with np.errstate(divide="ignore", invalid="ignore"):
            ci, s, t = trace_rays(self.rows, sx, sy, wx, wy)
        at = (~((ci < 0) | (t > 1e200))).nonzero()[0]
        hx, hy, tx, ty = comp_frames_many(cols[:, ci[at]], s[at], True)
        cos0 = -(wx[at] * -ty + wy[at] * tx)  # against the inward normal
        sin0 = -(wx[at] * tx + wy[at] * ty)
        # written as "not below" so that a NaN row is kept, as in the
        # scalar form
        fine = ~(cos0 <= 1e-6)
        at = at[fine]
        return (at, hx[fine], hy[fine],
                _math_map(math.atan2, sin0[fine], cos0[fine]),
                sx[at], sy[at], t[at], wx[at], wy[at])

    def singularity_cloud(self) -> dict:
        """Sampled points on the one-step singularity preimage curves S+ and S-.

        Returns arrays px, py, theta (S+ rows), plus the generating family of
        each row (kind, index, parameter) for local 1-D refinement.  S- is
        obtained by time reversal (same positions, negated theta), so it is
        not stored.  Built once per table.

        A source (a tangency on an arc, or a corner fan direction) gives a
        row when `_trace_singular_source` returns its point and the
        `_CHORD_CHECKS` points along its chord all lie inside the table.
        The cloud is built in array form: every ray in one
        `_trace_singular_sources` pass, every chord point in one
        `contains_point` call.  `_trace_singular_source` stays the scalar
        form that the golden-section searches of `dist_to_D` evaluate; a
        test pins the two forms bitwise on every cloud row.
        """
        if self._singular_cloud is not None:
            return self._singular_cloud
        # tangent rays of straight pieces lie inside the wall: arcs only
        sources = [(0, ci, branch * (s + 1e-12))
                   for ci, L in enumerate(self.lengths) if self.rows[ci][0] == 1
                   for s in np.linspace(0.0, L, _CLOUD_TANGENCIES,
                                        endpoint=False).tolist()
                   for branch in (1.0, -1.0)]
        sources += [(1, k, psi) for k in range(len(self.corner_points))
                    for psi in np.linspace(0.0, 2 * math.pi, _CLOUD_FAN,
                                           endpoint=False).tolist()]
        at, hx, hy, theta, sx, sy, t, wx, wy = \
            self._trace_singular_sources(sources)
        # the _CHORD_CHECKS chord points of each traced row, row by row
        k = np.arange(1, _CHORD_CHECKS + 1, dtype=float)
        lam = t[:, None] * k / (_CHORD_CHECKS + 1.0)
        chords = np.stack([sx[:, None] + lam * wx[:, None],
                           sy[:, None] + lam * wy[:, None]], axis=-1)
        inside = self.contains_point(chords.reshape(-1, 2)).reshape(
            -1, _CHORD_CHECKS).all(axis=1)
        cloud = {
            "px": hx[inside],
            "py": hy[inside],
            "theta": theta[inside],
            "fam": [sources[i] for i in at[inside].tolist()],
        }
        self._search_tops = [{} for _ in cloud["fam"]]
        self._singular_cloud = cloud
        return cloud

    def _refine_preimage_distance(self, idx, P, th, d0) -> float:
        """Golden-section over the generating curve parameter near cloud row
        idx.  The first `_SEARCH_CACHE_DEPTH` evaluations read their traced
        point from the row's cache in `_search_tops`, filling it on a miss.
        The cache is keyed by u, which dict lookup compares with ==; that
        equates only 0.0 with -0.0, and no search evaluates -0.0."""
        kind, a, u0 = self._singular_cloud["fam"][idx]
        span = (self.lengths[a] / _CLOUD_TANGENCIES if kind == 0
                else 2 * math.pi / _CLOUD_FAN)
        top = self._search_tops[idx]
        px, py = P
        evals = 0

        def g(u):
            nonlocal evals
            if evals < _SEARCH_CACHE_DEPTH:
                q = top.get(u)
                if q is None:
                    q = top[u] = self._search_point(kind, a, u)
            else:
                q = self._search_point(kind, a, u)
            evals += 1
            return math.hypot(math.hypot(q[0] - px, q[1] - py), q[2] - th)

        lo, hi = u0 - span, u0 + span
        phi_r = (math.sqrt(5.0) - 1.0) / 2.0
        x1 = hi - phi_r * (hi - lo)
        x2 = lo + phi_r * (hi - lo)
        f1, f2 = g(x1), g(x2)
        for _ in range(18):
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - phi_r * (hi - lo)
                f1 = g(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + phi_r * (hi - lo)
                f2 = g(x2)
        return min(d0, f1, f2)

    def dist_to_D(self, p: PhasePoint) -> float:
        """Estimated metric distance from p to D (0 on D).

        The nearest S+ row and the nearest S- row of the cloud each start a
        golden-section search over their row's generating parameter u when
        they lie within twice the distance to the fibers.  A search starts
        from the same interval around the row's u whatever p is, so its
        first evaluations fall on a binary tree of u values fixed per row,
        and the point traced at u depends on (row, u) alone.  The table keeps
        the traced (x, y, theta) of the first `_SEARCH_CACHE_DEPTH`
        evaluations per row, filled lazily and at most 128 entries a row; a
        cached point is the one the trace would return, so every value keeps
        its bits, in any query order.

        An upper bound: the golden-section search refines only near the
        nearest cloud row, so it misses a branch of S+ or S- with no row
        nearby; on 400 stadium Liouville samples it ran up to 3.5 times the
        nearest row of a 40 times denser cloud (ROADMAP item 11).  For the
        same reason it is not 1-Lipschitz, though d(p, D) is: it jumps where
        the nearest row changes.  Two flower points on component 2 at
        distance 3.1e-4 get 2.34e-2 and 1.62e-2, a ratio of 23 (item 11)."""
        self._check_component(p.component)
        scale = self.metric_scale
        best_unscaled = math.pi / 2 - abs(p.theta)  # grazing fibers
        P = comp_frame(self.rows[p.component], p.r)[:2]
        for C in self.corner_points:  # corner fibers (all theta)
            best_unscaled = min(best_unscaled, math.hypot(P[0] - C[0], P[1] - C[1]))
        cloud = self.singularity_cloud()
        if cloud["px"].size:
            # the positional term is the same for S+ and S-
            pos = np.hypot(cloud["px"] - P[0], cloud["py"] - P[1])
            for th_sign in (1.0, -1.0):  # S+ rows, then S- via time reversal
                d2 = np.hypot(pos, th_sign * cloud["theta"] - p.theta)
                i = int(np.argmin(d2))
                d_best = float(d2[i])
                if d_best < best_unscaled * 2.0:
                    d_best = self._refine_preimage_distance(i, P, th_sign * p.theta,
                                                            d_best)
                best_unscaled = min(best_unscaled, d_best)
        return scale * max(0.0, best_unscaled)


class LinearFixtureMap:
    """Exactly solvable hyperbolic fixture: (x, y) -> (lambda_s x, lambda_u y).

    The artificial discontinuity set D is the DOMAIN BOUNDARY (the square of
    given half-width) — nothing dynamical is added to it.  The metric scale
    is 1, so distances are unscaled and rho(center) equals the half-width
    exactly; diam(M) = 2 sqrt(2) half_width < 1 for half_width < 1/(2 sqrt(2)).
    """

    kind = "linear-fixture"
    metric_scale = 1.0

    def __init__(self, lambda_u: float, lambda_s: float, half_width: float):
        # bounds written as "within" also refuse NaN
        if not math.inf > lambda_u > 1.0 > lambda_s > 0.0:
            raise ValueError("need finite lambda_u > 1 > lambda_s > 0")
        # the diameter() product, so that every accepted fixture has diam < 1
        if not 0.0 < 2.0 * math.sqrt(2.0) * half_width < 1.0:
            raise ValueError(f"half_width must be positive and finite with "
                             f"diam(M) = 2 sqrt(2) half_width below 1, "
                             f"got {half_width}")
        self.lambda_u = float(lambda_u)
        self.lambda_s = float(lambda_s)
        self.half_width = float(half_width)
        self.params = {"lambda_u": self.lambda_u, "lambda_s": self.lambda_s,
                       "half_width": self.half_width}

    def metric_coords(self, p: PhasePoint) -> tuple[float, float]:
        """(r, theta) of p: `distance` is the Euclidean distance of these."""
        return p.r, p.theta

    def distance(self, p: PhasePoint, q: PhasePoint) -> float:
        return math.hypot(p.r - q.r, p.theta - q.theta)

    def diameter(self) -> float:
        return 2.0 * math.sqrt(2.0) * self.half_width

    def validate_point(self, p: PhasePoint):
        if p.component != 0:
            raise ValueError(f"component {p.component} outside the fixture's "
                             f"single component 0")
        if not (abs(p.r) <= self.half_width and abs(p.theta) <= self.half_width):
            raise ValueError(_OUTSIDE_FIXTURE)

    def liouville_sample(self, rng: np.random.Generator, n: int) -> list[PhasePoint]:
        """n points of the square, uniform in area: the fixture's invariant
        reference measure."""
        xs = rng.uniform(-self.half_width, self.half_width, size=(n, 2))
        return [PhasePoint(0, float(a), float(b)) for a, b in xs]

    # ------------------------------------------------------------ the map
    def step(self, p: PhasePoint, forward: bool) -> PhasePoint:
        """The linear map or its inverse."""
        if forward:
            return PhasePoint(0, self.lambda_s * p.r, self.lambda_u * p.theta)
        return PhasePoint(0, p.r / self.lambda_s, p.theta / self.lambda_u)

    def derivative(self, p: PhasePoint, forward: bool) -> np.ndarray:
        if forward:
            return np.array([[self.lambda_s, 0.0], [0.0, self.lambda_u]])
        return np.array([[1.0 / self.lambda_s, 0.0], [0.0, 1.0 / self.lambda_u]])

    def orbit(self, x: PhasePoint, n_minus: int, n_plus: int):
        """Same contract as BilliardTable.orbit; a point leaving the domain
        raises OrbitHitsDiscontinuity at its signed step, the forward half
        first."""
        self.validate_point(x)
        rs, ths = self._walk(x, n_plus, True)
        rs_b, ths_b = self._walk(x, n_minus, False)
        rs = rs_b[:0:-1] + rs
        ths = ths_b[:0:-1] + ths
        derivs = np.broadcast_to(self.derivative(x, True), (len(rs), 2, 2)).copy()
        return (([0] * len(rs), rs, ths), derivs,
                self.step(PhasePoint(0, rs[-1], ths[-1]), True))

    def _walk(self, x: PhasePoint, n: int, forward: bool):
        """n steps of step(., forward) from x on floats, as (rs, thetas),
        with validate_point's domain test at each."""
        r, th = x.r, x.theta
        rs, ths = [r], [th]
        ls, lu, hw = self.lambda_s, self.lambda_u, self.half_width
        for k in range(1, n + 1):
            r, th = (ls * r, lu * th) if forward else (r / ls, th / lu)
            if not (abs(r) <= hw and abs(th) <= hw):
                raise OrbitHitsDiscontinuity(k if forward else -k,
                                             _OUTSIDE_FIXTURE)
            rs.append(r)
            ths.append(th)
        return rs, ths

    def dist_to_D(self, p: PhasePoint) -> float:
        return max(0.0, self.half_width - max(abs(p.r), abs(p.theta)))

    def embed(self, p: PhasePoint, dr: float, dtheta: float) -> PhasePoint:
        """Plain translation: the linear map is defined on the whole plane."""
        return PhasePoint(p.component, p.r + dr, p.theta + dtheta)

    def offset(self, x: PhasePoint, p: PhasePoint) -> np.ndarray:
        if p.component != x.component:
            raise OutOfDomain("fixture points live on one component")
        return np.array([p.r - x.r, p.theta - x.theta])

    def step_many(self, x: PhasePoint, d: np.ndarray, forward: bool,
                  y: PhasePoint):
        """BilliardTable.step_many in closed form: the same elementwise
        operations as embed -> step -> offset, so bitwise the scalar rows."""
        if y.component != 0:  # step writes component 0, offset refuses it
            return (np.full((len(d), 2), np.nan),
                    (0, OutOfDomain("fixture points live on one component")))
        r = x.r + d[:, 0]
        theta = x.theta + d[:, 1]
        if forward:
            r, theta = self.lambda_s * r, self.lambda_u * theta
        else:
            r, theta = r / self.lambda_s, theta / self.lambda_u
        return np.stack([r - y.r, theta - y.theta], axis=1), None


# ---------------------------------------------------------------- builders
def _float(name: str, value) -> float:
    """float(value), so that no float32 reaches the geometry."""
    if not _real_number(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an int too large "
                         f"for a float") from None


def make_circle(radius: float = 1.0) -> BilliardTable:
    R = _float("radius", radius)
    if not 0.0 < R < math.inf:
        raise ValueError(f"radius must be positive and finite, got {R}")
    arc = Arc(center=(0.0, 0.0), radius=R, a0=-math.pi,
              length=2 * math.pi * R, orient=+1,
              start_corner=False, end_corner=False)
    return BilliardTable([arc], [[0]], "circle", {"radius": R})


def make_stadium(radius: float = 1.0,
                 straight_half_length: float = 1.0) -> BilliardTable:
    R = _float("radius", radius)
    l = _float("straight_half_length", straight_half_length)
    if not (0.0 < R < math.inf and 0.0 < l < math.inf):
        raise ValueError("radius and straight_half_length must be positive and finite")
    comps = [
        Segment((-l, -R), (l, -R)),
        Arc(center=(l, 0.0), radius=R, a0=-math.pi / 2, length=math.pi * R,
            orient=+1),
        Segment((l, R), (-l, R)),
        # axis pi puts the leftmost point at arc angle 0, so the horizontal
        # cap-to-cap orbit evaluates trig exactly and is bitwise 2-periodic
        Arc(center=(-l, 0.0), radius=R, a0=-math.pi / 2, length=math.pi * R,
            orient=+1, axis=math.pi),
    ]
    return BilliardTable(comps, [[0, 1, 2, 3]], "stadium",
                         {"radius": R, "straight_half_length": l})


def make_sinai(half_side: float = 1.0,
               scatterer_radius: float = 0.5) -> BilliardTable:
    a = _float("half_side", half_side)
    rd = _float("scatterer_radius", scatterer_radius)
    if not 0.0 < rd < a < math.inf:
        raise ValueError("need finite 0 < scatterer_radius < half_side")
    comps = [
        Segment((-a, -a), (a, -a)),
        Segment((a, -a), (a, a)),
        Segment((a, a), (-a, a)),
        Segment((-a, a), (-a, -a)),
        Arc(center=(0.0, 0.0), radius=rd, a0=math.pi, length=2 * math.pi * rd,
            orient=-1, start_corner=False, end_corner=False),
    ]
    return BilliardTable(comps, [[0, 1, 2, 3], [4]], "sinai",
                         {"half_side": a, "scatterer_radius": rd})


def make_flower(arc_radius: float = 2.0, half_side: float = 1.0) -> BilliardTable:
    """Dispersing table: four inward-bulging arcs through the square corners.

    Neighbouring arcs meet only at the corners when arc_radius exceeds
    sqrt(2) * half_side; closer arcs cross inside the square, and are refused.

    The default radius is a power of two so the arc-angle/arclength conversion
    round-trips exactly at the inward tips, keeping the two straight
    tip-to-tip bouncing orbits bitwise periodic.
    """
    R = _float("arc_radius", arc_radius)
    a = _float("half_side", half_side)
    if not 0.0 < a < math.inf:
        raise ValueError(f"half_side must be positive and finite, got {a}")
    if not math.sqrt(2.0) * a < R < math.inf:  # "within" refuses NaN too
        raise ValueError(f"arc_radius must be finite and exceed sqrt(2) * "
                         f"half_side = {math.sqrt(2.0) * a}, got {R}")
    d = math.sqrt(R * R - a * a)
    gamma = math.atan2(a, d)
    comps = []
    for k in range(4):
        rot = (k - 1) * math.pi / 2
        rc, rs = _axis_cos_sin(rot)
        # axis faces the table center: the arc's inward tip sits at arc
        # angle 0 where trig is exact, so the two diagonal bouncing orbits
        # (horizontal and vertical) reproduce bitwise
        comps.append(Arc(center=((a + d) * rc, (a + d) * rs), radius=R,
                         a0=gamma, length=2 * gamma * R, orient=-1,
                         axis=rot + math.pi))
    return BilliardTable(comps, [[0, 1, 2, 3]], "flower",
                         {"arc_radius": R, "half_side": a})


def make_linear_fixture(lambda_u: float = math.e, lambda_s: float = 1.0 / math.e,
                        half_width: float = 0.3) -> LinearFixtureMap:
    return LinearFixtureMap(lambda_u, lambda_s, half_width)


_BUILDERS = {
    "circle": make_circle,
    "stadium": make_stadium,
    "sinai": make_sinai,
    "flower": make_flower,
    "linear-fixture": make_linear_fixture,
}


def _real_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def make_table(kind: str, params: dict | None = None):
    """Build a table from a spec: the names and types are checked here, the
    values (positive, finite, ordered) by the builder."""
    if not isinstance(kind, str) or kind not in _BUILDERS:
        raise ValueError(f"unknown table kind {kind!r}: the kind must be a "
                         f"str from {sorted(_BUILDERS)}")
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ValueError(f"table params must be a dict, got {params!r}")
    names = set(inspect.signature(_BUILDERS[kind]).parameters)
    for name, value in params.items():
        if name not in names or not _real_number(value):
            raise ValueError(f"{kind} parameters must be numbers named in "
                             f"{sorted(names)}, got {name}={value!r}")
    return _BUILDERS[kind](**params)

