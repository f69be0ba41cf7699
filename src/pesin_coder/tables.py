"""Billiard table geometry, phase points, metric, and the two maps.

Conventions (fixed once, validated by the first-call derivative self-test of
BilliardTable.derivative):
  * every boundary loop is traversed with the table's interior on the LEFT;
  * the unit tangent is t = dP/dr, the inward normal n = rot90(t) = (-ty, tx);
  * signed curvature kappa is defined by dt/dr = kappa * n, so focusing pieces
    (circle table, stadium caps) have kappa = +1/R and dispersing pieces
    (scatterers, inward-bulging arcs) have kappa = -1/R;
  * a phase point (component, r, theta) flies along cos(theta)*n + sin(theta)*t.

The metric on phase space is the flat product metric: d(x,y) =
metric_scale * hypot(|P(x)-P(y)|_2, theta_x - theta_y).  The metric scale
is derived so that diam(M) = 0.95: chart exponentials are plain translations
and parallel transport is the identity.

A billiard table and the exactly solvable linear fixture are both maps f
with a discontinuity set D, and both answer the same seven methods; no other
module asks which of the two it holds:
  step(p, forward)           f(p) or f^-1(p);
  derivative(p, forward)     df at p, or d(f^-1) at p;
  orbit(x, n_minus, n_plus)  f^n(x) for n in [-n_minus, n_plus] with df at
                             each point, and f of the last point;
  dist_to_D(p)               metric distance from p to D;
  embed(p, dr, dtheta)       the point at coordinate offset (dr, dtheta) from p;
  offset(x, p)               the signed coordinate offset from x to p;
  step_many(x, d, forward, y)  offset(y, f^{+-1}(embed(x, d_k))) for N rows
                             d_k, and the first row that fails.

A billiard table's step, embed and offset have a scalar form (one point; the
sequential orbits run it) and an array form (N rows at once; step_many runs
it, with `accel.run_step_many` for the step).  They are one geometry: the
same IEEE operations in the same order, pinned bitwise to each other by a
test on every row of full grids.  See `accel` for why cos, sin and atan2
stay scalar `math` calls in both.

The discontinuity set D of a billiard map consists of the grazing fibers
(|theta| = pi/2), the corner fibers (junction arclengths, all theta), and the
one-step forward/backward preimages of tangencies and corners (first
generation only; deeper generations surface dynamically as errors).  The
distance to the preimage curves is estimated from a precomputed point cloud on
them plus local 1-D minimizations over the curve parameters.  The traced
points at the top of each minimization depend on the cloud row alone, so the
table caches them per row and the estimate keeps its bits.  The estimate is a
min over distances to points ON D, hence an upper bound on d(x, D) that
converges as the cloud refines.  It is not 1-Lipschitz in x: the refinement
runs only near the nearest cloud row, so the estimate jumps where that row
changes (see `BilliardTable.dist_to_D`).
"""
from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .accel import (CORNER, GRAZING, OK, comp_curvature, comp_frame, comp_point,
                    run_orbit, run_step_many, trace_ray)
from .errors import (
    CornerHit,
    DomainEscape,
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

GRAZING_COS_TOL = 1e-8  # |cos theta| below this counts as tangential
MIN_FLIGHT = 1e-9  # shortest admissible chord
CORNER_TOL = 1e-12  # arclength proximity to a flagged junction
CLOSURE_TOL = 1e-12
FD_STEP = 1e-6  # coordinate step of the central finite differences
BOUNDARY_SAMPLES = 64  # boundary points per component for the table diameter
WINDING_SAMPLES = 100  # boundary points per component for contains_point
# evaluations at the top of each golden-section search of dist_to_D whose
# traced point is cached per cloud row: at most 2**(depth - 1) entries a
# row.  Over the 2459 dist_to_D calls of a seed-0 stadium-code benchmark
# run (20 s), the share of evaluations read from the cache and the entries
# stored were, by depth: 2: 9.6%, 248; 4: 18.6%, 968; 6: 26.8%, 2208;
# 8: 33.3%, 4678; 12: 39.5%, 14 286; all 20: 41.2%, 40 987, which raised
# the run's peak RSS by 6.7 MB (44.0 to 50.7 MB)
_SEARCH_CACHE_DEPTH = 8
_NO_POINT = (math.inf, math.inf, math.inf)  # a search point with no trace


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

    def packed(self) -> tuple[int, list[float]]:
        L = self.length
        ux = (self.p1[0] - self.p0[0]) / L
        uy = (self.p1[1] - self.p0[1]) / L
        return 0, [self.p0[0], self.p0[1], ux, uy, L, 0.0, 0.0, 0.0,
                   1.0 if self.start_corner else 0.0, 1.0 if self.end_corner else 0.0]


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

    def packed(self) -> tuple[int, list[float]]:
        axc, axs = _axis_cos_sin(self.axis)
        return 1, [self.center[0], self.center[1], self.radius, self.a0,
                   float(self.orient), self.length, axc, axs,
                   1.0 if self.start_corner else 0.0, 1.0 if self.end_corner else 0.0]


def _packed(c: int, comp) -> tuple[int, list[float]]:
    """comp.packed(), refused unless comp has a positive length (and
    radius), an arc's orient is +1 or -1, and its packed row is finite; c
    names it in the error."""
    if isinstance(comp, Arc) and comp.orient not in (1, -1):
        raise ValueError(f"component {c} needs orient +1 or -1, got {comp}")
    size = comp.length if isinstance(comp, Segment) \
        else min(comp.radius, comp.length)
    if size > 0.0:  # false for NaN too; packed() divides by the length
        t, row = comp.packed()
        if all(map(math.isfinite, row)):
            return t, row
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
    """Vectorized df at each of the n = len(taus) stored collisions.

    Mirror-equation form: d(r', theta')/d(r, theta) of each bounce.
    """
    kaps = table._curvatures[np.asarray(comps)]
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

    Every boundary fact is read from the packed rows `ctype`/`cpar` that the
    kernels use; the `Segment`/`Arc` objects are not kept.
    """

    def __init__(self, components, loops, kind: str, params: dict):
        self.loops = [list(lp) for lp in loops]
        self.kind = kind
        self.params = dict(params)
        # plain Python numbers: the ray kernel reads them one at a time
        packed = [_packed(c, comp) for c, comp in enumerate(components)]
        self.ctype = tuple(int(t) for t, _ in packed)
        self.cpar = tuple(tuple(float(v) for v in row) for _, row in packed)
        self._validate_loops()
        # arclengths as Python floats for the scalar paths (row entry 4 of a
        # segment, 5 of an arc), and as an array for step_many
        self.lengths = tuple(row[4] if t == 0 else row[5]
                             for t, row in zip(self.ctype, self.cpar))
        self._length_array = np.array(self.lengths)
        # signed curvature per component, for derivative_along_orbit
        self._curvatures = np.array([self.curvature(c)
                                     for c in range(len(self.ctype))])
        self._validate_closure()
        # per component: its loop, its index there, the loop arclength
        # before it and the loop total, for wrap_r and offset
        self._loop_at = {}
        # the loop number and prefix arclength again as arrays, for step_many
        self._loop_index = np.full(len(self.ctype), -1)
        self._prefix = np.zeros(len(self.ctype))
        for k, loop in enumerate(self.loops):
            lengths = [self.lengths[c] for c in loop]
            for ix, c in enumerate(loop):
                self._loop_at[c] = (loop, ix, sum(lengths[:ix]), sum(lengths))
                self._loop_index[c] = k
                self._prefix[c] = self._loop_at[c][2]
        self.corner_points = self._collect_corners()
        self._polylines = {}  # lazy, filled by _polyline()
        self.boundary_diameter = self._boundary_diameter()
        if not math.isfinite(self.boundary_diameter):
            raise ValueError(f"boundary diameter {self.boundary_diameter} "
                             f"is not finite")
        # diam(M) = 0.95 < 1
        self.metric_scale = 0.95 / math.hypot(self.boundary_diameter, math.pi)
        self._singular_cloud = None  # lazy, filled by singularity_cloud()
        self._search_tops = []  # per cloud row, filled with the cloud
        self._deriv_checked = False  # set by the first derivative() call

    # ------------------------------------------------------------ validation
    def _validate_loops(self):
        n = len(self.ctype)
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
        return comp_point(self.ctype[c], self.cpar[c], self.lengths[c])

    def _validate_closure(self):
        for loop in self.loops:
            for ci, cj in zip(loop, loop[1:] + loop[:1]):
                ex, ey = self._end_point(ci)
                sx, sy = comp_point(self.ctype[cj], self.cpar[cj], 0.0)
                gap = math.hypot(ex - sx, ey - sy)
                if gap > CLOSURE_TOL:
                    raise ValueError(
                        f"loop not closed: component {ci} end to {cj} start gap {gap:.3e}")

    def _collect_corners(self):
        # a junction is a corner when the end flag (row entry 9) of the
        # component before it or the start flag (entry 8) of the one after it
        # is set
        return tuple(self._end_point(ci) for loop in self.loops
                     for ci, cj in zip(loop, loop[1:] + loop[:1])
                     if self.cpar[ci][9] or self.cpar[cj][8])

    def _boundary_diameter(self) -> float:
        pts = np.concatenate(self._polyline(BOUNDARY_SAMPLES))
        with np.errstate(over="ignore"):  # an overflow gives inf, refused
            d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        return math.sqrt(d2.max())

    # ------------------------------------------------------------ geometry
    def point_xy(self, component: int, s: float) -> np.ndarray:
        self._check_component(component)
        x, y = comp_point(self.ctype[component], self.cpar[component], s)
        return np.array([x, y])

    def curvature(self, component: int) -> float:
        return comp_curvature(self.ctype[component], self.cpar[component])

    def contains_point(self, xy) -> bool:
        """Winding-number test against the boundary polyline sampled at
        WINDING_SAMPLES points per component."""
        total = 0.0
        for loop_pts in self._polyline(WINDING_SAMPLES):
            poly = loop_pts - np.asarray(xy, dtype=float)
            ang = np.arctan2(poly[:, 1], poly[:, 0])
            dang = np.diff(np.concatenate([ang, ang[:1]]))
            dang = (dang + math.pi) % (2 * math.pi) - math.pi
            total += dang.sum() / (2 * math.pi)
        return abs(total - 1.0) < 0.5

    def _polyline(self, samples_per_component: int) -> list[np.ndarray]:
        """Boundary samples of each loop, built once per sample count."""
        if samples_per_component not in self._polylines:
            self._polylines[samples_per_component] = [
                np.array([self.point_xy(ci, s) for ci in loop
                          for s in np.linspace(0.0, self.lengths[ci],
                                               samples_per_component,
                                               endpoint=False)])
                for loop in self.loops]
        return self._polylines[samples_per_component]

    # ------------------------------------------------------------ phase metric
    def _check_component(self, component: int):
        """Refuse a component index outside [0, n): a negative one would
        read another row of the packed tuples."""
        if not 0 <= component < len(self.ctype):
            raise ValueError(f"component {component} outside "
                             f"[0, {len(self.ctype)})")

    def validate_point(self, p: PhasePoint):
        self._check_component(p.component)
        L = self.lengths[p.component]
        if not (0.0 <= p.r < L + 1e-12):
            raise ValueError(f"r={p.r} outside [0,{L}) on component {p.component}")
        # bounds written as "not within" also refuse NaN
        if not abs(p.theta) <= math.pi / 2 + 1e-12:
            raise ValueError(f"|theta|={abs(p.theta)} exceeds pi/2")

    def wrap_r(self, component: int, r: float) -> tuple[int, float]:
        """Arclength modulo component length (wraparound on closed loops)."""
        self._check_component(component)
        L = self.lengths[component]
        loop, idx, _, _ = self._loop_at[component]
        if len(loop) == 1:
            return component, r % L
        # walk to the neighbouring component when r leaves [0, L)
        while r < 0.0:
            idx = (idx - 1) % len(loop)
            component = loop[idx]
            r += self.lengths[component]
        while r >= self.lengths[component]:
            r -= self.lengths[component]
            idx = (idx + 1) % len(loop)
            component = loop[idx]
        return component, r

    def distance(self, p: PhasePoint, q: PhasePoint) -> float:
        dp = self.point_xy(p.component, p.r) - self.point_xy(q.component, q.r)
        return self.metric_scale * math.hypot(math.hypot(dp[0], dp[1]),
                                              p.theta - q.theta)

    def diameter(self) -> float:
        return self.metric_scale * math.hypot(self.boundary_diameter, math.pi)

    # ------------------------------------------------------------ sampling
    def liouville_sample(self, rng: np.random.Generator, n: int,
                         theta_cap: float = math.pi / 2) -> list[PhasePoint]:
        """Sample cos(theta) dr dtheta, rejecting |theta| >= theta_cap."""
        weights = self._length_array / self._length_array.sum()
        out = []
        while len(out) < n:
            c = int(rng.choice(len(self.ctype), p=weights))
            r = float(rng.uniform(0.0, self.lengths[c]))
            th = float(math.asin(rng.uniform(-1.0, 1.0)))
            if abs(th) < theta_cap:
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
            self.ctype, self.cpar, p.component, p.r, sign * p.theta, 1,
            GRAZING_COS_TOL, MIN_FLIGHT, CORNER_TOL)
        if status != OK:
            raise _kernel_error(status, PhasePoint(p.component, p.r, sign * p.theta))
        return PhasePoint(int(comps[1]), float(rs[1]), sign * float(ths[1])), float(taus[0])

    def derivative(self, p: PhasePoint, forward: bool) -> np.ndarray:
        """df at p in (r, theta) coordinates, or d(f^-1) at p = (df at f^-1 p)^-1.

        Analytic mirror-equation formula; the first call on each table
        cross-validates it against central finite differences (sign conventions
        differ across the literature, the oracle removes the ambiguity).
        """
        if not forward:
            M = self.derivative(self.step(p, False), True)
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det
        self._check_derivative()
        q, tau = self._step(p, True)
        return derivative_along_orbit(
            self, (p.component, q.component),
            np.array([p.theta, q.theta]), np.array([tau]))[0]

    def _check_derivative(self):
        if self._deriv_checked:
            return
        self._deriv_checked = True  # set first: the check calls derivative()
        rng = np.random.default_rng(0)
        checked = 0
        for p in self.liouville_sample(rng, 200, theta_cap=1.2):
            if checked >= 8:
                break
            try:
                if self.dist_to_D(p) < 0.05 * self.metric_scale:
                    continue
                ana = self.derivative(p, True)
                num = fd_derivative(self, p)
            except MapUndefined:
                continue
            rel = np.abs(ana - num).max() / max(np.abs(num).max(), 1.0)
            if rel > 1e-5:
                self._deriv_checked = False
                raise AssertionError(
                    f"analytic billiard derivative mismatch vs finite differences: rel {rel:.2e}")
            checked += 1
        if checked == 0:
            self._deriv_checked = False
            raise AssertionError("derivative self-test found no valid sample points")

    def orbit(self, x: PhasePoint, n_minus: int, n_plus: int):
        """f^n(x) for n in [-n_minus, n_plus]: (points, derivs, after).

        derivs[i] is df at points[i]; for the last point it needs the
        collision after it, `after` = f(points[-1]), which is not part of the
        orbit.  A start point outside phase space raises ValueError; a kernel
        failure raises OrbitHitsDiscontinuity at its step.
        """
        self.validate_point(x)
        comps_f, rs_f, ths_f, taus_f = self._kernel_orbit(x, n_plus, +1)
        comps_b, rs_b, ths_b, taus_b = self._kernel_orbit(x, n_minus, -1)
        comps = np.concatenate([comps_b[::-1][:-1], comps_f])
        rs = np.concatenate([rs_b[::-1][:-1], rs_f])
        ths = np.concatenate([ths_b[::-1][:-1], ths_f])
        flights = np.concatenate([taus_b[::-1], taus_f])
        pts = tuple(map(PhasePoint, comps.tolist(), rs.tolist(), ths.tolist()))
        try:
            after, tau = self._step(pts[-1], True)
        except MapUndefined as e:
            raise OrbitHitsDiscontinuity(n_plus, f"derivative probe: {e}") from e
        derivs = derivative_along_orbit(
            self, np.concatenate([comps, [after.component]]),
            np.concatenate([ths, [after.theta]]), np.concatenate([flights, [tau]]))
        return pts, derivs, after

    def _kernel_orbit(self, p: PhasePoint, n: int, sign: int):
        """Kernel orbit of n steps; sign=-1 runs the time-reversed map."""
        comps, rs, ths, taus, status, k = run_orbit(
            self.ctype, self.cpar, p.component, p.r, sign * p.theta, n,
            GRAZING_COS_TOL, MIN_FLIGHT, CORNER_TOL)
        if status != OK:
            err = _kernel_error(status, p)
            raise OrbitHitsDiscontinuity(k if sign > 0 else -k - 1, str(err)) from err
        return comps, rs, sign * ths, taus

    def embed(self, p: PhasePoint, dr: float, dtheta: float) -> PhasePoint:
        """The phase point at offset (dr, dtheta) from p, walking the loop."""
        self._check_component(p.component)
        theta = p.theta + dtheta
        # written as "not within" so that NaN is refused too
        if not abs(theta) < math.pi / 2:
            raise DomainEscape(f"embedded angle {theta} leaves (-pi/2, pi/2)")
        # wrap_r walks one component per pass, so the offset must be shorter
        # than the loop (this also refuses NaN and inf)
        total = self._loop_at[p.component][3]
        if not abs(dr) < total:
            raise DomainEscape(
                f"embedded arclength offset {dr} leaves (-{total}, {total}), "
                f"the loop length")
        return PhasePoint(*self.wrap_r(p.component, p.r + dr), theta)

    def offset(self, x: PhasePoint, p: PhasePoint) -> np.ndarray:
        """Signed (arclength, angle) offset from x to p along x's loop.

        The arclength part goes the short way round the loop.  On a loop of
        one component it is folded into (-L/2, L/2] by adding or subtracting
        L, so that small offsets keep their full precision.
        """
        self._check_component(x.component)
        self._check_component(p.component)
        loop, _, prefix_x, total = self._loop_at[x.component]
        if p.component == x.component:
            dr = p.r - x.r
            if len(loop) == 1:
                L = self.lengths[x.component]
                if dr > L / 2.0:
                    dr -= L
                elif dr <= -L / 2.0:
                    dr += L
        else:
            loop_p, _, prefix_p, _ = self._loop_at[p.component]
            if loop_p is not loop:
                raise OutOfDomain("points on different boundary loops")
            sx = prefix_x + x.r
            sp = prefix_p + p.r
            dr = (sp - sx + total / 2.0) % total - total / 2.0
        return np.array([dr, p.theta - x.theta])

    def step_many(self, x: PhasePoint, d: np.ndarray, forward: bool,
                  y: PhasePoint):
        """Offsets from y of f^{+-1}(x + d_k) for the N rows of d (N x 2).

        Returns (offsets, fail), where fail is (k, exception) for the first
        row whose embed, step or offset raises, or None; rows k and later are
        NaN.  The rows run through the array form of embed -> step -> offset
        (`accel.run_step_many` for the step), which a test pins bitwise to
        the scalar form on every row of full grids.  Row k alone is rerun in
        the scalar form to raise its exception, so its class and message are
        the scalar ones.
        """
        self._check_component(x.component)
        self._check_component(y.component)
        n = len(d)
        out = np.full((n, 2), np.nan)
        sign = 1 if forward else -1
        theta = x.theta + d[:, 1]
        r = x.r + d[:, 0]
        total = self._loop_at[x.component][3]
        n = _first_true(~(np.abs(theta) < math.pi / 2)
                        | ~(np.abs(d[:, 0]) < total), n)
        comps, r = self._wrap_many(x.component, r[:n])
        comps, r, th, status = run_step_many(
            self.ctype, self.cpar, comps, r, sign * theta[:n],
            GRAZING_COS_TOL, MIN_FLIGHT, CORNER_TOL)
        n = _first_true(status != OK, n)
        dr, on_loop = self._offset_many(y, comps[:n], r[:n])
        n = _first_true(~on_loop, n)
        out[:n, 0] = dr[:n]
        out[:n, 1] = sign * th[:n] - y.theta
        if n == len(d):
            return out, None
        try:
            self.offset(y, self.step(self.embed(x, *d[n].tolist()), forward))
        except (DomainEscape, MapUndefined, OutOfDomain) as e:
            return out, (n, e)
        raise AssertionError(f"row {n} fails in the array form only")

    def _wrap_many(self, component: int, r: np.ndarray):
        """wrap_r(component, r_k) for the r_k that embed admits (less than a
        loop length from the start), as (components, r); the walk updates r
        in place."""
        loop, idx0, _, _ = self._loop_at[component]
        if len(loop) == 1:
            return np.full(len(r), component), r % self._length_array[component]
        order = np.array(loop)
        idx = np.full(len(r), idx0)
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
        """The arclength part of offset(x, p) for the points p = (comps, r),
        and where p is on x's loop (offset raises OutOfDomain elsewhere)."""
        loop, _, prefix_x, total = self._loop_at[x.component]
        dr = r - x.r
        same = comps == x.component
        if len(loop) == 1:
            L = self._length_array[x.component]
            return np.where(dr > L / 2.0, dr - L,
                            np.where(dr <= -L / 2.0, dr + L, dr)), same
        sx = prefix_x + x.r
        sp = self._prefix[comps] + r
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
            sx, sy, tx, ty = comp_frame(self.ctype[a], self.cpar[a], abs(u))
            src = (sx, sy)
            w = (branch * tx, branch * ty)
        else:
            src = self.corner_points[a]
            w = (math.cos(u), math.sin(u))
        ci, s, t = trace_ray(self.ctype, self.cpar, src[0], src[1], w[0], w[1], MIN_FLIGHT)
        if ci < 0 or t > 1e200:
            return None
        hx, hy, tx, ty = comp_frame(self.ctype[ci], self.cpar[ci], s)
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

    def _segment_inside(self, src, w, t, checks: int = 4) -> bool:
        for k in range(1, checks + 1):
            lam = t * k / (checks + 1.0)
            if not self.contains_point((src[0] + lam * w[0], src[1] + lam * w[1])):
                return False
        return True

    def singularity_cloud(self) -> dict:
        """Sampled points on the one-step singularity preimage curves S+ and S-.

        Returns arrays px, py, theta (S+ rows), plus the generating family of
        each row (kind, index, parameter) for local 1-D refinement.  S- is
        obtained by time reversal (same positions, negated theta), so it is
        not stored.  Built once per table.
        """
        if self._singular_cloud is not None:
            return self._singular_cloud
        n_tan = 48
        n_fan = 64
        # tangent rays of straight pieces lie inside the wall: arcs only
        sources = [(0, ci, branch * (s + 1e-12))
                   for ci, L in enumerate(self.lengths) if self.ctype[ci] == 1
                   for s in np.linspace(0.0, L, n_tan, endpoint=False).tolist()
                   for branch in (1.0, -1.0)]
        sources += [(1, k, psi) for k in range(len(self.corner_points))
                    for psi in np.linspace(0.0, 2 * math.pi, n_fan,
                                           endpoint=False).tolist()]
        rows = []
        fams = []
        for fam in sources:
            got = self._trace_singular_source(*fam)
            if got is None:
                continue
            hx, hy, th, src, t, w = got
            if not self._segment_inside(src, w, t):
                continue
            rows.append((hx, hy, th))
            fams.append(fam)
        cloud = {
            "px": np.array([row[0] for row in rows]),
            "py": np.array([row[1] for row in rows]),
            "theta": np.array([row[2] for row in rows]),
            "fam": fams,
        }
        self._search_tops = [{} for _ in fams]
        self._singular_cloud = cloud
        return cloud

    def _refine_preimage_distance(self, idx, P, th, d0) -> float:
        """Golden-section over the generating curve parameter near cloud row
        idx.  The first `_SEARCH_CACHE_DEPTH` evaluations read their traced
        point from the row's cache in `_search_tops`, filling it on a miss.
        The cache is keyed by u, which dict lookup compares with ==; that
        equates only 0.0 with -0.0, and no search evaluates -0.0."""
        kind, a, u0 = self._singular_cloud["fam"][idx]
        if kind == 0:
            span = self.lengths[a] / 48.0
        else:
            span = 2 * math.pi / 64.0
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
        P = comp_point(self.ctype[p.component], self.cpar[p.component], p.r)
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

    def point_xy(self, component: int, s: float) -> np.ndarray:
        raise TypeError("linear fixture states are planar, not boundary-parametrized")

    def distance(self, p: PhasePoint, q: PhasePoint) -> float:
        return math.hypot(p.r - q.r, p.theta - q.theta)

    def diameter(self) -> float:
        return 2.0 * math.sqrt(2.0) * self.half_width

    def validate_point(self, p: PhasePoint):
        if p.component != 0:
            raise ValueError(f"component {p.component} outside the fixture's "
                             f"single component 0")
        if not (abs(p.r) <= self.half_width and abs(p.theta) <= self.half_width):
            raise ValueError("point outside fixture domain")

    def liouville_sample(self, rng: np.random.Generator, n: int,
                         theta_cap: float = None) -> list[PhasePoint]:
        """n points of the square, uniform in area: the fixture's invariant
        reference measure.  theta_cap is ignored; it is accepted so that one
        call samples every map."""
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
        raises OrbitHitsDiscontinuity at its signed step."""
        self.validate_point(x)
        tail = self._walk(x, n_plus, True)
        pts = tuple(self._walk(x, n_minus, False)[:0:-1] + tail)
        derivs = np.broadcast_to(self.derivative(x, True), (len(pts), 2, 2)).copy()
        return pts, derivs, self.step(pts[-1], True)

    def _walk(self, x: PhasePoint, n: int, forward: bool) -> list[PhasePoint]:
        pts = [x]
        for k in range(1, n + 1):
            pts.append(self.step(pts[-1], forward))
            try:
                self.validate_point(pts[-1])
            except ValueError as e:
                raise OrbitHitsDiscontinuity(k if forward else -k, str(e)) from e
        return pts

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
def make_circle(radius: float = 1.0) -> BilliardTable:
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    arc = Arc(center=(0.0, 0.0), radius=radius, a0=-math.pi,
              length=2 * math.pi * radius, orient=+1,
              start_corner=False, end_corner=False)
    return BilliardTable([arc], [[0]], "circle", {"radius": radius})


def make_stadium(radius: float = 1.0,
                 straight_half_length: float = 1.0) -> BilliardTable:
    R, l = radius, straight_half_length
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
    a, rd = half_side, scatterer_radius
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

    The default radius is a power of two so the arc-angle/arclength conversion
    round-trips exactly at the inward tips, keeping the two straight
    tip-to-tip bouncing orbits bitwise periodic.
    """
    R, a = arc_radius, half_side
    if not 0.0 < a < math.inf:
        raise ValueError(f"half_side must be positive and finite, got {a}")
    if not a < R < math.inf:
        raise ValueError("arc_radius must be finite and exceed half_side")
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


# ---------------------------------------------------------------- file IO
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

