"""Ray-tracing kernels for orbit generation.

There is one geometry in two forms.  The scalar form (`trace_ray`,
`run_orbit`) follows one ray or one orbit; the array form (`trace_rays`,
`run_step_many`) takes one map step from N states at once and serves the
chart-map grids.  The array form does the same IEEE operations in the same
order as the scalar form, with numpy only for + - * /, sqrt, %, abs,
comparisons and selections, whose results IEEE 754 fixes on every host;
tests pin the two forms bitwise, on every row of full grids and row by row
against one `run_orbit` step in each status.  Every cos, sin
and atan2 stays a scalar `math` call, over `.tolist()` in the array form,
because numpy's vectorised transcendentals are its own (SIMD) code and need
not round like `math`: `np.arctan2` differed from `math.atan2` in the last
bit on 7.8% of 200 000 random arguments (numpy 2.4 on an x86-64 Xeon), which
would tie the bits to the numpy build and the CPU.

The array form computes only what a step reads.  `comp_frames_many` reads
each row's component from its packed row gathered into a column, so a
segment row costs no per-component pass, and takes one list of the angles
for each cos/sin pair; the hit frames give tangents alone.  `trace_rays`
takes a segment's arclength only on the rays whose flight passed the t
tests, as it takes an arc's angle only there.  Work it skips has no effect
on the rows it keeps, so the bits are those of the full evaluation.

The boundary is packed into one row per component that the per-step loop
(the hot path of simulation, Lyapunov and QR long runs) reads whole: each
row is a tuple of Python numbers, unpacked into names in the `for` target
of the component loop, and callers pass points and directions as Python
floats too.  Indexing a numpy array yields a numpy scalar, and arithmetic
on those costs about three times the plain-Python float operation; the IEEE
results are the same either way, so outputs do not depend on the row type,
only the speed does.  A row also holds the constants that the kernels
derive from the geometry (the hit limits and R*R).  `segment_row`/`arc_row`
compute them once per table with the IEEE expressions a per-step
evaluation would use, so reading them gives the same bits and the loop
does not recompute them at every component of every step.

The step's thresholds `GRAZING_COS_TOL`, `MIN_FLIGHT` and `CORNER_TOL` live
here; no kernel takes them as parameters, and `trace_ray` and `run_orbit`
bind them to locals once per call.

`comp_frame` gives the point and unit tangent at an arclength from one
cos/sin pair.  `run_orbit` takes the frame of each hit once, reads the
outgoing angle from its tangent and carries it into the next step as that
step's start point and tangent, so a step on an arc evaluates one pair.

Component rows (15 entries in one layout for both kinds, indices 0-14):
  kind, x0, y0, length, hit,    both kinds
  ux, uy,                       segments
  R, a0, orient, axc, axs, RR,  arcs
  startcorner, endcorner        both kinds
kind is the int 0 for a segment and 1 for an arc.  A segment runs from
(x0, y0) along the unit tangent (ux, uy); its arc-only entries are 0.0.  An
arc has center (x0, y0), radius R, start angle a0 and orient +1 for
counterclockwise traversal (focusing side, inward normal toward the arc
center) or -1 for clockwise (dispersing side); its (ux, uy) are 0.0.  hit
is the largest arclength that still counts as a hit: length + 1e-12 on a
segment, length + 1e-9*R on an arc, and RR is R*R.  The corner flags are
1.0 or 0.0.  Arc angles are measured RELATIVE to a per-arc axis whose
cos/sin (axc, axs) are stored exactly; quarter-turn axes are snapped to
exact (+-1, 0)/(0, +-1) so that special orbits hitting an arc on its axis
evaluate trig exactly (this makes the straight two-cap bounce of the
stadium bitwise periodic).  Arclength s runs 0..length.
"""
from __future__ import annotations

import math
from math import atan2, cos, sin, sqrt

import numpy as np

# the kernels are plain Python; the benchmark's host fingerprint reports this
HAVE_NUMBA = False

TWO_PI = 2.0 * math.pi

GRAZING_COS_TOL = 1e-8  # |cos theta| below this counts as tangential
MIN_FLIGHT = 1e-9  # shortest admissible chord
CORNER_TOL = 1e-12  # arclength proximity to a flagged junction

# status codes returned by the orbit kernel
OK = 0
GRAZING = 1
CORNER = 2
NO_INTERSECTION = 3

# the packed row the array form reads for component -1, a ray that missed
# the boundary: its frame is NaN and its corner flags are off
_MISSED_ROW = (math.nan,) * 15

# trace_rays' cone test of arc roots (proof in its docstring): the angle
# past an arc's ends at which a root is dropped before its atan2, the
# floor that keeps every hit within about 2^-990 of the arc's center, and
# the largest |a0| that the proof's rounding bounds allow
_CONE_MARGIN = 1e-6
_CONE_FLOOR = 2.0 ** -990
_CONE_A0_MAX = 16.0


def segment_row(x0, y0, ux, uy, length, start_corner, end_corner) -> tuple:
    """The packed row of the segment from (x0, y0) along the unit tangent
    (ux, uy)."""
    x0, y0, ux, uy, length = map(float, (x0, y0, ux, uy, length))
    return (0, x0, y0, length, length + 1e-12, ux, uy,
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            1.0 if start_corner else 0.0, 1.0 if end_corner else 0.0)


def arc_row(cx, cy, R, a0, orient, length, axc, axs, start_corner,
            end_corner) -> tuple:
    """The packed row of an arc of radius R about (cx, cy)."""
    cx, cy, R, a0, orient, length, axc, axs = map(
        float, (cx, cy, R, a0, orient, length, axc, axs))
    return (1, cx, cy, length, length + 1e-9 * R, 0.0, 0.0,
            R, a0, orient, axc, axs, R * R,
            1.0 if start_corner else 0.0, 1.0 if end_corner else 0.0)


def comp_frame(row, s):
    """The point and unit tangent at arclength s, as (px, py, tx, ty), from
    one cos/sin of the arc angle."""
    arc, x0, y0, _, _, ux, uy, R, a0, orient, axc, axs, _, _, _ = row
    if not arc:
        return x0 + s * ux, y0 + s * uy, ux, uy
    phi = a0 + orient * s / R
    lx = cos(phi)
    ly = sin(phi)
    # d/ds of R*(cos phi, sin phi) with dphi/ds = orient/R, then axis rotation
    tlx = -orient * ly
    tly = orient * lx
    return (
        x0 + R * (axc * lx - axs * ly),
        y0 + R * (axs * lx + axc * ly),
        axc * tlx - axs * tly,
        axs * tlx + axc * tly,
    )


def comp_curvature(row):
    # with inward normal = rot90(tangent): +1/R on ccw arcs, -1/R on cw arcs
    return row[9] / row[7] if row[0] else 0.0


def trace_ray(rows, px, py, dx, dy):
    """First boundary hit of the ray p + t*d, t > MIN_FLIGHT.

    Returns (component index, arclength on it, flight time); index -1 when the
    ray misses everything (geometry inconsistency for closed tables).
    """
    min_flight = MIN_FLIGHT
    best_t = 1e300
    best_i = -1
    best_s = 0.0
    for i, (arc, x0, y0, length, hit, ux, uy, R, a0, orient, axc, axs, RR,
            _, _) in enumerate(rows):
        if not arc:
            den = dx * uy - dy * ux
            if abs(den) < 1e-14:
                continue
            wx = x0 - px
            wy = y0 - py
            t = (wx * uy - wy * ux) / den
            if t > min_flight and t < best_t:
                s = (wx * dy - wy * dx) / den
                if -1e-12 <= s <= hit:
                    best_t = t
                    best_i = i
                    # min(max(s, 0.0), length), with the builtins' tie rule
                    best_s = length if length < s else 0.0 if 0.0 > s else s
        else:
            mx = px - x0
            my = py - y0
            b = mx * dx + my * dy
            disc = b * b - (mx * mx + my * my - RR)
            if disc < 0.0:
                continue
            sq = sqrt(disc)
            # both roots, -1 first; -b - sq is exactly -b + (-1.0) * sq
            for t in (-b - sq, -b + sq):
                if t <= min_flight or t >= best_t:
                    continue
                hx = px + t * dx - x0
                hy = py + t * dy - y0
                # undo the axis rotation before reading off the angle
                phi = atan2(axc * hy - axs * hx, axc * hx + axs * hy)
                s = R * ((orient * (phi - a0)) % TWO_PI)
                if s <= hit:
                    best_t = t
                    best_i = i
                    best_s = length if length < s else s
    return best_i, best_s, best_t


def run_orbit(rows, comp0, r0, th0, n_steps):
    """Iterate the billiard map n_steps times from (comp0, r0, th0).

    Returns (comps, rs, thetas, taus, status, k) with four Python lists: k
    is the number of completed steps, n_steps unless status says why step k
    failed; the state lists hold the k+1 states reached and taus the k
    flight lengths.
    """
    comps = [comp0]
    rs = [r0]
    ths = [th0]
    taus = []
    status = OK
    th = th0
    grazing_tol, corner_tol = GRAZING_COS_TOL, CORNER_TOL
    px, py, tx, ty = comp_frame(rows[comp0], r0)
    for _ in range(n_steps):
        ct_ = cos(th)
        if ct_ < grazing_tol:
            status = GRAZING
            break
        st_ = sin(th)
        # inward normal is rot90(tangent) = (-ty, tx)
        dx = ct_ * (-ty) + st_ * tx
        dy = ct_ * tx + st_ * ty
        ci, s, t = trace_ray(rows, px, py, dx, dy)
        if ci < 0:
            status = NO_INTERSECTION
            break
        row = rows[ci]
        px, py, tx, ty = comp_frame(row, s)
        cos_out = -(dx * (-ty) + dy * tx)
        sin_out = dx * tx + dy * ty
        if cos_out < grazing_tol:
            status = GRAZING
            break
        if (row[13] and s < corner_tol) or (row[14] and row[3] - s < corner_tol):
            status = CORNER
            break
        th = atan2(sin_out, cos_out)
        comps.append(ci)
        rs.append(s)
        ths.append(th)
        taus.append(t)
    return comps, rs, ths, taus, status, len(taus)


# ------------------------------------------------------------- array form
def _math_map(f, *args):
    """The scalar `math` function f over equal-length arrays, element by
    element, so that no transcendental goes through numpy's SIMD loops."""
    lists = [a.tolist() for a in args]
    return np.fromiter(map(f, *lists), dtype=np.float64, count=len(lists[0]))


def _cos_sin(phi):
    """math.cos and math.sin over the array phi, from one list of it."""
    vals = phi.tolist()
    return (np.fromiter(map(cos, vals), dtype=np.float64, count=len(vals)),
            np.fromiter(map(sin, vals), dtype=np.float64, count=len(vals)))


def comp_frames_many(cols, s, points):
    """comp_frame at N rows, as arrays (px, py, tx, ty), or the unit
    tangents (tx, ty) alone when not `points`.  `cols` holds the packed row
    of each row's component as a column (15 x N) and s the arclengths; a
    column of NaN (a ray that missed the boundary) gives NaN.  The returned
    tangents are cols' own ux, uy entries, overwritten on the arc rows.

    A segment row costs no pass of its own, and the arc rows take one
    cos/sin pair.
    """
    arc = cols[0] == 1
    x0, y0, _, _, ux, uy, R, a0, orient, axc, axs = cols[1:12]
    out = ([x0 + s * ux, y0 + s * uy] if points else []) + [ux, uy]
    if arc.any():
        if arc.all():
            arc = slice(None)  # a view, not a gathered copy
        sa = s[arc]
        x0, y0, R, a0, orient, axc, axs = (
            v[arc] for v in (x0, y0, R, a0, orient, axc, axs))
        lx, ly = _cos_sin(a0 + orient * sa / R)
        tlx = -orient * ly
        tly = orient * lx
        if points:
            out[0][arc] = x0 + R * (axc * lx - axs * ly)
            out[1][arc] = y0 + R * (axs * lx + axc * ly)
        out[-2][arc] = axc * tlx - axs * tly
        out[-1][arc] = axs * tlx + axc * tly
    return out


def trace_rays(rows, px, py, dx, dy):
    """trace_ray for N rays at once, as arrays (index, arclength, flight).

    The components are visited in the scalar order, both arc roots in the
    order -1, +1, each replacing the best hit only when strictly nearer, so
    every row is bitwise its trace_ray call.

    An arc root whose hit lies well off the arc takes no atan2: with the
    hit (v, u) in arc coordinates (the two floats that atan2 reads), the
    arc's midpoint direction m = (cos, sin)(a0 + orient L/(2R)) and
    delta = `_CONE_MARGIN`, the root is dropped when

        (v m_x + u m_y + F) / hypot(u, v) <= cos(L/(2R) + delta),

    F = `_CONE_FLOOR`, on an arc with L/(2R) + delta < pi and |a0| <=
    `_CONE_A0_MAX`.  Such a root is one that `s <= hit` rejects, so each
    row keeps its bits.  Proof: F > 0 only raises the left side, and as
    the dot product rounds to at most 2 |(v, u)|, a hit with |(v, u)| <=
    2^-992 makes it at least 4 - 2 > 1, so a dropped hit has |(v, u)| >
    2^-992, and the left side without F is at least the cosine of the
    angle psi between (v, u) and m.  Every rounding there (the dot
    product, underflow included, the faithful hypot, the division, m's
    cos and sin, the cone's cos) moves that cosine by at most 2^-47,
    which moves psi by at most sqrt(2 * 2^-47) < delta / 8; so psi >
    L/(2R) + 7 delta / 8, and m is within 2^-47 of the exact midpoint
    as |a0| <= 16.  The exact angle of (v, u)
    measured from the arc's start, orient (angle - a0) mod 2 pi, is then
    in (L/R + 3 delta / 4, 2 pi - 3 delta / 4).  The computed one (atan2
    within an ulp, the subtraction of a0, the remainder by TWO_PI) is
    within 2^-40 of it, so it does not wrap, and s = R theta exceeds
    L + 0.7 delta R, while hit = fl(L + 1e-9 R) and L < 2 pi R.  No
    coordinate nears the overflow range: the constructor's finite
    boundary diameter keeps every boundary point and arc center within
    about 3e154 of each other.  A NaN or infinite hit gives a NaN left
    side, and is kept.
    """
    n = len(px)
    best_t = np.full(n, 1e300)
    best_i = np.full(n, -1)
    best_s = np.zeros(n)
    for i, (arc, x0, y0, length, hit, ux, uy, R, a0, orient, axc, axs, RR,
            _, _) in enumerate(rows):
        if not arc:
            den = dx * uy - dy * ux
            wx = x0 - px
            wy = y0 - py
            t = (wx * uy - wy * ux) / den
            # >= refuses a NaN den, which trace_ray lets through to a NaN t
            # that its flight tests refuse
            at = ((np.abs(den) >= 1e-14) & (t > MIN_FLIGHT)
                  & (t < best_t)).nonzero()[0]
            if not at.size:
                continue
            s = (wx[at] * dy[at] - wy[at] * dx[at]) / den[at]
            on_seg = (-1e-12 <= s) & (s <= hit)
            at = at[on_seg]
            s = s[on_seg]
            best_t[at] = t[at]
            best_i[at] = i
            # min(max(s, 0.0), length) with Python's tie rule
            s = np.where(0.0 > s, 0.0, s)
            best_s[at] = np.where(length < s, length, s)
        else:
            mx = px - x0
            my = py - y0
            b = mx * dx + my * dy
            disc = b * b - (mx * mx + my * my - RR)
            # a circle the line misses has disc < 0, so NaN roots, which the
            # flight tests refuse
            sq = np.sqrt(disc)
            nb = -b
            half = 0.5 * length / R
            cone = half + _CONE_MARGIN < math.pi and abs(a0) <= _CONE_A0_MAX
            if cone:  # the arc's midpoint direction, and the cone's cos
                mid = a0 + orient * half
                mc, ms, cmax = cos(mid), sin(mid), cos(half + _CONE_MARGIN)
            for t in (nb - sq, nb + sq):
                at = ((t > MIN_FLIGHT) & (t < best_t)).nonzero()[0]
                if not at.size:
                    continue
                tr = t[at]
                hx = px[at] + tr * dx[at] - x0
                hy = py[at] + tr * dy[at] - y0
                # the hit in arc coordinates, (v, u) = (cos, sin) * |hit|
                u = axc * hy - axs * hx
                v = axc * hx + axs * hy
                if cone:  # "not at most", so that a NaN row is kept
                    near = (~((v * mc + u * ms + _CONE_FLOOR)
                              / np.hypot(u, v) <= cmax)).nonzero()[0]
                    if not near.size:
                        continue
                    at, tr, u, v = at[near], tr[near], u[near], v[near]
                phi = _math_map(math.atan2, u, v)
                s = R * ((orient * (phi - a0)) % TWO_PI)
                on_arc = s <= hit
                at = at[on_arc]
                best_t[at] = tr[on_arc]
                best_i[at] = i
                best_s[at] = np.where(length < s, length, s)[on_arc]
    return best_i, best_s, best_t


def run_step_many(rows, comps, rs, ths):
    """One run_orbit step from each of N states (comps, rs, ths), as arrays.

    Returns (comps, rs, thetas, status) of the images.  A row whose status
    is not OK holds no image; its status is the one run_orbit returns
    from that state.
    """
    # the packed rows as columns, and a NaN column -1 for a missed ray
    entries = np.array(rows + (_MISSED_ROW,)).T
    # parallel rays divide by zero and missing circles take a root of a
    # negative number; those rows are masked, their NaN and inf are not read
    with np.errstate(divide="ignore", invalid="ignore"):
        px, py, tx, ty = comp_frames_many(entries[:, comps], rs, True)
        ct_, st_ = _cos_sin(ths)
        dx = ct_ * (-ty) + st_ * tx
        dy = ct_ * tx + st_ * ty
        ci, s, _ = trace_rays(rows, px, py, dx, dy)
        hit = entries[:, ci]
        tx2, ty2 = comp_frames_many(hit, s, False)
        cos_out = -(dx * (-ty2) + dy * tx2)
        sin_out = dx * tx2 + dy * ty2
    corner = (((hit[13] > 0.5) & (s < CORNER_TOL))
              | ((hit[14] > 0.5) & (hit[3] - s < CORNER_TOL)))
    # run_orbit's checks in its order: the first that fires is the status
    status = np.select(
        [ct_ < GRAZING_COS_TOL, ci < 0, cos_out < GRAZING_COS_TOL, corner],
        [GRAZING, NO_INTERSECTION, GRAZING, CORNER], OK)
    th = _math_map(math.atan2, sin_out, cos_out)
    return ci, s, th, status
