"""Ray-tracing kernels for orbit generation.

There is one geometry in two forms.  The scalar form (`trace_ray`,
`run_orbit`) follows one ray or one orbit; the array form (`trace_rays`,
`run_step_many`) takes one map step from N states at once and serves the
chart-map grids.  The array form does the same IEEE operations in the same
order as the scalar form, with numpy only for + - * /, sqrt, %, abs,
comparisons and selections, whose results IEEE 754 fixes on every host; a
test pins the two forms bitwise on every row of full grids.  Every cos, sin
and atan2 stays a scalar `math` call, over `.tolist()` in the array form,
because numpy's vectorised transcendentals are its own (SIMD) code and need
not round like `math`: `np.arctan2` differed from `math.atan2` in the last
bit on 7.8% of 200 000 random arguments (numpy 2.4 on an x86-64 Xeon), which
would tie the bits to the numpy build and the CPU.

The boundary is packed into rows that the per-step loop (the hot path of
simulation, Lyapunov and QR long runs) reads by index: `ctype` is a tuple of
int and `cpar` a tuple of float tuples, and callers pass points and
directions as Python floats too.  Indexing a numpy array yields a numpy
scalar, and arithmetic on those costs about three times the plain-Python
float operation; the IEEE results are the same either way, so outputs do not
depend on the row type, only the speed does.

`comp_frame` gives the point and unit tangent at an arclength from one
cos/sin pair.  `run_orbit` takes the frame of each hit once, reads the
outgoing angle from its tangent and carries it into the next step as that
step's start point and tangent, so a step on an arc evaluates one pair.

Component packing (one row of `cpar` per component, `ctype` 0=segment 1=arc):
  segment: p0x, p0y, ux, uy, length, -, -, -, startcorner, endcorner
  arc:     cx,  cy,  R,  a0, orient, length, axc, axs, startcorner, endcorner
where (ux,uy) is the unit tangent, orient +1 for counterclockwise traversal
(focusing side, inward normal toward the arc center) and -1 for clockwise
(dispersing side).  Arc angles are measured RELATIVE to a per-arc axis whose
cos/sin (axc, axs) are stored exactly; quarter-turn axes are snapped to exact
(+-1, 0)/(0, +-1) so that special orbits hitting an arc on its axis evaluate
trig exactly (this makes the straight two-cap bounce of the stadium bitwise
periodic).  Arclength s runs 0..length.
"""
from __future__ import annotations

import math

import numpy as np

# the kernels are plain Python; the benchmark's host fingerprint reports this
HAVE_NUMBA = False

TWO_PI = 2.0 * math.pi

# status codes returned by the orbit kernel
OK = 0
GRAZING = 1
CORNER = 2
NO_INTERSECTION = 3


def comp_point(ct, par, s):
    """The point at arclength s: the first two entries of comp_frame."""
    return comp_frame(ct, par, s)[:2]


def comp_frame(ct, par, s):
    """The point and unit tangent at arclength s, as (px, py, tx, ty), from
    one cos/sin of the arc angle."""
    if ct == 0:
        return par[0] + s * par[2], par[1] + s * par[3], par[2], par[3]
    phi = par[3] + par[4] * s / par[2]
    lx = math.cos(phi)
    ly = math.sin(phi)
    axc, axs = par[6], par[7]
    # d/ds of R*(cos phi, sin phi) with dphi/ds = orient/R, then axis rotation
    tlx = -par[4] * ly
    tly = par[4] * lx
    return (
        par[0] + par[2] * (axc * lx - axs * ly),
        par[1] + par[2] * (axs * lx + axc * ly),
        axc * tlx - axs * tly,
        axs * tlx + axc * tly,
    )


def comp_curvature(ct, par):
    if ct == 0:
        return 0.0
    # with inward normal = rot90(tangent): +1/R on ccw arcs, -1/R on cw arcs
    return par[4] / par[2]


def trace_ray(ctype, cpar, px, py, dx, dy, min_flight):
    """First boundary hit of the ray p + t*d, t > min_flight.

    Returns (component index, arclength on it, flight time); index -1 when the
    ray misses everything (geometry inconsistency for closed tables).
    """
    best_t = 1e300
    best_i = -1
    best_s = 0.0
    n = len(ctype)
    for i in range(n):
        par = cpar[i]
        if ctype[i] == 0:
            ux, uy = par[2], par[3]
            den = dx * uy - dy * ux
            if abs(den) < 1e-14:
                continue
            wx = par[0] - px
            wy = par[1] - py
            t = (wx * uy - wy * ux) / den
            s = (wx * dy - wy * dx) / den
            if t > min_flight and -1e-12 <= s <= par[4] + 1e-12:
                if t < best_t:
                    best_t = t
                    best_i = i
                    best_s = min(max(s, 0.0), par[4])
        else:
            cx, cy, R = par[0], par[1], par[2]
            mx = px - cx
            my = py - cy
            b = mx * dx + my * dy
            c0 = mx * mx + my * my - R * R
            disc = b * b - c0
            if disc < 0.0:
                continue
            sq = math.sqrt(disc)
            # both roots, -1 first; -b - sq is exactly -b + (-1.0) * sq
            for t in (-b - sq, -b + sq):
                if t <= min_flight or t >= best_t:
                    continue
                hx = px + t * dx - cx
                hy = py + t * dy - cy
                # undo the axis rotation before reading off the angle
                axc, axs = par[6], par[7]
                phi = math.atan2(axc * hy - axs * hx, axc * hx + axs * hy)
                s = R * ((par[4] * (phi - par[3])) % TWO_PI)
                if s <= par[5] + 1e-9 * R:
                    best_t = t
                    best_i = i
                    best_s = min(s, par[5])
    return best_i, best_s, best_t


def run_orbit(ctype, cpar, comp0, r0, th0, n_steps, grazing_tol, min_flight, corner_tol):
    """Iterate the billiard map n_steps times from (comp0, r0, th0).

    Returns (comps, rs, thetas, taus, status, k): k is the number of
    completed steps, n_steps unless status says why step k failed; the
    state arrays hold the k+1 states reached and taus the k flight lengths.
    """
    comps = [comp0]
    rs = [r0]
    ths = [th0]
    taus = []
    status = OK
    th = th0
    px, py, tx, ty = comp_frame(ctype[comp0], cpar[comp0], r0)
    for _ in range(n_steps):
        ct_ = math.cos(th)
        if ct_ < grazing_tol:
            status = GRAZING
            break
        st_ = math.sin(th)
        # inward normal is rot90(tangent) = (-ty, tx)
        dx = ct_ * (-ty) + st_ * tx
        dy = ct_ * tx + st_ * ty
        ci, s, t = trace_ray(ctype, cpar, px, py, dx, dy, min_flight)
        if ci < 0:
            status = NO_INTERSECTION
            break
        par2 = cpar[ci]
        px, py, tx, ty = comp_frame(ctype[ci], par2, s)
        cos_out = -(dx * (-ty) + dy * tx)
        sin_out = dx * tx + dy * ty
        if cos_out < grazing_tol:
            status = GRAZING
            break
        length2 = par2[4] if ctype[ci] == 0 else par2[5]
        if (par2[8] > 0.5 and s < corner_tol) or (par2[9] > 0.5 and length2 - s < corner_tol):
            status = CORNER
            break
        th = math.atan2(sin_out, cos_out)
        comps.append(ci)
        rs.append(s)
        ths.append(th)
        taus.append(t)
    return (np.array(comps, dtype=np.int64), np.array(rs, dtype=np.float64),
            np.array(ths, dtype=np.float64), np.array(taus, dtype=np.float64),
            status, len(taus))


# ------------------------------------------------------------- array form
def _math_map(f, *args):
    """The scalar `math` function f over equal-length arrays, element by
    element, so that no transcendental goes through numpy's SIMD loops."""
    lists = [a.tolist() for a in args]
    return np.fromiter(map(f, *lists), dtype=np.float64, count=len(lists[0]))


def comp_frames_many(ctype, cpar, comps, s):
    """comp_frame at the N rows (comps, s), as the rows of a 4 x N array
    (px, py, tx, ty); rows on component -1 (a ray that missed the boundary)
    stay NaN."""
    out = np.full((4, len(s)), np.nan)
    for c in range(len(ctype)):
        m = comps == c
        if not m.any():
            continue
        par = cpar[c]
        if ctype[c] == 0:
            out[0, m] = par[0] + s[m] * par[2]
            out[1, m] = par[1] + s[m] * par[3]
            out[2, m] = par[2]
            out[3, m] = par[3]
            continue
        phi = par[3] + par[4] * s[m] / par[2]
        lx = _math_map(math.cos, phi)
        ly = _math_map(math.sin, phi)
        axc, axs = par[6], par[7]
        out[0, m] = par[0] + par[2] * (axc * lx - axs * ly)
        out[1, m] = par[1] + par[2] * (axs * lx + axc * ly)
        tlx = -par[4] * ly
        tly = par[4] * lx
        out[2, m] = axc * tlx - axs * tly
        out[3, m] = axs * tlx + axc * tly
    return out


def trace_rays(ctype, cpar, px, py, dx, dy, min_flight):
    """trace_ray for N rays at once, as arrays (index, arclength, flight).

    The components are visited in the scalar order, both arc roots in the
    order -1, +1, each replacing the best hit only when strictly nearer, so
    every row is bitwise its trace_ray call.
    """
    n = len(px)
    best_t = np.full(n, 1e300)
    best_i = np.full(n, -1)
    best_s = np.zeros(n)
    for i in range(len(ctype)):
        par = cpar[i]
        if ctype[i] == 0:
            ux, uy = par[2], par[3]
            den = dx * uy - dy * ux
            wx = par[0] - px
            wy = par[1] - py
            t = (wx * uy - wy * ux) / den
            s = (wx * dy - wy * dx) / den
            hit = (~(np.abs(den) < 1e-14) & (t > min_flight)
                   & (-1e-12 <= s) & (s <= par[4] + 1e-12) & (t < best_t))
            # min(max(s, 0.0), L) with Python's tie rule
            s = np.where(0.0 > s, 0.0, s)
            s = np.where(par[4] < s, par[4], s)
            best_t = np.where(hit, t, best_t)
            best_i = np.where(hit, i, best_i)
            best_s = np.where(hit, s, best_s)
        else:
            cx, cy, R = par[0], par[1], par[2]
            mx = px - cx
            my = py - cy
            b = mx * dx + my * dy
            c0 = mx * mx + my * my - R * R
            disc = b * b - c0
            meets = ~(disc < 0.0)
            sq = np.sqrt(disc)
            for sign in (-1.0, 1.0):
                t = -b + sign * sq
                rows = np.flatnonzero(meets & (t > min_flight) & (t < best_t))
                if not rows.size:
                    continue
                tr = t[rows]
                hx = px[rows] + tr * dx[rows] - cx
                hy = py[rows] + tr * dy[rows] - cy
                axc, axs = par[6], par[7]
                phi = _math_map(math.atan2, axc * hy - axs * hx,
                                axc * hx + axs * hy)
                s = R * ((par[4] * (phi - par[3])) % TWO_PI)
                on_arc = s <= par[5] + 1e-9 * R
                rows = rows[on_arc]
                best_t[rows] = tr[on_arc]
                best_i[rows] = i
                best_s[rows] = np.where(par[5] < s, par[5], s)[on_arc]
    return best_i, best_s, best_t


def run_step_many(ctype, cpar, comps, rs, ths, grazing_tol, min_flight, corner_tol):
    """One run_orbit step from each of N states (comps, rs, ths), as arrays.

    Returns (comps, rs, thetas, status) of the images.  A row whose status
    is not OK holds no image; its status is the one run_orbit returns
    from that state.
    """
    # parallel rays divide by zero and missing circles take a root of a
    # negative number; those rows are masked, their NaN and inf are not read
    with np.errstate(divide="ignore", invalid="ignore"):
        px, py, tx, ty = comp_frames_many(ctype, cpar, comps, rs)
        ct_ = _math_map(math.cos, ths)
        st_ = _math_map(math.sin, ths)
        dx = ct_ * (-ty) + st_ * tx
        dy = ct_ * tx + st_ * ty
        ci, s, _ = trace_rays(ctype, cpar, px, py, dx, dy, min_flight)
        _, _, tx2, ty2 = comp_frames_many(ctype, cpar, ci, s)
        cos_out = -(dx * (-ty2) + dy * tx2)
        sin_out = dx * tx2 + dy * ty2
    par2 = np.array(cpar)[ci]  # each row's hit component; garbage on a miss
    length2 = np.where(np.array(ctype)[ci] == 0, par2[:, 4], par2[:, 5])
    corner = (((par2[:, 8] > 0.5) & (s < corner_tol))
              | ((par2[:, 9] > 0.5) & (length2 - s < corner_tol)))
    # run_orbit's checks in its order: the first that fires is the status
    status = np.select(
        [ct_ < grazing_tol, ci < 0, cos_out < grazing_tol, corner],
        [GRAZING, NO_INTERSECTION, GRAZING, CORNER], OK)
    th = _math_map(math.atan2, sin_out, cos_out)
    return ci, s, th, status
