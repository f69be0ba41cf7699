"""Ray-tracing kernels for orbit generation.

The boundary is packed into rows that the per-step loop (the hot path of
simulation, Lyapunov and QR long runs) reads by index: `ctype` is a tuple of
int and `cpar` a tuple of float tuples, and callers pass points and
directions as Python floats too.  Indexing a numpy array yields a numpy
scalar, and arithmetic on those costs about three times the plain-Python
float operation; the IEEE results are the same either way, so outputs do not
depend on the row type, only the speed does.

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
    if ct == 0:
        return par[0] + s * par[2], par[1] + s * par[3]
    phi = par[3] + par[4] * s / par[2]
    lx = math.cos(phi)
    ly = math.sin(phi)
    axc, axs = par[6], par[7]
    return (
        par[0] + par[2] * (axc * lx - axs * ly),
        par[1] + par[2] * (axs * lx + axc * ly),
    )


def comp_tangent(ct, par, s):
    if ct == 0:
        return par[2], par[3]
    phi = par[3] + par[4] * s / par[2]
    # d/ds of R*(cos phi, sin phi) with dphi/ds = orient/R, then axis rotation
    lx = -par[4] * math.sin(phi)
    ly = par[4] * math.cos(phi)
    axc, axs = par[6], par[7]
    return axc * lx - axs * ly, axs * lx + axc * ly


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
            for sign in (-1.0, 1.0):
                t = -b + sign * sq
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

    Returns (comps, rs, thetas, taus, status, fail_k): state arrays hold
    n_steps+1 entries and taus the n_steps flight lengths; on failure, status
    says why and fail_k at which step (entries with index <= fail_k valid).
    """
    comps = np.empty(n_steps + 1, dtype=np.int64)
    rs = np.empty(n_steps + 1, dtype=np.float64)
    ths = np.empty(n_steps + 1, dtype=np.float64)
    taus = np.zeros(n_steps, dtype=np.float64)
    comps[0] = comp0
    rs[0] = r0
    ths[0] = th0
    c = comp0
    r = r0
    th = th0
    for k in range(n_steps):
        if math.cos(th) < grazing_tol:
            return comps, rs, ths, taus, GRAZING, k
        par = cpar[c]
        px, py = comp_point(ctype[c], par, r)
        tx, ty = comp_tangent(ctype[c], par, r)
        ct_ = math.cos(th)
        st_ = math.sin(th)
        # inward normal is rot90(tangent) = (-ty, tx)
        dx = ct_ * (-ty) + st_ * tx
        dy = ct_ * tx + st_ * ty
        ci, s, t = trace_ray(ctype, cpar, px, py, dx, dy, min_flight)
        if ci < 0:
            return comps, rs, ths, taus, NO_INTERSECTION, k
        par2 = cpar[ci]
        tx2, ty2 = comp_tangent(ctype[ci], par2, s)
        cos_out = -(dx * (-ty2) + dy * tx2)
        sin_out = dx * tx2 + dy * ty2
        if cos_out < grazing_tol:
            return comps, rs, ths, taus, GRAZING, k
        length2 = par2[4] if ctype[ci] == 0 else par2[5]
        if (par2[8] > 0.5 and s < corner_tol) or (par2[9] > 0.5 and length2 - s < corner_tol):
            return comps, rs, ths, taus, CORNER, k
        th = math.atan2(sin_out, cos_out)
        c = ci
        r = s
        comps[k + 1] = c
        rs[k + 1] = r
        ths[k + 1] = th
        taus[k] = t
    return comps, rs, ths, taus, OK, n_steps
