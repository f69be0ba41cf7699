"""Hyperbolic splittings, Lyapunov data, and adapted frame reductions.

Along a finite orbit segment the stable/unstable directions are produced by
push-forward from the segment ends (forward pushes converge to the unstable
direction, inverse pushes to the stable one).  From the directions, weighted
series define the parameters s(x), u(x) >= sqrt(2); the frame matrix C sends
the standard basis to e_s/s and e_u/u, and conjugating df by consecutive
frames reduces the dynamics to a diagonal hyperbolic cocycle.  All limits are
replaced by finite-window proxies: fitted slopes, running extrema, and best
return distances.

The cocycle is 2x2, so the per-step loops run on Python floats.  The
exponents push one vector and take the second QR diagonal entry from the
determinant, with no QR per step.  The stable field of f is the unstable
field of f^-1 run in reversed time, so one push function `_push` makes all
four splitting pushes: the product through the derivatives in order, or the
solve through them in reversed order.  Each step computes these formulas
with fused multiply-adds (fma, one rounding of a*x + p), which numpy 2.4 and
its OpenBLAS 0.3.31 on an x86-64 Xeon with FMA round the same way (measured
against exact rational arithmetic):
- the product of (a, b; c, d) with (x, y), numpy's matmul, is
  (fma(a, x, b*y), fma(c, x, d*y)), with a zero result always +0.0;
- `w.dot(w)`, whose square root `np.linalg.norm` takes, is fma(y, y, x*x);
- the solve, LAPACK's dgesv under `np.linalg.solve`: the rows swap iff
  |c| > |a|, then l = c * (1/a), u = d - l*b, y2 = fma(-l, p, q),
  x2 = y2/u and x1 = fma(-b, x2, p)/a for the right-hand side (p, q).
Python 3.11 has no `math.fma`, so fma(a, x, p) is Dekker's TwoProduct: with
Veltkamp's halves of a and x, h = fl(a*x) and its error e are exact while
nothing underflows or overflows, and `math.fsum((h, e, p))` rounds the exact
sum h + e + p once, to nearest even.  A zero e gives h + p and a zero p
gives h, with no fsum.  `_fma` takes every case outside that range exactly
(a zero product, a product too small to move p, the rest in `Fraction`), and
a step whose matrix is out of range takes every fma from `_fma`.  So the
pushes are bitwise the numpy loops on that platform (a test pins them on
20 000 random rows), and their bits are those of IEEE arithmetic, not of
whichever BLAS a host links (ROADMAP item 10).  A zero LU pivot, or a row
whose norm is 0 or not finite, raises SplittingNotConverged.
The one-step norms along the fields are elementwise, with no BLAS call;
a test pins them bitwise to the norm of numpy's einsum product.
A halved-window push, which measures convergence, is given the full push
over the same matrices and stops at its first row with no zero entry that
equals the full push's row at that step or that row negated (nonzero
floats compare equal only when their bits are equal); it returns the full
push's last row, negated in the second case.  (The full push's rows are
kept sign-fixed, each the row or its negation; that moves neither the
exit nor the angle below.)  Each push step is a function of its row and
that step's matrix alone, so from an equal row on the two pushes compute
the same bits, and the exit returns what the whole halved push would.
Under round-to-nearest a push step is odd up to the sign of an exact zero:
negating the row negates every product, fma and substitution exactly (the
LU pivots read the matrix alone), except that an exact cancellation gives
+0 either way; the norm is even and the divide odd.  So from a negated row
the whole push would end on the negated last row up to the signs of its
zero entries, and the only reader, `_angle_between`, takes |cross|, which
is the same for a vector and its negation and ignores the signs of zeros.
On the flower a halved push of the unstable field locks after about 20 of
its 500 steps, and one of the stable field often locks onto the negation.
On the linear fixture no halved push locks.
Each field is pushed only over the rows its readers read.  e_u at point i
depends on the past of i alone and e_s on its future, and the series at i
read factor_s from i on and factor_u below i.  So `oseledets_splitting`
pushes e_u from row 0 and e_s from the last row to `_FIRST_CHUNK` rows
past the base point, which covers its convergence check and the frames
of a gamma window.  The halved pushes run over tails of those two pushes
and slice their step columns.  A reader extends a field to exactly the
row it reads, and each reader reaches once: a frame window extends e_u
up to its last row and e_s down to its first, the exponents extend both
to their trimmed range, and the public arrays of `Splitting` finish both
pushes.  An extension builds step columns for its rows alone, kept no
longer than the push, and resumes from the field's last row as the push
left it, without normalising it again, so every row keeps the bits of
the whole push in any order of reads; a -4..4 gamma window on the
fixture's +-390 segments reads no extension.
The s/u series of all the points of a frame window are summed in one
numpy pass with the bits of the scalar loop (`_series_sums`), in blocks
of terms whose size bounds its memory and moves no bit.  A series stops
with SeriesDiverging wherever its partial sum is not <= SERIES_SUM_CAP,
which also takes a weight past `math.exp`'s range and a zero factor (both
enter as inf).  Each frame is assembled on Python floats.  The
splitting, the series and the frames keep every bit; the QR means move in
their last bits only.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from math import fsum

import numpy as np

from .dynamics import billiard_inverse, dist_to_discontinuity
from .errors import (
    BoundViolated,
    DegenerateAngle,
    InequalityViolated,
    MapUndefined,
    NotDiagonal,
    NotHyperbolic,
    OrbitHitsDiscontinuity,
    SeriesDiverging,
    SplittingNotConverged,
)
from .tables import PhasePoint

__all__ = [
    "OrbitSegment",
    "Splitting",
    "SUParams",
    "HyperbolicFrame",
    "LyapunovEstimate",
    "orbit_segment",
    "oseledets_splitting",
    "lyapunov_exponents",
    "s_u_parameters",
    "build_frame",
    "frame_at",
    "frames_along",
    "reduced_cocycle",
    "c_inverse_growth_check",
    "nuh_diagnostics",
]

# series term below this fraction of the partial sum ends the truncation
SERIES_TERM_CUTOFF = 1e-14
# number of terms cap for the s/u series
SERIES_MAX_TERMS = 10_000
# partial sums past this cap mean the weighted series is not summable; the
# cap is deliberately huge — whispering-gallery passages yield genuine s, u
# of 1e10 and beyond, and only sustained geometric growth (chi above the
# local contraction rate) should trip it
SERIES_SUM_CAP = 1e100
# |sin(angle)| below this makes a frame unusable
DEGENERATE_SIN = 1e-12
# relative off-diagonal mass allowed in the reduced cocycle
OFFDIAG_REL_TOL = 1e-8
# largest angle change under push-window halving that counts as converged
CONVERGENCE_TOL = 1e-6
# burn-in floor on both segment sides of a splitting
MIN_WINDOW = 4
# number of blocks whose mean spread bounds the exponent estimate
LYAPUNOV_BLOCKS = 10


# --------------------------------------------------------------- containers
@dataclass(frozen=True)
class OrbitSegment:
    """Orbit points f^n(x) for n in [-n_minus, n_plus] with step data.

    The orbit is kept as three columns of Python numbers, `comps`, `rs` and
    `thetas` (component, r and theta of each point), as the map's `orbit`
    returns them.  Index 0 of the columns and of `derivs` is n = -n_minus;
    the base point sits at index `n_minus`.  `derivs[i]` is df at point i
    (for the last point, computed from a probe step that is not part of the
    segment).  `point(n)` builds the one `PhasePoint` it returns, so a long
    orbit read only through its derivatives builds none.

    Distances to the discontinuity set are computed on first request and
    kept: `dist(n)` is d(f^n x, D), also at the two padding points
    n = -n_minus-1 and n_plus+1 held in `ends`, and `rho(n)` is the min of
    `dist` over n-1, n, n+1.  Without `ends` (a segment built with
    `with_rho=False`) `dist`, and so `rho`, raises ValueError.
    """

    table: object
    n_minus: int
    n_plus: int
    comps: list[int]
    rs: list[float]
    thetas: list[float]
    derivs: np.ndarray  # (len, 2, 2)
    ends: tuple[PhasePoint, PhasePoint] | None = None  # f^-1 of first, f of last
    _dists: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __len__(self) -> int:
        return len(self.rs)

    def index(self, n: int) -> int:
        """Array index of relative step n in [-n_minus, n_plus]."""
        if not (-self.n_minus <= n <= self.n_plus):
            raise IndexError(f"step {n} outside [-{self.n_minus}, {self.n_plus}]")
        return n + self.n_minus

    def point(self, n: int) -> PhasePoint:
        i = self.index(n)
        return PhasePoint(self.comps[i], self.rs[i], self.thetas[i])

    def dist(self, n: int) -> float:
        """Distance of f^n x to D, for n in [-n_minus-1, n_plus+1]."""
        if self.ends is None:
            raise ValueError(f"segment built with with_rho=False has no rho "
                             f"data: no distance to D at step {n}")
        if n not in self._dists:
            if n == -self.n_minus - 1 or n == self.n_plus + 1:
                p = self.ends[n > 0]
            else:
                p = self.point(n)
            self._dists[n] = dist_to_discontinuity(self.table, p)
        return self._dists[n]

    def rho(self, n: int) -> float:
        """Min distance to D over f^(n-1) x, f^n x and f^(n+1) x."""
        self.index(n)  # raises outside [-n_minus, n_plus]
        return min(self.dist(n - 1), self.dist(n), self.dist(n + 1))


class Splitting:
    """Unit stable/unstable directions at every segment point.

    Rows i of e_s/e_u belong to the segment's point i; the sign convention
    makes the first nonzero coordinate positive.  The convergence fields record the
    angle change when the push-forward window is halved (measured at the base
    point).

    factor_s[j] = ||df_j e_s(j)|| and factor_u[j] = ||df_j e_u(j)|| are the
    one-step norms along the fields.  n-step norms are products of these:
    because each field row is independently accurate, the products track the
    true decay/growth with only linearly accumulating error, whereas pushing
    a single vector n steps lets the complementary component (present at
    machine epsilon) take over after ~|log eps|/(2 lambda) steps.

    The fields are pushed on demand.  `oseledets_splitting` pushes e_u from
    the past end and e_s from the future end to `_FIRST_CHUNK` rows past
    the base point; a reader in this module extends them to exactly the
    rows it reads (`_fields`): the frames or the s/u series at points
    lo..hi read e_s from lo on and e_u up to hi, the exponents their
    trimmed range.  The public e_s, e_u, factor_s and factor_u finish both
    pushes.  Every row has the bits of the whole push in any order of reads.
    """

    convergence_angle_s: float
    convergence_angle_u: float

    def __init__(self, stable: _Field, unstable: _Field,
                 convergence_angle_s: float, convergence_angle_u: float):
        self._stable = stable
        self._unstable = unstable
        self.convergence_angle_s = convergence_angle_s
        self.convergence_angle_u = convergence_angle_u

    def _fields(self, lo: int, hi: int) -> tuple[_Field, _Field]:
        """The stable field pushed down to row lo and the unstable one up
        to row hi."""
        self._stable.reach(lo)
        self._unstable.reach(hi)
        return self._stable, self._unstable

    def _complete(self) -> tuple[_Field, _Field]:
        return self._fields(0, len(self._unstable.e) - 1)

    @property
    def e_s(self) -> np.ndarray:  # (len, 2)
        return self._complete()[0].e

    @property
    def e_u(self) -> np.ndarray:  # (len, 2)
        return self._complete()[1].e

    @property
    def factor_s(self) -> np.ndarray:  # (len-1,)
        return self._complete()[0].factor

    @property
    def factor_u(self) -> np.ndarray:  # (len-1,)
        return self._complete()[1].factor


@dataclass(frozen=True)
class SUParams:
    """Truncated series parameters at one orbit point."""

    s: float
    u: float


@dataclass(frozen=True)
class HyperbolicFrame:
    """Adapted frame at one point: directions, angle, series weights, C."""

    e_s: np.ndarray
    e_u: np.ndarray
    alpha: float
    s_param: float
    u_param: float
    C: np.ndarray
    chi: float

    @property
    def c_inv_frob(self) -> float:
        """Frobenius norm of C^-1: sqrt(s^2+u^2)/|sin alpha| (closed form)."""
        return math.hypot(self.s_param, self.u_param) / abs(math.sin(self.alpha))

    def distance(self, other: HyperbolicFrame) -> float:
        """Frobenius distance ||C - C'||_F between two frames, by hypot,
        which does not underflow where the squares of the entries would."""
        a, b, c, d = self.C.ravel().tolist()
        e, f, g, h = other.C.ravel().tolist()
        return math.hypot(a - e, b - f, c - g, d - h)


@dataclass(frozen=True)
class LyapunovEstimate:
    """Birkhoff means of log||df e|| along e_s (lambda1) and e_u (lambda2),
    the sorted means of the QR diagonal's log|R_ii| (computed without a QR,
    see `lyapunov_exponents`) and the confidence radius."""

    lambda1: float
    lambda2: float
    qr_lambda1: float
    qr_lambda2: float
    radius: float


# ------------------------------------------------------------ orbit segment
def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Deterministic orientation of each row of v (N x 2): the first
    coordinate decides its sign, and the second where the first is 0.0.
    A row whose deciding coordinate is not > 0 (NaN included) is negated."""
    keep = np.where(v[:, 0] != 0.0, v[:, 0] > 0.0, v[:, 1] > 0.0)
    return np.where(keep[:, None], v, -v)


def orbit_segment(table, x: PhasePoint, n_minus: int, n_plus: int,
                  with_rho: bool = True) -> OrbitSegment:
    """Collect f^n(x) for n in [-n_minus, n_plus] with derivatives.

    With rho (the default) the segment also keeps the padding points f^-1
    of the first point and f of the last, so that `seg.dist`/`seg.rho` can
    compute distances to D on request; a first point whose preimage is
    undefined raises OrbitHitsDiscontinuity at step -n_minus-1.
    `with_rho=False` takes no padding step and its `dist`/`rho` raise
    ValueError — for long exponent runs where only the derivative cocycle
    matters.  A window length that is not a nonnegative integer (a bool
    included) raises ValueError naming `n_minus` or `n_plus`.
    """
    for name, n in (("n_minus", n_minus), ("n_plus", n_plus)):
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {n!r}")
    (comps, rs, thetas), derivs, after = table.orbit(x, n_minus, n_plus)
    ends = None
    if with_rho:
        first = PhasePoint(comps[0], rs[0], thetas[0])
        try:
            ends = (billiard_inverse(table, first), after)
        except MapUndefined as e:
            raise OrbitHitsDiscontinuity(-n_minus - 1, str(e)) from e
    return OrbitSegment(table, n_minus, n_plus, comps, rs, thetas, derivs, ends)


# ------------------------------------------------------------- splitting
# Veltkamp's constant 2**27 + 1: t = _SPLIT*v, hi = t - (t - v), lo = v - hi
# splits a double into halves of at most 26 bits, so hi*hi, hi*lo and lo*lo
# are exact
_SPLIT = 134217729.0
# Dekker's product error e = a*x - h, h = fl(a*x), comes out exact when both
# operands are normal, nothing overflows and their exponents sum to at least
# -970.  A push step takes the float path only when every matrix-side operand
# is 0 or within [1/_BOUND, _BOUND] (see `_in_range`), which keeps every row
# operand below 2**303; a product h within [_LO, _HI] then meets those terms.
# Other products go through `_fma`.
_LO, _HI = 2.0 ** -900, 2.0 ** 1000
_BOUND = 2.0 ** 100
# rows that the construction push of a field runs past the base row, so that
# frames within that many steps of the base read no extension
_FIRST_CHUNK = 16


def _fma(a: float, x: float, p: float) -> float:
    """a*x + p rounded once, as an FMA unit computes it, for any floats: as
    IEEE does for a zero product, a zero p or a non-finite operand, p for a
    product below 2**-57 |p| if |p| >= 2**-1017, and else the exact sum in
    `Fraction`, whose float conversion rounds once."""
    h = a * x
    if a == 0.0 or x == 0.0 or not (math.isfinite(a) and math.isfinite(x)):
        return h + p
    if p == 0.0:
        return h
    if not math.isfinite(p):
        return p
    if abs(p) >= 2.0 ** -1017 and abs(h) * 2.0 ** 57 <= abs(p):
        return p
    exact = Fraction(a) * Fraction(x) + Fraction(p)
    try:
        return float(exact)  # +0.0 for an exact cancellation, as in IEEE
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp halves of each entry: the float steps, elementwise."""
    t = _SPLIT * v
    hi = t - (t - v)
    return hi, v - hi


def _in_range(v: np.ndarray) -> np.ndarray:
    """Entries that are 0 or within [1/_BOUND, _BOUND] in magnitude."""
    m = np.abs(v)
    return (m == 0.0) | ((1.0 / _BOUND <= m) & (m <= _BOUND))


def _product_steps(mats: np.ndarray) -> list[list]:
    """Per-step columns of the product (a, b; c, d)(x, y): whether the
    float path may take the step, a and its halves, b, c and its halves,
    d."""
    a, b, c, d = mats.reshape(len(mats), 4).T
    ok = _in_range(mats).all(axis=(1, 2))
    return [col.tolist() for col in (ok, a, *_halves(a), b, c, *_halves(c), d)]


def _solve_steps(mats: np.ndarray) -> list[list]:
    """Per-step columns of LAPACK's LU solve: whether the float path may
    take the step, the row swap, -l and its halves, -b and its halves, and
    the pivots a and u.  The rows swap iff |c| > |a|; then l = c * (1/a)
    and u = d - l*b, as dgetrf factors a pivot above its safe minimum."""
    a, b, c, d = mats.reshape(len(mats), 4).T
    swap = np.abs(c) > np.abs(a)
    a, b, c, d = (np.where(swap, c, a), np.where(swap, d, b),
                  np.where(swap, a, c), np.where(swap, b, d))
    l = c * (1.0 / a)
    u = d - l * b
    ok = _in_range(np.stack((a, b, l, u))).all(axis=0) & (a != 0.0) & (u != 0.0)
    return [col.tolist() for col in (ok, swap, -l, *_halves(-l), -b,
                                     *_halves(-b), a, u)]


def _steps(mats: np.ndarray, inverse: bool) -> list[list]:
    """The step columns of a push through `mats`, the solves with `inverse`
    and the products without; row k of the columns is push step k."""
    with np.errstate(all="ignore"):  # out-of-range steps are only flagged
        return (_solve_steps if inverse else _product_steps)(mats)


def _unit(x: float, y: float) -> tuple[float, float]:
    """(x, y) over sqrt(fma(y, y, x*x)), the `ndarray.dot` norm.  A norm
    that is 0 or not finite raises SplittingNotConverged."""
    s = math.sqrt(_fma(y, y, x * x))
    if not 0.0 < s < math.inf:
        raise SplittingNotConverged(
            f"push row ({x!r}, {y!r}) has norm {s!r}: no direction")
    return x / s, y / s


def _exact_step(step: tuple, x: float, y: float,
                inverse: bool) -> tuple[float, float]:
    """One push step off the float path: every fma of it from `_fma`."""
    if inverse:
        _, swap, nl, _, _, nb, _, _, a, u = step
        if not (a and u):
            raise SplittingNotConverged(
                f"singular push step: LU pivots {a!r} and {u!r}")
        p, q = (y, x) if swap else (x, y)
        Y = _fma(nl, p, q) / u
        return _unit(_fma(nb, Y, p) / a, Y)
    _, a, _, _, b, c, _, _, d = step
    return _unit(_fma(a, x, b * y) + 0.0, _fma(c, x, d * y) + 0.0)


def _push(cols: list[list], row: tuple[float, float], inverse: bool = False,
          out: np.ndarray | None = None,
          full: np.ndarray | None = None) -> tuple[float, float]:
    """Push the unit row `row` through the matrices of the step columns
    `cols` (`_steps`) in order; return the last row.

    Row k+1 is the product of matrix k and row k, or with `inverse` the
    solve, over sqrt(w.dot(w)), by the module docstring's fma formulas on
    Python floats; a step off the float path takes `_exact_step`.  A
    singular step, or a row whose norm is 0 or not finite, raises
    SplittingNotConverged.  `row` is not normalised again, so a push
    resumed from its last row computes what the whole push would.  With
    `out`, the rows computed, `row` first, are written to out[0], out[1],
    ... when the push returns.
    `full` is an earlier push over the same matrices, aligned row for row,
    each row possibly negated: at the first row with no zero entry that
    equals full[k] or its negation the push returns full[-1] or -full[-1]
    (see the module docstring for why that is exact)."""
    x, y = row
    xs, ys = [x], [y]
    lock = None if full is None else np.abs(full[1:, 0]).tolist()
    last = None
    for k, step in enumerate(zip(*cols)):
        if not step[0]:
            x, y = _exact_step(step, x, y, inverse)
        else:
            if inverse:
                _, swap, nl, nlh, nll, nb, nbh, nbl, a, u = step
                p, q = (y, x) if swap else (x, y)
                # Y = fma(-l, p, q) / u
                t = _SPLIT * p
                ph = t - (t - p)
                pl = p - ph
                h = nl * p
                if _LO <= abs(h) <= _HI:
                    e = ((nlh * ph - h) + nlh * pl + nll * ph) + nll * pl
                    Y = h + q if not e else h if not q else fsum((h, e, q))
                else:
                    Y = _fma(nl, p, q)
                Y /= u
                # X = fma(-b, Y, p) / a
                t = _SPLIT * Y
                yh = t - (t - Y)
                yl = Y - yh
                h = nb * Y
                if _LO <= abs(h) <= _HI:
                    e = ((nbh * yh - h) + nbh * yl + nbl * yh) + nbl * yl
                    X = h + p if not e else h if not p else fsum((h, e, p))
                else:
                    X = _fma(nb, Y, p)
                X /= a
            else:
                _, a, ah, al, b, c, ch, cl, d = step
                t = _SPLIT * x
                xh = t - (t - x)
                xl = x - xh
                # X = fma(a, x, b*y)
                h, p = a * x, b * y
                if _LO <= abs(h) <= _HI:
                    e = ((ah * xh - h) + ah * xl + al * xh) + al * xl
                    X = h + p if not e else h if not p else fsum((h, e, p))
                else:
                    X = _fma(a, x, p) + 0.0
                # Y = fma(c, x, d*y)
                h, p = c * x, d * y
                if _LO <= abs(h) <= _HI:
                    e = ((ch * xh - h) + ch * xl + cl * xh) + cl * xl
                    Y = h + p if not e else h if not p else fsum((h, e, p))
                else:
                    Y = _fma(c, x, p) + 0.0
                t = _SPLIT * Y
                yh = t - (t - Y)
                yl = Y - yh
            # the norm sqrt(fma(Y, Y, X*X))
            h = Y * Y
            if _LO <= h <= _HI:
                e = ((yh * yh - h) + 2.0 * yh * yl) + yl * yl
                p = X * X
                s = math.sqrt(h + p if not e else h if not p
                              else fsum((h, e, p)))
                x, y = X / s, Y / s
            else:
                x, y = _unit(X, Y)
        xs.append(x)
        ys.append(y)
        if lock is not None and abs(x) == lock[k] and x and y:
            gx, gy = full[k + 1].tolist()
            if x == gx and y == gy:
                last = full[-1]
                break
            if x == -gx and y == -gy:
                last = -full[-1]
                break
    if out is not None:
        out[:len(xs), 0] = xs
        out[:len(ys), 1] = ys
    return (x, y) if last is None else tuple(last.tolist())


def _angle_between(a, b) -> float:
    return math.asin(min(1.0, abs(a[0] * b[1] - a[1] * b[0])))


# generic seed: avoid axis directions so diagonal fixtures don't get stuck on
# the wrong eigendirection; `_unit` returns it bitwise, so pushes start on it
_SEED = (0.6, 0.8)


class _Field:
    """One field of a splitting, pushed from a segment end and extended on
    demand: the unstable field forward from row 0 through the products of
    `derivs`, the stable field backward from the last row through their
    solves.

    `e` holds the sign-fixed rows pushed so far, rows 0..`end` (unstable) or
    `end`..n-1 (stable), and `factor[j]` = ||derivs[j] e[j]|| for each of
    them below n-1 (the seed row `end` is stored by the first push); their
    other rows are not yet written.  `row` is row `end` as the push left
    it, before its sign fix, and an extension resumes from it.  Each push
    step depends on its row and its matrix alone, so every row keeps the
    bits of the whole push, however it is extended."""

    def __init__(self, derivs: np.ndarray, stable: bool):
        n = len(derivs)
        self.derivs = derivs
        self.stable = stable
        self.e = np.empty((n, 2))
        self.factor = np.empty(n - 1)
        self.row = _SEED
        self.end = n - 1 if stable else 0
        self._skip = 0  # 1 once the seed row is stored, by the first push

    def push_to(self, k: int) -> list[list]:
        """Push from row `end` to row k; return the step columns, row j of
        them the step that leaves the j-th row of the push."""
        D = self.derivs
        mats = D[k:self.end][::-1] if self.stable else D[self.end:k]
        cols = _steps(mats, self.stable)
        out = np.empty((len(mats) + 1, 2))
        self.row = _push(cols, self.row, self.stable, out=out)
        rows = out[self._skip:]  # out[0] is row `end`, stored before
        self._skip = 1
        if self.stable:
            lo, hi, rows = k, k + len(rows), rows[::-1]
        else:
            lo, hi = k + 1 - len(rows), k + 1
        self.e[lo:hi] = _fix_sign(rows)
        top = min(hi, len(self.factor))
        self.factor[lo:top] = _one_step_norms(D[lo:top], self.e[lo:top])
        self.end = k
        return cols

    def reach(self, k: int) -> None:
        """Push to row k if the field does not hold it yet."""
        if k < self.end if self.stable else k > self.end:
            self.push_to(k)


def oseledets_splitting(seg: OrbitSegment) -> Splitting:
    """Stable/unstable directions by push-forward from the segment ends.

    The unstable direction at index i is the forward push of a generic seed
    from the past end; the stable direction is the same push of the inverse
    cocycle in reversed time, from the future end.  Convergence is measured
    by the angle change at the base point when each push window is halved;
    above `CONVERGENCE_TOL` the splitting is rejected.

    Each push runs here from its end to `_FIRST_CHUNK` rows past the base
    point, which covers the check and the frames of a gamma window.  The
    halved pushes run over the tails of those pushes and reuse their step
    columns.  The returned splitting pushes on to exactly the rows that its
    readers read.  First, a derivative that a push or the exponents read
    (all rows but the last) with a non-finite entry or a determinant of 0
    raises SplittingNotConverged naming its segment row.

    `MIN_WINDOW` is only a burn-in floor: sides at or above it can still be
    rejected, because the halving check alone decides convergence.  The
    halved-window angle decays like exp(-gap * side / 2) for an exponent gap
    `gap`, so the sides needed grow like 2 log(1/CONVERGENCE_TOL) / gap.  On
    the default linear fixture (gap 2, tol 1e-6) 5-step sides leave an angle
    of ~1.4e-2 and 15 is the first side length that converges.
    """
    if seg.n_minus < MIN_WINDOW or seg.n_plus < MIN_WINDOW:
        raise ValueError(
            f"segment sides ({seg.n_minus}, {seg.n_plus}) below burn-in {MIN_WINDOW}")
    base = seg.n_minus
    D = seg.derivs
    M = D[:-1]
    with np.errstate(all="ignore"):
        det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    bad = np.flatnonzero(~np.isfinite(M).all(axis=(1, 2)) | (det == 0.0))
    if len(bad):
        i = int(bad[0])
        raise SplittingNotConverged(
            f"derivative at segment row {i} (step {i - base}) is singular "
            f"or not finite: {M[i].tolist()}, det {float(det[i])!r}")
    unstable, stable = _Field(D, False), _Field(D, True)
    # each halved window ends at the base point
    lo = base - seg.n_minus // 2
    cols = unstable.push_to(min(base + _FIRST_CHUNK, len(seg) - 1))
    u_half = _push([c[lo:base] for c in cols], _SEED,
                   full=unstable.e[lo:base + 1])
    hi = base + seg.n_plus - seg.n_plus // 2
    # step j of the stable push solves through D[n-2-j], so the halved
    # window D[base:hi] is its steps n-1-hi .. n-2-base
    top = len(seg) - 1 - base
    cols = stable.push_to(max(base - _FIRST_CHUNK, 0))
    s_half = _push([c[top - (hi - base):top] for c in cols], _SEED,
                   inverse=True, full=stable.e[base:hi + 1][::-1])
    ang_u = _angle_between(unstable.e[base], u_half)
    ang_s = _angle_between(stable.e[base], s_half)
    if ang_u > CONVERGENCE_TOL or ang_s > CONVERGENCE_TOL:
        raise SplittingNotConverged(
            f"angle change under window halving: unstable {ang_u:.3e}, "
            f"stable {ang_s:.3e} (tol {CONVERGENCE_TOL:.1e})")
    sep = _angle_between(stable.e[base], unstable.e[base])
    if sep < DEGENERATE_SIN:
        raise SplittingNotConverged(
            f"stable and unstable directions collapse (angle {sep:.3e})")
    return Splitting(stable, unstable, ang_s, ang_u)


def _one_step_norms(derivs: np.ndarray, e: np.ndarray) -> np.ndarray:
    """||D_j e_j|| for each row j, elementwise: no BLAS call.  Row j of w
    is (x, y) = (a e0 + b e1, c e0 + d e1), each product and sum rounded
    once, and the norm is sqrt(x*x + y*y)."""
    p = derivs * e[:, None, :]
    w = p[:, :, 0] + p[:, :, 1]
    w *= w
    return np.sqrt(w[:, 0] + w[:, 1])


# ------------------------------------------------------------------ exponents
def lyapunov_exponents(seg: OrbitSegment, splitting: Splitting
                       ) -> LyapunovEstimate:
    """Finite-window exponents: Birkhoff means along the splitting, checked
    against the QR cocycle.  The confidence radius is the larger of the
    QR/Birkhoff discrepancy and the spread of LYAPUNOV_BLOCKS block means.

    `qr_lambda1`/`qr_lambda2` are the means of log|R_11| and log|R_22| of
    the QR iteration D_i Q_(i-1) = Q_i R_i started at Q_0 = I, computed
    without a QR: in 2x2, |R_11| is the growth g_i of the first column of
    Q pushed by D_i, and |R_11 R_22| = |det D_i|.  So one unit vector
    starting at e_1 is pushed on Python floats, and log|R_22| is
    log|det D_i| - log g_i.  Unlike the Birkhoff means this push is not
    trimmed, which keeps the cross-check independent."""
    n = len(seg) - 1
    D = seg.derivs[:n]
    growth = []
    x, y = 1.0, 0.0
    for a, b, c, d in D.reshape(n, 4).tolist():
        x, y = a * x + b * y, c * x + d * y
        g = math.sqrt(x * x + y * y)
        x, y = x / g, y / g
        growth.append(g)
    log_g = np.log(growth)
    log_det = np.log(np.abs(D[:, 0, 0] * D[:, 1, 1] - D[:, 0, 1] * D[:, 1, 0]))
    logs = np.column_stack([log_g, log_det - log_g])
    qr_means = np.sort(logs.mean(axis=0))
    qr_l1, qr_l2 = float(qr_means[0]), float(qr_means[1])

    block_means = np.array([
        b.mean(axis=0) for b in np.array_split(logs, min(LYAPUNOV_BLOCKS, n)) if len(b)])
    spread = float(np.max(block_means.std(axis=0))) if len(block_means) > 1 else 0.0

    # trim the seed-contaminated indices near each end: e_u is unreliable
    # close to the past end, e_s close to the future end
    trim = min(max(4, n // 10), max((n - 2) // 2, 0))
    sl = slice(trim, n - trim)
    stable, unstable = splitting._fields(trim, n - 1 - trim)
    l1 = float(np.mean(np.log(stable.factor[sl])))
    l2 = float(np.mean(np.log(unstable.factor[sl])))
    radius = max(spread, abs(l1 - qr_l1), abs(l2 - qr_l2))
    return LyapunovEstimate(l1, l2, qr_l1, qr_l2, radius)


# --------------------------------------------------------------- s, u series
# terms in the first block of a series pass (a stadium series stops after
# 30 in the median); each later block doubles, and no block's arrays hold
# more than _SERIES_ENTRIES entries
_SERIES_BLOCK = 64
_SERIES_ENTRIES = 1 << 16


def _weight(n: int, chi: float) -> float:
    """e^(2n chi) from scalar `math`; inf past its range."""
    try:
        return math.exp(2.0 * n * chi)
    except OverflowError:
        return math.inf


def _series_sums(stable: _Field, unstable: _Field, chi: float, lo: int,
                 hi: int) -> list:
    """The truncated s and u series of rows lo..hi in one numpy pass: the s
    sum of each row, then the u sum of each.

    The series at row i sums e^(2n chi) c_n^2 for n >= 0, where c_0 = 1
    and c_n = c_(n-1) g_n: g_n = factor_s[i+n-1] for s, 1/factor_u[i-n] for
    u (df maps the unstable field to itself up to sign, so that is
    ||df^-1 e_u|| at row i-n+1).  Each row keeps the bits of the scalar
    loop over its terms, which the tests keep as the reference: c_n by
    `np.multiply.accumulate`, the term as e * c_n * c_n with e = `_weight`,
    the partial sums by `np.add.accumulate` from 1.0.  A row's entry is its
    partial sum at the first n where the segment has no factor left, the
    term is below SERIES_TERM_CUTOFF of it or n reaches SERIES_MAX_TERMS,
    read at call time; or a SeriesDiverging, not raised, at the first n
    where it is not <= SERIES_SUM_CAP: growth, a weight past `math.exp`'s
    range (inf), a zero factor_u (1/0 = inf) or a NaN.  Rows still running
    after a block of terms go on from their n, c_n and partial sum in a
    block twice as long, and no block holds more than `_SERIES_ENTRIES`
    entries; the blocks move no bit."""
    fs, fu = stable.factor, unstable.factor
    pts = np.arange(lo, hi + 1)
    sums = np.empty(2 * len(pts), dtype=object)  # a float or the error
    slot = np.arange(len(sums))  # the entry of each running row
    pos = np.concatenate((pts, pts - 1))  # its next factor, up for s, down for u
    left = np.concatenate((len(fs) - pts, pts))  # its factors not yet read
    c, p = np.ones(len(sums)), np.ones(len(sums))
    ns = len(pts)  # the running s rows come first
    cap = max(SERIES_MAX_TERMS, 1)  # the loop stops after this term at most
    n0, size = 0, _SERIES_BLOCK
    with np.errstate(all="ignore"):  # Python floats warn of nothing
        while True:
            size = max(min(size, cap - n0, int(left.max()),
                           _SERIES_ENTRIES // len(slot)), 1)
            w = np.array([_weight(n, chi)
                          for n in range(n0 + 1, n0 + size + 1)])
            # column j holds row j's terms, under its carried c and partial
            ar = np.arange(size)[:, None]
            g = np.empty((size + 1, len(slot)))
            g[0] = c
            g[1:, :ns] = fs.take(pos[:ns] + ar, mode="clip")
            np.divide(1.0, fu.take(pos[ns:] - ar, mode="clip"),
                      out=g[1:, ns:])
            cs = np.multiply.accumulate(g, axis=0)
            t = np.empty_like(g)
            t[0] = p
            np.multiply(w[:, None] * cs[1:], cs[1:], out=t[1:])
            ps = np.add.accumulate(t, axis=0)
            stop = (~(ps[1:] <= SERIES_SUM_CAP)
                    | (t[1:] < SERIES_TERM_CUTOFF * ps[1:]))
            if n0 + size == cap:
                stop[-1] = True
            # a row stops at its first stop before its factors run out,
            # returns the partial sum where they run out, or runs on
            first = stop.argmax(axis=0)
            rows = np.arange(len(slot))
            hit = stop[first, rows] & (first < left)
            val = np.where(hit, ps[first + 1, rows],
                           ps[np.minimum(left, size), rows])
            go = ~hit & (left > size)
            sums[slot[~go]] = val[~go]
            for j in np.flatnonzero(hit & ~(val <= SERIES_SUM_CAP)).tolist():
                sums[slot[j]] = SeriesDiverging(
                    f"partial sum {val[j]:.3e} exceeds cap "
                    f"{SERIES_SUM_CAP:.1e} after {n0 + first[j] + 1} "
                    f"terms (chi={chi} too large here)")
            if not go.any():
                break
            pos[:ns] += size
            pos[ns:] -= size
            ns = int(go[:ns].sum())
            slot, pos, left = slot[go], pos[go], left[go] - size
            c, p = cs[size, go], ps[size, go]
            n0 += size
            size *= 2
    return sums.tolist()


def _params(ssum, usum) -> tuple[float, float]:
    """s = sqrt(2 ssum) and u = sqrt(2 usum); raises the exception that a
    series entry holds instead of its sum, s first."""
    for v in (ssum, usum):
        if isinstance(v, Exception):
            raise v
    return math.sqrt(2.0 * ssum), math.sqrt(2.0 * usum)


def s_u_parameters(seg: OrbitSegment, splitting: Splitting, chi: float,
                   at: int) -> SUParams:
    """Truncated series parameters at relative step `at`:
    s^2 = 2 sum e^(2n chi) ||df^n e_s||^2 (forward),
    u^2 = 2 sum e^(2n chi) ||df^-n e_u||^2 (backward).

    The n-step norms are products of the splitting's one-step factors; the
    backward unstable norm uses ||df^-1 e_u(x_j)|| = 1/factor_u[j-1] (df maps
    the unstable field to itself up to sign).  A one-point window of the
    series pass that `frames_along` makes.
    """
    if not chi > 0:
        raise ValueError(f"chi must be positive, got chi={chi!r}")
    i = seg.index(at)
    sums = _series_sums(*splitting._fields(i, i), chi, i, i)
    return SUParams(*_params(*sums))


# -------------------------------------------------------------------- frames
def build_frame(e_s: np.ndarray, e_u: np.ndarray, s_param: float,
                u_param: float, chi: float) -> HyperbolicFrame:
    """Assemble C with columns e_s/s and e_u/u and check the frame identities.

    A direction, s or u that is not finite raises ValueError naming it.  The
    closed form ||C^-1||_F = sqrt(s^2+u^2)/|sin alpha| (`c_inv_frob`) is
    checked against the 2x2 inverse written out: for C = [[p, q], [r, t]],
    ||C^-1||_F = sqrt(p^2+q^2+r^2+t^2)/|pt - qr|.  A gap above 1e-10 of the
    direct value, or ||C||_F above 1, raises BoundViolated with the measured
    and allowed values, as does a det C = pt - qr that rounds to 0 (an
    infinite gap).  alpha keeps numpy's `np.dot`, because it reaches
    `c_inv_frob` and the outputs; an alpha that rounds to 0, below an angle
    of about 1.5e-8, raises DegenerateAngle, as a |sin alpha| below
    DEGENERATE_SIN does.

    The frame is assembled on Python floats with the bits of the numpy
    assembly: C's entries are the divides of `e_s / s` and `e_u / u`, and
    ||C||_F = sqrt(((p^2 + q^2) + r^2) + t^2) is the sum that
    `np.sum(C * C)` takes over four entries."""
    e_s = np.asarray(e_s, dtype=float)
    e_u = np.asarray(e_u, dtype=float)
    (a, b), (c, d) = e_s.tolist(), e_u.tolist()
    for name, x, y in (("e_s", a, b), ("e_u", c, d)):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(
                f"frame direction {name} must be finite, got ({x!r}, {y!r})")
        if abs(math.hypot(x, y) - 1.0) > 1e-9:
            raise ValueError("frame directions must be unit vectors")
    for name, v in (("s_param", s_param), ("u_param", u_param)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    if not (s_param >= math.sqrt(2.0) - 1e-12 and u_param >= math.sqrt(2.0) - 1e-12):
        raise ValueError("s and u parameters must be >= sqrt(2)")
    cross = a * d - b * c
    if abs(cross) < DEGENERATE_SIN:
        raise DegenerateAngle(f"|sin alpha| = {abs(cross):.3e}")
    alpha = math.acos(max(-1.0, min(1.0, float(np.dot(e_s, e_u)))))
    if alpha == 0.0:  # sin alpha = 0 would divide ||C^-1||_F by zero
        raise DegenerateAngle(
            f"alpha = acos(e_s . e_u) rounds to 0 at |sin alpha| = "
            f"{abs(cross):.3e}")
    s, u = float(s_param), float(u_param)
    p, q, r, t = a / s, c / u, b / s, d / u
    # closed-form ||C^-1||_F must match the inverse's own (consistency check)
    norm = math.sqrt(p * p + q * q + r * r + t * t)
    det = p * t - q * r
    closed = math.hypot(s, u) / abs(math.sin(alpha))  # c_inv_frob
    if not det:  # the direct norm is infinite
        raise BoundViolated("||C^-1||_F closed form minus direct", math.inf,
                            1e-10 * max(1.0, closed))
    direct = norm / abs(det)
    gap, allowed = abs(direct - closed), 1e-10 * max(1.0, direct)
    if not gap <= allowed:
        raise BoundViolated("||C^-1||_F closed form minus direct", gap,
                            allowed)
    if not norm <= 1.0 + 1e-12:
        raise BoundViolated("||C||_F - 1", norm - 1.0, 1e-12)
    return HyperbolicFrame(e_s, e_u, alpha, s, u, np.array(((p, q), (r, t))),
                           float(chi))


def frame_at(seg: OrbitSegment, splitting: Splitting, chi: float,
             at: int) -> HyperbolicFrame:
    """The frame at relative step `at`: a one-point window of
    `frames_along`."""
    return frames_along(seg, splitting, chi, at, at)[0]


def frames_along(seg: OrbitSegment, splitting: Splitting, chi: float,
                 lo: int, hi: int) -> list[HyperbolicFrame]:
    """Frames at relative steps lo..hi inclusive.

    A step outside the segment raises IndexError before any work.  The
    fields are pushed over the window once, the s and u series of all its
    points are summed in one pass (`_series_sums`), and each frame is
    assembled on Python floats (`build_frame`).  Every frame has the bits,
    and every error the class, the message and the point, of building the
    frames one step at a time in order: at each step the s series, the u
    series, then `build_frame`."""
    if hi < lo:
        return []
    if not chi > 0:
        raise ValueError(f"chi must be positive, got chi={chi!r}")
    first, last = seg.index(lo), seg.index(hi)
    stable, unstable = splitting._fields(first, last)
    sums = _series_sums(stable, unstable, chi, first, last)
    n = last + 1 - first
    rows = zip(stable.e[first:last + 1], unstable.e[first:last + 1],
               sums[:n], sums[n:])
    return [build_frame(e_s, e_u, *_params(ssum, usum), chi)
            for e_s, e_u, ssum, usum in rows]


def reduced_cocycle(D: np.ndarray, chi: float) -> None:
    """Check the reduced cocycle D = C(fx)^-1 df C(x) of frames at level chi:
    it must be diagonal with |A| < e^-chi < e^chi < |B|."""
    scale = float(np.max(np.abs(D)))
    off = max(abs(D[0, 1]), abs(D[1, 0]))
    if off > OFFDIAG_REL_TOL * scale:
        raise NotDiagonal(
            f"off-diagonal mass {off:.3e} vs scale {scale:.3e} "
            f"(frames not from one splitting?)")
    A, B = float(D[0, 0]), float(D[1, 1])
    if not (abs(A) < math.exp(-chi) and abs(B) > math.exp(chi)):
        raise NotHyperbolic(
            f"diagonal ({A:.6f}, {B:.6f}) fails |A| < e^-chi < e^chi < |B| "
            f"for chi={chi}")


# ------------------------------------------------------------------- checks
def c_inverse_growth_check(seg: OrbitSegment, frames: list[HyperbolicFrame],
                           lo: int, a: float) -> dict:
    """Backward growth control of ||C^-1|| by powers of rho.

    frames[k] must be the frame at relative step lo+k.  At every consecutive
    pair, with x the later point: ||C(f^-1 x)^-1|| <= 2 rho(x)^(-2a) *
    (1 + e^chi rho(x)^(-a)) * ||C(x)^-1||.  Log-space margins; raises on
    one that is not >= 0, a NaN included.
    """
    worst = (math.inf, None)
    for k in range(1, len(frames)):
        rho_x = seg.rho(lo + k)
        if rho_x <= 0:
            raise InequalityViolated("rho = 0 at an interior point", lo + k)
        chi = frames[k].chi
        lhs = math.log(frames[k - 1].c_inv_frob)
        rhs = (math.log(2.0) - 2.0 * a * math.log(rho_x)
               + math.log1p(math.exp(chi) * rho_x ** (-a))
               + math.log(frames[k].c_inv_frob))
        margin = rhs - lhs
        if margin < worst[0]:
            worst = (margin, lo + k)
        if not margin >= 0:
            raise InequalityViolated(
                f"||C^-1|| backward growth bound fails at step {lo + k}: "
                f"log-margin {margin:.3e}", lo + k)
    return {"min_margin": worst[0], "at": worst[1], "checked": len(frames) - 1}


def nuh_diagnostics(seg: OrbitSegment, frames: list[HyperbolicFrame],
                    lo: int, q_s: np.ndarray | None = None,
                    q_u: np.ndarray | None = None) -> dict:
    """Finite-window membership proxies for the hyperbolic regular set.

    Reports (no bounds): the large-|n| slope of |log rho|, the best return
    distance of C to its base value (forward and backward), the slope of
    |log ||C^-1|| |, and — when the caller supplies chart-size sequences —
    the running max of q_s forward / q_u backward.
    """
    base_k = -lo
    if not (0 <= base_k < len(frames)):
        raise ValueError("frames must cover the base point (lo <= 0 <= hi)")
    ns = np.arange(lo, lo + len(frames))
    far = np.abs(ns) >= max(2, len(frames) // 4)
    if not far.any():
        raise ValueError(
            f"window [{ns[0]}, {ns[-1]}] has no far step: the slopes need a "
            f"step with |n| >= 2")

    rho_at = np.array([seg.rho(int(n)) for n in ns])
    with np.errstate(divide="ignore"):
        log_rho = np.log(rho_at)
    reg_slope = float(np.max(np.abs(log_rho[far]) / np.abs(ns[far])))

    c_inv = np.array([f.c_inv_frob for f in frames])
    c_slope = float(np.max(np.abs(np.log(c_inv[far])) / np.abs(ns[far])))

    dC = np.array([f.distance(frames[base_k]) for f in frames])
    fwd = dC[base_k + 1:]
    bwd = dC[:base_k]
    report = {
        "reg_slope": reg_slope,
        "c_inv_slope": c_slope,
        "best_return_forward": float(fwd.min()) if fwd.size else math.inf,
        "best_return_backward": float(bwd.min()) if bwd.size else math.inf,
        "window": (int(ns[0]), int(ns[-1])),
    }
    if q_s is not None:
        report["q_s_running_max"] = float(np.max(q_s))
        report["q_s_final_running_max"] = float(np.max(q_s[len(q_s) // 2:]))
    if q_u is not None:
        report["q_u_running_max"] = float(np.max(q_u))
        report["q_u_final_running_max"] = float(np.max(q_u[len(q_u) // 2:]))
    return report
