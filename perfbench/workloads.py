"""The benchmark's three seeded workloads and their output record.

Each workload is a set-up step (``build``: the table, plus the cold
singularity cloud where the workload needs rho) and a fixed amount of work
(``run``) drawn from the seed and sized from the requested seconds.  One
caller runs everything in a closed loop: each step waits for the last.

``run`` fills a ``Record``: per-sample and per-operation spans, timed with
the record's host-speed ``Clock`` (a probe runs before every unit), the
funnel of how many inputs survived each stage, every rejection keyed by
exception class, and the outputs that the digest and the output checks
cover.
"""
from __future__ import annotations

import hashlib
import json
import math
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from pesin_coder.cocycle import lyapunov_exponents, orbit_segment, oseledets_splitting
from pesin_coder.coding import (coarse_grain, gammas_from_segment, inverse_diagnostics,
                                load_alphabet, project_pi, save_alphabet,
                                sufficiency_itinerary)
from pesin_coder.dynamics import RegularityConstants, singularity_cloud
from pesin_coder.errors import PesinCoderError
from pesin_coder.lattice import EpsilonConfig
from pesin_coder.tables import PhasePoint, make_flower, make_linear_fixture, make_stadium

from hostclock import Clock

# pipeline constants shared with the test suite
CONSTS = RegularityConstants(a=1.5, beta=0.5, K=100.0)
CFG = EpsilonConfig(0.01)
STADIUM_CHI = 0.472
FIXTURE_CHI = 0.5

# tameness filter of the test suite's stadium window search
TAME_MAX_C_INV = 3.5
TAME_MIN_RHO = 1e-3

STADIUM_SIDE = 60            # orbit_segment(+-60) per Liouville sample
STADIUM_WINDOW = (-6, 6)     # gamma window, anchor at its middle
STADIUM_SAMPLES_PER_S = 7.0
# A fixed panel of phase points whose windows were tame (found in Liouville
# samples of seeds 100-109), run through the front end before the seeded
# samples.  The alphabet is built from the panel's windows, and they are
# the ones coded.  Seeded tame windows, about 1 in 80 samples, are counted
# only: coding them, or adding them to the alphabet (which makes every
# coding attempt slower), would make the run follow their Poisson count.
# The panel shows the real failure mix on every run: one window shadows,
# the others raise ShadowEscape, GraphFolded, NotConverged, NoIntersection
# and a raw scipy ValueError.
STADIUM_PANEL = (
    (1, "0x1.74d22688b2b2ep+0", "-0x1.e9ff9d5a23bb2p-4"),
    (2, "0x1.4b6c8741db5ccp+0", "-0x1.726510235fb29p-1"),
    (1, "0x1.8e3192ddeaf69p-2", "0x1.f2269886de90bp-2"),
    (0, "0x1.e970dea3fb266p-1", "0x1.05d469b4e0f0fp-1"),
    (1, "0x1.349926b8c7044p+1", "-0x1.ff8d9091c5c7fp-2"),
    (3, "0x1.26cdda8833fabp+1", "-0x1.1e727003a99adp-1"),
)

FIXTURE_SIDE = 390           # +-390 steps keep the whole window representable
FIXTURE_WINDOW = (-4, 4)
FIXTURE_BOX = 1e-170         # |x|, |theta| bound of the seeded orbits
FIXTURE_SEEDED = 3           # coded orbits per round besides the fixed point
FIXTURE_FRONT_ONLY = 10      # orbits per round through the front end only
FIXTURE_ROUNDS_PER_S = 0.4

FLOWER_SIDE = 1000           # orbit_segment(+-1000, with_rho=False)
FLOWER_SAMPLES_PER_S = 7.5

# relative tolerance of the chi estimates against the reference; everything
# else in the digest is compared exactly
APPROX_REL_TOL = 1e-9
SHADOW_TOL = 1e-6

FUNNEL_KEYS = ("samples", "orbits_defined", "splittings_converged", "gammas",
               "tame_windows", "coding_attempts", "coded", "shadowed",
               "chi_estimates")
# rejection classes reported by name; any other class counts under "other"
REJECTION_CLASSES = ("OrbitHitsDiscontinuity", "SplittingNotConverged",
                     "SeriesDiverging", "DomainEscape", "ShadowEscape",
                     "MultipleIntersections", "GraphFolded", "NoIntersection",
                     "NotConverged", "ValueError")


class Record:
    """What one pass of a workload did and produced."""

    def __init__(self):
        self.funnel = Counter({k: 0 for k in FUNNEL_KEYS})
        self.rejected = Counter()
        self.errors: list[dict] = []      # non-library exceptions, with trace
        self.clock = Clock()
        # (start, end) of each front-end sample and each operation
        self.sample_spans: list[tuple[float, float]] = []
        self.op_spans: list[tuple[float, float]] = []
        self.steps = 0                    # orbit points produced
        self.ops = 0                      # pipeline operations attempted
        # coding attempts and chi estimates: attempted, and those that raised
        self.op_attempts = 0
        self.failed_ops = 0
        self.outputs: dict = {}           # compared exactly
        self.approx: dict = {}            # compared within APPROX_REL_TOL
        self.failed_checks: list[str] = []

    def reject(self, stage: str, exc: Exception):
        name = type(exc).__name__
        self.rejected[name] += 1
        if not isinstance(exc, PesinCoderError):
            self.errors.append({
                "stage": stage, "class": name, "message": str(exc),
                "where": traceback.format_tb(exc.__traceback__)[-1].strip()})

    def check(self, name: str, ok: bool):
        if not ok:
            self.failed_checks.append(name)

    def sample_ms(self) -> list[float]:
        return [self.clock.normalised(*s) * 1e3 for s in self.sample_spans]

    def op_ms(self) -> list[float]:
        return [self.clock.normalised(*s) * 1e3 for s in self.op_spans]

    def digest(self) -> str:
        doc = {"funnel": dict(self.funnel), "rejected": dict(self.rejected),
               "outputs": self.outputs}
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def size(seconds: float, per_second: float, minimum: int) -> int:
    return max(minimum, int(round(per_second * seconds)))


def _is_tame(window) -> bool:
    return max(g.frame.c_inv_frob for g in window) < TAME_MAX_C_INV and \
        min(g.rho for g in window) > TAME_MIN_RHO


def front_end(rec: Record, table, p: PhasePoint, side: int, chi: float,
              lo: int, hi: int):
    """One sample: orbit with rho, splitting, gamma window, tameness.
    Returns the tame window or None."""
    t0 = rec.clock.unit_start()
    rec.funnel["samples"] += 1
    rec.ops += 1
    window = None
    try:
        seg = orbit_segment(table, p, side, side)
        rec.funnel["orbits_defined"] += 1
        rec.steps += len(seg)
        sp = oseledets_splitting(seg)
        rec.funnel["splittings_converged"] += 1
        gammas = gammas_from_segment(seg, sp, chi, CFG, CONSTS, lo, hi)
        rec.funnel["gammas"] += 1
        if _is_tame(gammas):
            rec.funnel["tame_windows"] += 1
            window = gammas
    except Exception as exc:  # every rejection is kept, by class
        rec.reject("front_end", exc)
    rec.sample_spans.append((t0, perf_counter()))
    return window


def _point_hex(x: PhasePoint) -> list:
    return [int(x.component), float(x.r).hex(), float(x.theta).hex()]


def code_window(rec: Record, alphabet, window, anchor: int):
    """One coding attempt: itinerary with shadow check, then projection.
    Returns (itinerary, projected point) or (None, None)."""
    t0 = rec.clock.unit_start()
    rec.funnel["coding_attempts"] += 1
    rec.ops += 1
    rec.op_attempts += 1
    try:
        it = sufficiency_itinerary(alphabet, window, anchor=anchor)
        rec.funnel["coded"] += 1
        x, rep = project_pi(it, CONSTS)
        rec.funnel["shadowed"] += 1
    except Exception as exc:  # every failure is kept, by class
        rec.reject("code", exc)
        rec.failed_ops += 1
        rec.outputs.setdefault("codes", []).append(type(exc).__name__)
        rec.op_spans.append((t0, perf_counter()))
        return None, None
    rec.op_spans.append((t0, perf_counter()))
    gap, eq_gap = it.meta["shadow_gap"], rep["equivariance_gap"]
    rec.check("shadow and equivariance gaps within tolerance",
              gap <= SHADOW_TOL and eq_gap <= SHADOW_TOL)
    rec.outputs.setdefault("codes", []).append(
        _point_hex(x) + [float(gap).hex(), float(eq_gap).hex()])
    return it, x


# ------------------------------------------------------------ stadium-code
def build_stadium():
    table = make_stadium()
    singularity_cloud(table)
    return table


def _panel_windows(rec: Record, table) -> list:
    windows = []
    for comp, r, theta in STADIUM_PANEL:
        p = PhasePoint(comp, float.fromhex(r), float.fromhex(theta))
        w = front_end(rec, table, p, STADIUM_SIDE, STADIUM_CHI,
                      *STADIUM_WINDOW)
        if w is not None:
            windows.append(w)
    return windows


def run_stadium(table, seed: int, seconds: float, rec: Record):
    """The panel through the front end and one alphabet over its windows;
    then the seeded Liouville samples through the front end, with the
    panel's windows coded one by one between them."""
    n = size(seconds, STADIUM_SAMPLES_PER_S, 4)
    rng = np.random.default_rng(seed)
    panel = _panel_windows(rec, table)
    rec.check("every panel window is tame", len(panel) == len(STADIUM_PANEL))
    if not panel:
        return
    rec.ops += 1
    rec.clock.probe()
    alphabet = coarse_grain(panel, CFG, CONSTS)
    rec.outputs["alphabet"] = alphabet.stats
    anchor = -STADIUM_WINDOW[0]
    # a coding attempt after every `stride` samples: spread over the run,
    # the attempts meet the host's speed at different moments
    stride = max(1, n // len(panel))
    todo = iter(panel)
    for i, p in enumerate(table.liouville_sample(rng, n)):
        front_end(rec, table, p, STADIUM_SIDE, STADIUM_CHI, *STADIUM_WINDOW)
        if (i + 1) % stride == 0:
            w = next(todo, None)
            if w is not None:
                code_window(rec, alphabet, w, anchor)
    for w in todo:
        code_window(rec, alphabet, w, anchor)
    f = rec.funnel
    rec.check("funnel is monotone",
              f["samples"] >= f["orbits_defined"] >= f["splittings_converged"]
              >= f["gammas"] >= f["tame_windows"] >= f["coding_attempts"]
              >= f["coded"] >= f["shadowed"])


# ------------------------------------------------------------ fixture-code
def build_fixture():
    return make_linear_fixture()


def _fixture_round(rec: Record, table, points, n_coded: int):
    """Front end for one set of orbits, the fixed point first; alphabet,
    coding and diagnostics for the first n_coded.  Returns the alphabet,
    coded windows and codings."""
    windows = [front_end(rec, table, p, FIXTURE_SIDE, FIXTURE_CHI,
                         *FIXTURE_WINDOW) for p in points]
    rec.check("every fixture window is tame",
              all(w is not None for w in windows))
    windows = [w for w in windows[:n_coded] if w is not None]
    rec.ops += 1
    rec.clock.probe()
    alphabet = coarse_grain(windows, CFG, CONSTS)
    rec.outputs.setdefault("alphabets", []).append(alphabet.stats)
    anchor = -FIXTURE_WINDOW[0]
    coded = [code_window(rec, alphabet, w, anchor) for w in windows]
    for (it, x), w in zip(coded, windows):
        rec.check("fixture shadow returns the sampled point bitwise",
                  x is not None and _point_hex(x) == _point_hex(w[anchor].x))
    rec.check("fixed point projects to (0, 0)",
              coded[0][1] is not None and coded[0][1].r == 0.0
              and coded[0][1].theta == 0.0)

    it0 = coded[0][0]
    diags = rec.outputs.setdefault("diagnostics", [])
    for it, _ in coded[1:]:
        if it0 is None or it is None:
            continue
        rec.ops += 1
        rec.clock.probe()
        try:
            rep = inverse_diagnostics(it0, it, CFG, CONSTS)
        except Exception as exc:  # a failed diagnostic is an output
            rec.reject("diagnostics", exc)
            rec.check("diagnostics pass against the fixed point", False)
            diags.append(type(exc).__name__)
            continue
        diags.append([rep["checked"], list(rep["sigma"]),
                      float(rep["slack"]["distance"]).hex()])
    return alphabet, windows, coded


def run_fixture(table, seed: int, seconds: float, rec: Record):
    """Rounds of seeded fixture orbits, each with the fixed point: every
    orbit through the front end, the first few windows coded and projected,
    diagnostics of each against the fixed point.  Rounds spread the
    front-end samples over the run.  Then the last alphabet is saved,
    loaded, and one window recoded from the copy."""
    rounds = size(seconds, FIXTURE_ROUNDS_PER_S, 1)
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        points = [PhasePoint(0, 0.0, 0.0)] + [
            PhasePoint(0, float(a), float(b)) for a, b in
            rng.uniform(-FIXTURE_BOX, FIXTURE_BOX,
                        size=(FIXTURE_SEEDED + FIXTURE_FRONT_ONLY, 2))]
        alphabet, windows, coded = _fixture_round(rec, table, points,
                                                  1 + FIXTURE_SEEDED)

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                     dir=Path(__file__).resolve().parent.parent
                                     ) as tmp:
        first, again = Path(tmp) / "alphabet.json", Path(tmp) / "again.json"
        rec.ops += 2
        rec.clock.probe()
        save_alphabet(alphabet, first)
        loaded = load_alphabet(first)
        save_alphabet(loaded, again)
        saved = first.read_bytes()
        rec.check("save -> load -> save is byte-identical",
                  saved == again.read_bytes())
    rec.outputs["saved_sha256"] = hashlib.sha256(saved).hexdigest()
    _, x = code_window(rec, loaded, windows[-1], -FIXTURE_WINDOW[0])
    rec.check("loaded alphabet recodes to the same point",
              x is not None and coded[-1][1] is not None
              and _point_hex(x) == _point_hex(coded[-1][1]))


# -------------------------------------------------------------- flower-chi
def build_flower():
    return make_flower()


def run_flower(table, seed: int, seconds: float, rec: Record):
    """chi calibration: long orbits without rho, splitting, exponents.
    The chi estimate of a sample is min(-lambda1, lambda2)."""
    n = size(seconds, FLOWER_SAMPLES_PER_S, 4)
    rng = np.random.default_rng(seed)
    chis, lam1, lam2, radii = [], [], [], []
    outcomes = []
    for p in table.liouville_sample(rng, n):
        t0 = rec.clock.unit_start()
        rec.funnel["samples"] += 1
        rec.ops += 1
        rec.op_attempts += 1
        try:
            seg = orbit_segment(table, p, FLOWER_SIDE, FLOWER_SIDE,
                                with_rho=False)
            rec.funnel["orbits_defined"] += 1
            rec.steps += len(seg)
            t1 = perf_counter()
            sp = oseledets_splitting(seg)
            rec.funnel["splittings_converged"] += 1
            est = lyapunov_exponents(seg, sp)
            rec.funnel["chi_estimates"] += 1
            rec.op_spans.append((t1, perf_counter()))
        except Exception as exc:  # every rejection is kept, by class
            rec.reject("chi", exc)
            rec.failed_ops += 1
            outcomes.append(type(exc).__name__)
            rec.sample_spans.append((t0, perf_counter()))
            continue
        rec.sample_spans.append((t0, perf_counter()))
        outcomes.append("ok")
        rec.check("exponents are hyperbolic and nearly opposite",
                  est.lambda1 < 0.0 < est.lambda2 and
                  abs(est.lambda1 + est.lambda2) <= est.radius)
        chis.append(min(-est.lambda1, est.lambda2))
        lam1.append(est.lambda1)
        lam2.append(est.lambda2)
        radii.append(est.radius)
    rec.outputs["outcomes"] = outcomes
    if chis:
        rec.approx = {"chi_median": float(np.median(chis)),
                      "chi_min": min(chis), "chi_max": max(chis),
                      "lambda1_mean": float(np.mean(lam1)),
                      "lambda2_mean": float(np.mean(lam2)),
                      "radius_mean": float(np.mean(radii))}


@dataclass(frozen=True)
class Workload:
    build: Callable
    run: Callable
    setup_reps: int    # set-up is timed this many times; the median counts
    setup_batch: int   # builds per timing, for set-ups of microseconds


WORKLOADS = {
    "stadium-code": Workload(build_stadium, run_stadium, 5, 1),
    "fixture-code": Workload(build_fixture, run_fixture, 25, 10000),
    "flower-chi": Workload(build_flower, run_flower, 25, 10),
}


def approx_match(got: dict, want: dict) -> bool:
    if set(got) != set(want):
        return False
    return all(math.isclose(got[k], want[k], rel_tol=APPROX_REL_TOL,
                            abs_tol=0.0) for k in want)
