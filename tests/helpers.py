"""Pipeline constants and fixtures that several test modules share.

`CONSTS`, `CFG` and `CHI` are the regularity constants, the epsilon
configuration and the chi level of the fixture tests, `STADIUM_CHI` the chi
of the stadium windows; a stadium window counts as tame when every frame's
||C^-1||_F is below `TAME_C_INV` and every rho above `TAME_RHO`, the filter
of the stadium-code benchmark.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from pesin_coder.cocycle import (
    HyperbolicFrame,
    build_frame,
    orbit_segment,
    oseledets_splitting,
)
from pesin_coder.coding import gammas_from_segment
from pesin_coder.dynamics import RegularityConstants
from pesin_coder.errors import (
    OrbitHitsDiscontinuity,
    SeriesDiverging,
    SplittingNotConverged,
)
from pesin_coder.lattice import EpsilonConfig
from pesin_coder.tables import make_stadium

CONSTS = RegularityConstants(a=1.5, beta=0.5, K=100.0)
CFG = EpsilonConfig(0.01)
CHI = 0.5
STADIUM_CHI = 0.472
TAME_C_INV = 3.5
TAME_RHO = 1e-3


def minimal_frame(chi: float = CHI) -> HyperbolicFrame:
    """Orthogonal axes with the smallest admissible stretch parameters."""
    return build_frame(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                       math.sqrt(2.0), math.sqrt(2.0), chi)


@functools.cache
def tame_stadium_window():
    """(table, segment, splitting, gammas) of the first seed-11 stadium
    sample whose -6..6 gamma window on a +-60 segment is tame; searched once
    per test session."""
    st = make_stadium()
    for p in st.liouville_sample(np.random.default_rng(11), 200):
        try:
            seg = orbit_segment(st, p, 60, 60)
            sp = oseledets_splitting(seg)
            gam = gammas_from_segment(seg, sp, STADIUM_CHI, CFG, CONSTS,
                                      -6, 6)
        except (OrbitHitsDiscontinuity, SplittingNotConverged,
                SeriesDiverging, ValueError):
            continue
        if max(g.frame.c_inv_frob for g in gam) < TAME_C_INV and \
                min(g.rho for g in gam) > TAME_RHO:
            return st, seg, sp, gam
    raise RuntimeError("no tame stadium window found")
