"""Tripartite entanglement measures along three-flavor neutrino oscillations.

The package evaluates the oscillation probabilities of a three-flavor
neutrino and four genuine tripartite entanglement measures (GGM, three-pi,
GMC and concurrence fill) of the corresponding three-qubit occupation state,
along the kinematic parameter L/E.  Every measure is computed both from
closed-form probability expressions and from a generic route on the
reductions of the state vector, which must agree.
"""

from .measures import (
    concurrence_fill,
    ggm,
    gmc,
    report,
    three_pi,
)
from .oscillation import (
    OscillationParams,
    amplitudes,
    build_pmns,
)
from .sweep import SweepConfig, find_extremum, run_sweep, triangle_record
from .tristate import TripartiteState, density, make_state

__version__ = "0.1.0"

__all__ = [
    "OscillationParams",
    "SweepConfig",
    "TripartiteState",
    "amplitudes",
    "build_pmns",
    "concurrence_fill",
    "density",
    "find_extremum",
    "ggm",
    "gmc",
    "make_state",
    "report",
    "run_sweep",
    "three_pi",
    "triangle_record",
]
