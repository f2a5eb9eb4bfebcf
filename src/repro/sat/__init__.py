"""SAT substrate: CNF structures, a CDCL solver, and circuit encodings.

The paper uses the PicoSAT solver (via ``pycosat``) for two tasks: checking
whether a set of rare nets is *compatible* (can simultaneously take their rare
values) and generating an input pattern that witnesses a compatible set.  This
subpackage provides both capabilities on top of a from-scratch CDCL solver,
and extends them across clock cycles: :class:`TimeFrameExpansion` unrolls a
sequential netlist's transition relation k cycles into one incrementally
extendable CNF, and :class:`SequentialJustifier` justifies multi-cycle
(consecutive / cumulative count-k) triggers on it, extracting replay-verified
witness sequences.

The public solver surface is :class:`CdclSolver` configured through a frozen
:class:`SolverConfig` (EVSIDS decay, Luby/geometric restarts, clause-database
reduction) and observed through cumulative :class:`SolverStats` — every
higher-level entry point (:class:`Justifier`, :class:`SequentialJustifier`,
:class:`TimeFrameExpansion`) accepts a ``config`` and exposes ``stats()``.
"""

from repro.sat.cnf import CNF, Literal
from repro.sat.heap import ActivityHeap
from repro.sat.solver import (
    RESTART_POLICIES,
    CdclSolver,
    ClauseTemplate,
    SolverConfig,
    SolverResult,
    SolverStats,
    luby,
    solve_cnf,
)
from repro.sat.encode import CircuitEncoder
from repro.sat.justify import Justifier
from repro.sat.unroll import TimeFrameExpansion
from repro.sat.temporal import (
    SequenceWitness,
    SequentialJustifier,
    replay_fire_cycles,
    temporal_fire_cycles,
)

__all__ = [
    "ActivityHeap",
    "CNF",
    "Literal",
    "RESTART_POLICIES",
    "CdclSolver",
    "ClauseTemplate",
    "SolverConfig",
    "SolverResult",
    "SolverStats",
    "luby",
    "solve_cnf",
    "CircuitEncoder",
    "Justifier",
    "TimeFrameExpansion",
    "SequenceWitness",
    "SequentialJustifier",
    "replay_fire_cycles",
    "temporal_fire_cycles",
]
