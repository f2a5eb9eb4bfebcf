"""Golden-trajectory test: a speed change to the solver must not change its search.

A fixed query script runs through the public justification APIs on three
designs.  For each design the test asserts the exact cumulative
``SolverStats``, a SHA-256 of the SAT/UNSAT verdict sequence and a SHA-256
of every returned model.  Any change to a decision, propagation, conflict,
learned clause, heap tie-break, watch order or saved phase moves at least
one of them.  This is the tier-1 form of the benchmark's pinned work counts
(``perfbench/expected.json``).

The script draws its rare nets from ``extract_rare_nets`` with fixed seeds,
so a change to rare-net extraction or to the circuit generators also moves
the constants.  Only a change that is meant to alter the search may update
them.  To print the values at the current commit, run::

    python tests/test_solver_golden.py
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations

import pytest

from repro.circuits import generators
from repro.circuits.library import load_benchmark
from repro.circuits.netlist import Netlist
from repro.sat.justify import Justifier, greedy_maximal_subset
from repro.sat.solver import CdclSolver
from repro.sat.temporal import SequentialJustifier
from repro.simulation.rare_nets import extract_rare_nets
from repro.trojan.model import SequentialTrigger, TriggerCondition

GOLDEN = {
    "mult8": {
        "stats": {
            "conflicts": 762, "decisions": 5029, "propagations": 200400, "restarts": 2,
            "learned_clauses": 762, "deleted_clauses": 0, "max_trail": 356,
        },
        "queries": 473,
        "sat": 410,
        "verdicts": "c58761160a8aa638bb4c8d3292171a5cca12639fd2873b960de7d9b7f860bce2",
        "models": "83398f4219599e9e9c8e448c39a2e2c0219f2fcea85c6613eab1423b14cd1a38",
    },
    "c5315_like": {
        "stats": {
            "conflicts": 31, "decisions": 2658, "propagations": 92345, "restarts": 0,
            "learned_clauses": 31, "deleted_clauses": 0, "max_trail": 440,
        },
        "queries": 310,
        "sat": 160,
        "verdicts": "188ceb8bc35cba48c0114b6056cd2fc6501e4a884cd55abed698022c303cb186",
        "models": "6a5b757d092bdecdf9b92e6c12f96be242f29bc9f9c154264aec7b79cea5b524",
    },
    "s15850_like-c8-consecutive-k2": {
        "stats": {
            "conflicts": 452, "decisions": 10159, "propagations": 319790, "restarts": 0,
            "learned_clauses": 452, "deleted_clauses": 0, "max_trail": 5125,
        },
        "queries": 170,
        "sat": 70,
        "verdicts": "72d6ce6282b1c83a5ee05a9e3d44344c21372cfed00c6c1f03ce6fa6931f14ad",
        "models": "eecd89cb494310f66d02c29f01ac8a20ee4aa8717e9fa3e3d59fb5cdd984eaf7",
    },
}


class Tape:
    """Records every answer one solver returns: verdicts in order, models hashed."""

    def __init__(self, solver: CdclSolver) -> None:
        self.verdicts: list[bool] = []
        self._models = hashlib.sha256()
        solve = solver.solve

        def recorded(assumptions=None):
            result = solve(assumptions)
            self.verdicts.append(result.satisfiable)
            if result.model is not None:
                model = result.model
                self._models.update(bytes(model[v] for v in range(1, len(model) + 1)))
            return result

        solver.solve = recorded

    def summary(self, stats) -> dict:
        verdicts = "".join("1" if verdict else "0" for verdict in self.verdicts)
        return {
            "stats": stats.as_dict(),
            "queries": len(self.verdicts),
            "sat": sum(self.verdicts),
            "verdicts": hashlib.sha256(verdicts.encode()).hexdigest(),
            "models": self._models.hexdigest(),
        }


def combinational_script(netlist: Netlist, num_rare: int, pair_stride: int) -> dict:
    """Pairwise ``are_compatible``, a greedy accumulated set, then witnesses."""
    rare = extract_rare_nets(netlist, threshold=0.1, num_patterns=1024, seed=0)[:num_rare]
    justifier = Justifier(netlist)
    tape = Tape(justifier._solver)
    requirements = [{r.net: r.rare_value} for r in rare]
    for a, b in list(combinations(range(len(requirements)), 2))[::pair_stride]:
        justifier.are_compatible(requirements[a], requirements[b])
    justifier.set_preferred_values({r.net: r.rare_value for r in rare})
    greedy_maximal_subset(
        range(len(requirements)),
        lambda kept: justifier.is_satisfiable(
            {net: value for i in kept for net, value in requirements[i].items()}
        ),
    )
    for start in range(0, len(requirements), 4):
        group = {net: value for r in requirements[start:start + 4] for net, value in r.items()}
        justifier.witness(group)
    return tape.summary(justifier.stats())


def temporal_script() -> dict:
    """One ``sequential_detect`` cell: activatability, pair checks, witnesses."""
    netlist = load_benchmark("s15850_like", combinational_view=False)
    rare = extract_rare_nets(netlist, threshold=0.1, num_patterns=512, seed=0, cycles=8)
    justifier = SequentialJustifier(netlist, 8)
    tape = Tape(justifier.expansion._solver)

    def trigger(indices) -> SequentialTrigger:
        condition = TriggerCondition(tuple((rare[i].net, rare[i].rare_value) for i in indices))
        return SequentialTrigger(condition=condition, mode="consecutive", count=2)

    viable = [i for i in range(len(rare)) if justifier.is_satisfiable(trigger([i]))]
    justifier.set_preferred_values({r.net: r.rare_value for r in rare})
    for a, b in list(combinations(viable, 2))[::2]:
        justifier.is_satisfiable(trigger([a, b]))
    for i in viable[::2]:
        justifier.witness(trigger([i]))
    return tape.summary(justifier.stats())


SCRIPTS = {
    "mult8": lambda: combinational_script(
        generators.multiplier_circuit("mult8", width=8), num_rare=30, pair_stride=1
    ),
    "c5315_like": lambda: combinational_script(
        load_benchmark("c5315_like"), num_rare=40, pair_stride=3
    ),
    "s15850_like-c8-consecutive-k2": temporal_script,
}


@pytest.mark.parametrize("design", sorted(SCRIPTS))
def test_solver_trajectory_is_pinned(design):
    assert SCRIPTS[design]() == GOLDEN[design]


if __name__ == "__main__":
    print(json.dumps({design: script() for design, script in SCRIPTS.items()}, indent=2))
