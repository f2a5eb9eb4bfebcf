"""Golden test for the Trojan samplers: a speed change must not move a sample.

``sample_trojans`` and ``sample_sequential_trojans`` draw candidate triggers
from the rare nets and keep those the SAT check accepts (the paper's §4.1
validity check).  For each sampler the test pins a SHA-256 of every returned
Trojan's ``(requirements, payload_output, name)``, the sampling justifier's
query count and its cumulative ``SolverStats``.  A change to the draw order,
to the assumption order handed to the solver, or to the solver's search moves
at least one of them.

The inputs use the QUICK profile's sizes (40 Trojans, width 4, 2048
rare-net estimation patterns) and its Trojan seed (profile seed + 1).  Only a
change that is meant to alter the sampled population may update the
constants.  To print the values at the current commit, run::

    python tests/test_sampler_golden.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.circuits.library import load_benchmark
from repro.circuits.scan import ensure_combinational
from repro.experiments.common import QUICK
from repro.sat.justify import Justifier
from repro.simulation.rare_nets import RareNet, extract_rare_nets
from repro.trojan.insertion import sample_sequential_trojans, sample_trojans

GOLDEN = {
    "c5315_like": {
        "trojans": 40,
        "digest": "42bec45d8f721a05b793fa1171e8c229e4a5580a0d2ae01df3d6ab0cab97cc9b",
        "queries": 6885,
        "stats": {
            "conflicts": 30, "decisions": 369, "propagations": 785001, "restarts": 0,
            "learned_clauses": 30, "deleted_clauses": 0, "max_trail": 440,
        },
    },
    "s15850_like-consecutive-k2": {
        "trojans": 10,
        "digest": "189001d3c1094ab0e0f2559e3a7d99d9b9052ebc81fc4a81029382c261eedd09",
        "queries": 8000,
        "stats": {
            "conflicts": 31, "decisions": 558, "propagations": 317874, "restarts": 0,
            "learned_clauses": 31, "deleted_clauses": 0, "max_trail": 311,
        },
    },
}


def _digest(trojans, requirements_of) -> str:
    rows = [
        [[list(item) for item in requirements_of(trojan)], trojan.payload_output, trojan.name]
        for trojan in trojans
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def combinational_sample() -> dict:
    netlist = load_benchmark("c5315_like")
    rare = extract_rare_nets(
        netlist, threshold=0.1, num_patterns=QUICK.num_probability_patterns, seed=QUICK.seed
    )
    justifier = Justifier(netlist)
    trojans = sample_trojans(
        netlist, rare, num_trojans=QUICK.num_trojans, trigger_width=QUICK.trigger_width,
        seed=QUICK.seed + 1, justifier=justifier,
    )
    return {
        "trojans": len(trojans),
        "digest": _digest(trojans, lambda trojan: trojan.trigger.requirements),
        "queries": justifier.num_queries,
        "stats": justifier.stats().as_dict(),
    }


def sequential_sample() -> dict:
    netlist = load_benchmark("s15850_like", combinational_view=False)
    rare = extract_rare_nets(
        netlist, threshold=0.1, num_patterns=QUICK.num_probability_patterns,
        seed=QUICK.seed, cycles=8,
    )
    justifier = Justifier(ensure_combinational(netlist))
    trojans = sample_sequential_trojans(
        netlist, rare, num_trojans=QUICK.num_trojans, trigger_width=QUICK.trigger_width,
        mode="consecutive", count=2, seed=QUICK.seed + 1, justifier=justifier,
    )
    return {
        "trojans": len(trojans),
        "digest": _digest(trojans, lambda trojan: trojan.trigger.condition.requirements),
        "queries": justifier.num_queries,
        "stats": justifier.stats().as_dict(),
    }


SCRIPTS = {
    "c5315_like": combinational_sample,
    "s15850_like-consecutive-k2": sequential_sample,
}


@pytest.mark.parametrize("design", sorted(SCRIPTS))
def test_sampled_population_is_pinned(design):
    assert SCRIPTS[design]() == GOLDEN[design]


if __name__ == "__main__":
    print(json.dumps({design: script() for design, script in SCRIPTS.items()}, indent=2))
