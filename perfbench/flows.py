"""The benchmark's workloads, composed from the program's public stage calls.

Each flow calls the same stage functions as the ``table2`` (DETERRENT
column) and ``sequential_detect`` harnesses, in the same order, with the
artifact cache off, and wraps every call in a span of the layer it enters.
The stage names below are the span names; their layer is the text before
the first dot.

A workload's inputs are its designs, their rare-net estimation and their
Trojan population, all drawn with the profile's seed as the harnesses do by
default.  The benchmark seed picks the test generator's seeds: the RL
training seed of the combinational flow and the greedy-set seed of the
temporal one.  Drawing the inputs per seed too swings the measured work by a
third or more from seed to seed (see ``README.md``).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.circuits import generators
from repro.circuits.library import load_benchmark
from repro.circuits.netlist import Netlist
from repro.circuits.scan import ensure_combinational
from repro.core.agent import DeterrentAgent
from repro.core.compatibility import CompatibilityAnalysis, compute_compatibility
from repro.core.patterns import generate_patterns
from repro.core.sequence_gen import generate_sequences
from repro.experiments.common import QUICK, TINY, ExperimentProfile
from repro.experiments.sequential import RARENESS_THRESHOLD
from repro.sat.justify import Justifier
from repro.sat.temporal import SequentialJustifier
from repro.simulation.compiled import compile_netlist, compile_sequential_netlist
from repro.simulation.rare_nets import extract_rare_nets
from repro.trojan.evaluation import (
    sequence_ground_truth_coverage,
    sequence_trigger_coverage,
    sequential_trigger_coverage,
    trigger_coverage,
)
from repro.trojan.insertion import sample_sequential_trojans, sample_trojans

from spans import Recorder, Span, instrument

#: Rareness threshold of the combinational flow (``prepare_benchmark``'s default).
THRESHOLD = 0.1

#: Stage spans whose time makes up ``setup_s``, ``testgen_s`` and ``eval_s``.
SETUP_STAGES = ("circuits.build", "simulation.compile", "sat.encode", "temporal.encode")
TESTGEN_STAGES = ("simulation.rare_nets", "compatibility", "training", "patterns",
                  "temporal.generate")
EVAL_STAGES = ("trojans.sample", "coverage")

#: Matrix entries re-answered by a fresh solver on every checked design.
SPOT_CHECK_PAIRS = 32


@dataclass(frozen=True)
class Design:
    """One design (combinational) or cell (temporal) of a workload."""

    name: str
    build: Callable[[], Netlist]
    cycles: int = 0
    mode: str = ""
    count: int = 0

    @property
    def temporal(self) -> bool:
        return self.cycles > 0


@dataclass
class DesignRun:
    """What one flow over one design produced, measured and checked."""

    design: str
    #: Host seconds from the first test-generation call to the emitted set,
    #: less Trojan sampling; the stage spans inside it leave ``unattributed_s``.
    testgen_host_s: float
    coverage_pct: float
    test_length: int
    counts: dict = field(default_factory=dict)
    digest: str | None = None
    #: The spans of this design run, set-up included.
    spans: list[Span] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: Output checks against the slow oracles, run outside the spans.
    check: Callable[[], list[str]] | None = None


@dataclass(frozen=True)
class Workload:
    profile: ExperimentProfile
    designs: tuple[Design, ...]
    #: Generator seeds per run: each one is a full flow over every design.
    instances: int = 1

    def generator_seeds(self, seed: int) -> list[int]:
        """Disjoint for distinct benchmark seeds; seed 0 starts at the harness default."""
        return [seed * self.instances + index for index in range(self.instances)]


def _library(name: str) -> Design:
    return Design(name, lambda: load_benchmark(name))


def _cell(name: str, cycles: int, mode: str, count: int) -> Design:
    return Design(
        f"{name}-c{cycles}-{mode}-k{count}",
        lambda: load_benchmark(name, combinational_view=False),
        cycles, mode, count,
    )


WORKLOADS = {
    "lib_table2": Workload(QUICK, (_library("c5315_like"), _library("mips16_like"))),
    # TINY's 12 Trojans make coverage swing by 18% from one training seed to
    # the next, and their sampling (0.04 s) is too short to time steadily.
    "mult_compat": Workload(
        replace(TINY, num_trojans=256),
        (Design("mult8", lambda: generators.multiplier_circuit("mult8", width=8)),),
        # Coverage ranges from 51% to 68% over training seeds 0-19; two
        # seeds per run narrow its spread between runs.
        instances=2,
    ),
    "temporal_detect": Workload(
        QUICK,
        (
            _cell("s15850_like", 8, "consecutive", 2),
            _cell("s15850_like", 8, "cumulative", 3),
            _cell("s35932_like", 8, "consecutive", 2),
            _cell("s35932_like", 8, "cumulative", 3),
        ),
        # The greedy sets and witnesses grow with the sequence count, which
        # ranges from 23 to 44 over generator seeds 0-29; three seeds per
        # run narrow the spread of ``testgen_s`` between runs.
        instances=3,
    ),
}


def matrix_digest(analysis: CompatibilityAnalysis) -> str:
    """SHA-256 of the activatable rare nets and the packed compatibility matrix."""
    digest = hashlib.sha256()
    digest.update(json.dumps([[r.net, r.rare_value] for r in analysis.rare_nets]).encode())
    digest.update(np.packbits(analysis.matrix).tobytes())
    return digest.hexdigest()


def setup(recorder: Recorder, design: Design):
    """Build, compile and encode one design: the set-up the flows start from."""
    with recorder.span("circuits.build", "circuits"):
        netlist = design.build()
    if design.temporal:
        with recorder.span("simulation.compile", "simulation"):
            compile_sequential_netlist(netlist)
        with recorder.span("temporal.encode", "temporal"):
            justifier = SequentialJustifier(netlist, design.cycles)
    else:
        with recorder.span("simulation.compile", "simulation"):
            compile_netlist(netlist)
        with recorder.span("sat.encode", "sat"):
            justifier = Justifier(netlist)
    return netlist, justifier


def run_design(
    recorder: Recorder, design: Design, profile: ExperimentProfile, generator_seed: int
) -> DesignRun:
    """Set up one design and run its flow with the test generator seeded by ``generator_seed``."""
    flow = _temporal_flow if design.temporal else _combinational_flow
    mark = recorder.mark()
    netlist, justifier = setup(recorder, design)
    run = flow(recorder, design, profile, generator_seed, netlist, justifier)
    run.spans = recorder.since(mark)
    return run


def stage_seconds(run: DesignRun, stages: tuple[str, ...]) -> float:
    """Time of ``run``'s spans named in ``stages``."""
    return sum(span.duration for span in run.spans if span.name in stages)


def _host_seconds(spans, names) -> float:
    return sum(span.host_s for span in spans if span.name in names)


def _solver_counts(prefix: str, justifier) -> dict:
    stats = justifier.stats()
    return {
        f"{prefix}.decisions": stats.decisions,
        f"{prefix}.propagations": stats.propagations,
        f"{prefix}.conflicts": stats.conflicts,
    }


def _combinational_flow(recorder, design, profile, generator_seed, netlist, justifier) -> DesignRun:
    """table2's DETERRENT column: ``prepare_benchmark`` then ``_technique_outcomes``."""
    if recorder.traced:
        instrument(recorder, justifier, ("is_satisfiable", "witness"))
    mark = recorder.mark()
    counts: dict = {}
    start = time.perf_counter()
    with recorder.span("simulation.rare_nets", "simulation"):
        rare_nets = extract_rare_nets(
            netlist, threshold=THRESHOLD,
            num_patterns=profile.num_probability_patterns, seed=profile.seed,
        )
    queries = justifier.num_queries
    with recorder.span("compatibility", "compatibility"):
        analysis = compute_compatibility(netlist, rare_nets, justifier=justifier, cache=None)
        justifier.set_preferred_values(
            {rare.net: rare.rare_value for rare in analysis.rare_nets}
        )
    counts["compatibility.queries"] = justifier.num_queries - queries
    queries = justifier.num_queries
    with recorder.span("trojans.sample", "trojans"):
        trojans = sample_trojans(
            netlist, analysis.rare_nets, num_trojans=profile.num_trojans,
            trigger_width=profile.trigger_width, seed=profile.seed + 1,
            justifier=justifier,
        )
    counts["trojans.queries"] = justifier.num_queries - queries
    with recorder.span("training", "training"):
        agent = DeterrentAgent(analysis, profile.deterrent_config(seed=generator_seed))
        agent_result = agent.train()
        selected = agent_result.largest_sets(profile.k_patterns)
    queries = justifier.num_queries
    with recorder.span("patterns", "patterns"):
        pattern_set = generate_patterns(analysis, selected, technique="DETERRENT")
    counts["patterns.queries"] = justifier.num_queries - queries
    testgen_end = time.perf_counter()
    with recorder.span("coverage", "trojans"):
        coverage = trigger_coverage(netlist, trojans, pattern_set)

    spans = recorder.since(mark)
    r = analysis.num_rare_nets
    counts.update({
        "simulation.rare_nets": len(rare_nets),
        "sat.queries": justifier.num_queries,
        "sat.learned_clauses": justifier.stats().learned_clauses,
        **_solver_counts("sat", justifier),
        "compatibility.rare_nets": r,
        "compatibility.compatible_pairs": int((analysis.matrix.sum() - r) // 2),
        "training.reward_checks": agent.total_reward_checks,
        "training.steps": agent_result.summary.total_steps,
        "training.distinct_sets": len(agent_result.distinct_sets),
        "training.max_set_size": agent_result.max_compatible_set_size,
        "trojans.count": len(trojans),
    })
    result = DesignRun(
        design=design.name,
        testgen_host_s=testgen_end - start - _host_seconds(spans, EVAL_STAGES[:1]),
        coverage_pct=coverage.coverage_percent,
        test_length=len(pattern_set),
        counts=counts,
        digest=matrix_digest(analysis),
    )

    def check() -> list[str]:
        failures = check_matrix(analysis, generator_seed)
        truth = sequential_trigger_coverage(netlist, trojans, pattern_set)
        if truth.detected != coverage.detected:
            failures.append(
                f"{design.name}: trigger_coverage {coverage.num_detected} detected != "
                f"infected-netlist ground truth {truth.num_detected}"
            )
        return failures

    result.check = check
    return result


def check_matrix(analysis: CompatibilityAnalysis, seed: int) -> list[str]:
    """Structural checks plus a spot check of entries against a fresh solver."""
    matrix = analysis.matrix
    name = analysis.netlist.name
    failures = []
    if not np.array_equal(matrix, matrix.T):
        failures.append(f"{name}: compatibility matrix is not symmetric")
    if not matrix.diagonal().all():
        failures.append(f"{name}: compatibility matrix has a false diagonal entry")
    count = analysis.num_rare_nets
    if count >= 2:
        oracle = Justifier(analysis.netlist)
        rng = np.random.default_rng(seed)
        for _ in range(SPOT_CHECK_PAIRS):
            i, j = (int(x) for x in rng.choice(count, size=2, replace=False))
            a, b = analysis.rare_nets[i], analysis.rare_nets[j]
            expected = oracle.are_compatible({a.net: a.rare_value}, {b.net: b.rare_value})
            if bool(matrix[i, j]) != expected:
                failures.append(
                    f"{name}: matrix[{i}, {j}] = {bool(matrix[i, j])}, fresh solver says "
                    f"{expected}"
                )
    return failures


class _TemporalPhases:
    """Splits ``generate_sequences`` into its three stages from the solver's side.

    The pipeline registers preferred values on the justifier between the
    activatability pre-filter and the greedy sets, and asks for the first
    witness when the greedy sets are done; hooks on those two public
    methods move a stage span forward and note the query count there.
    """

    ORDER = ("temporal.activatability", "temporal.greedy", "temporal.witness")

    def __init__(self, recorder: Recorder, justifier: SequentialJustifier) -> None:
        self.recorder = recorder
        self.justifier = justifier
        self.queries = dict.fromkeys(self.ORDER, 0)
        self._index = -1
        self._span = None
        for method, stage in (("set_preferred_values", self.ORDER[1]),
                              ("witness", self.ORDER[2])):
            original = getattr(justifier, method)

            def hooked(*args, _original=original, _stage=stage, **kwargs):
                self.enter(_stage)
                return _original(*args, **kwargs)

            setattr(justifier, method, hooked)

    def enter(self, stage: str) -> None:
        """Move to ``stage`` unless the pipeline is already there or past it."""
        index = self.ORDER.index(stage)
        if index <= self._index:
            return
        self.close()
        self._index = index
        self._queries_at = self.justifier.num_queries
        self._span = self.recorder.open(stage, "temporal")

    def close(self) -> None:
        if self._span is None:
            return
        self.queries[self._span.name] += self.justifier.num_queries - self._queries_at
        self.recorder.close(self._span)
        self._span = None


def _temporal_flow(recorder, design, profile, generator_seed, netlist, justifier) -> DesignRun:
    """One ``sequential_detect`` cell: the SAT-guided column of ``run_cell``."""
    phases = None
    if recorder.traced:
        instrument(recorder, justifier, ("is_satisfiable", "satisfying_model", "witness"))
        phases = _TemporalPhases(recorder, justifier)
    mark = recorder.mark()
    start = time.perf_counter()
    with recorder.span("simulation.rare_nets", "simulation"):
        rare_nets = extract_rare_nets(
            netlist, threshold=RARENESS_THRESHOLD,
            num_patterns=profile.num_probability_patterns, seed=profile.seed,
            cycles=design.cycles,
        )
    with recorder.span("trojans.sample", "trojans"):
        # The same fresh full-scan solver the sampler builds when given none;
        # handing it in makes its queries countable.
        sampler = Justifier(ensure_combinational(netlist))
        if recorder.traced:
            instrument(recorder, sampler, ("is_satisfiable",))
        trojans = sample_sequential_trojans(
            netlist, rare_nets, num_trojans=profile.num_trojans,
            trigger_width=profile.trigger_width, mode=design.mode, count=design.count,
            seed=profile.seed + 1, justifier=sampler,
        )
    with recorder.span("temporal.generate", "temporal"):
        if phases is not None:
            phases.enter(phases.ORDER[0])
        guided = generate_sequences(
            netlist, rare_nets, design.cycles, mode=design.mode, count=design.count,
            num_sequences=profile.k_patterns, seed=generator_seed + 3, justifier=justifier,
        )
        if phases is not None:
            phases.close()
    testgen_end = time.perf_counter()
    with recorder.span("coverage", "trojans"):
        coverage = sequence_trigger_coverage(netlist, trojans, guided)

    spans = recorder.since(mark)
    counts = {
        "simulation.rare_nets": len(rare_nets),
        "sat.queries": justifier.num_queries + sampler.num_queries,
        "sat.learned_clauses": (justifier.stats().learned_clauses
                                + sampler.stats().learned_clauses),
        "trojans.queries": sampler.num_queries,
        "trojans.count": len(trojans),
        "temporal.queries": justifier.num_queries,
        "temporal.viable": int(guided.metadata.get("num_activatable", 0)),
        **_solver_counts("temporal", justifier),
    }
    stats = justifier.stats().merge(sampler.stats())
    counts.update({"sat.decisions": stats.decisions, "sat.propagations": stats.propagations,
                   "sat.conflicts": stats.conflicts})
    if phases is not None:
        for stage, queries in phases.queries.items():
            counts[f"{stage}_queries"] = queries
    result = DesignRun(
        design=design.name,
        testgen_host_s=testgen_end - start - _host_seconds(spans, EVAL_STAGES[:1]),
        coverage_pct=coverage.coverage_percent,
        test_length=len(guided),
        counts=counts,
    )
    if not trojans:
        result.failures.append(f"{design.name}: no Trojan fits this cell")

    def check() -> list[str]:
        truth = sequence_ground_truth_coverage(netlist, trojans, guided)
        if truth.detected == coverage.detected:
            return []
        return [
            f"{design.name}: sequence_trigger_coverage {coverage.num_detected} detected "
            f"!= infected-netlist ground truth {truth.num_detected}"
        ]

    result.check = check
    return result
