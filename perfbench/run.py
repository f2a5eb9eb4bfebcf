#!/usr/bin/env python3
"""Benchmark of DETERRENT test generation: its cost and the quality of its output.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lib_table2 --seed 0 --seconds 35 --trace 0

One run repeats the whole workload (every design or cell, from a fresh
netlist) once for each generator seed ``--seed`` picks, then again while
another repetition fits in ``--seconds``, at least twice in all, with the
artifact cache and the program's telemetry off.  Each timing is the stage
spans' time scaled to a reference host speed (``spans.HostSpeed``): the
median over a generator seed's repetitions, averaged over the generator
seeds.  The run checks the outputs, checks that every count repeats, and
prints one JSON object as the last line: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, or its per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced repetitions; the
traced ones wrap every solver query in a span and give the per-layer numbers,
and the difference between the two kinds is ``trace_overhead_s``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
EXPECTED = HERE / "expected.json"
TRACE_OUT = ROOT / ".perfbench"

#: Repetitions every run makes, however short ``--seconds`` is.
MIN_REPETITIONS = 2

#: Solver-query spans (see ``spans.instrument``); everything else is a stage.
SOLVER_LAYER = "sat"


def _import_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SOURCE / 'repro'}")
    # Untraced runs must not pick up a trace directory or an artifact cache
    # from the environment: users pay these costs on every new design.
    for variable in ("DETERRENT_TRACE_DIR", "DETERRENT_PROFILE", "DETERRENT_CACHE_DIR"):
        os.environ.pop(variable, None)
    sys.path[:0] = [str(SOURCE), str(HERE)]
    import repro
    from repro import obs
    from repro.runner.cache import get_default_cache, set_default_cache

    if not Path(repro.__file__).resolve().is_relative_to(SOURCE):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SOURCE}")
    obs.disable()
    set_default_cache(None)
    if get_default_cache() is not None:
        raise SystemExit("perfbench: could not switch the artifact cache off")


def _cold_state_failures() -> list[str]:
    """The artifact cache and telemetry must still be off after a repetition."""
    from repro import obs
    from repro.runner.cache import get_default_cache

    failures = []
    cache = get_default_cache()
    if cache is not None:
        failures.append(f"artifact cache switched on ({cache.stats.hits} hits)")
    if obs.enabled() or "DETERRENT_TRACE_DIR" in os.environ:
        failures.append("program telemetry switched on")
    return failures


def _median(values):
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Per-layer metrics of one traced repetition
# ----------------------------------------------------------------------
def layer_metrics(spans, runs) -> dict[str, float]:
    """Per-layer numbers of one traced repetition (its spans and design runs)."""
    import flows

    covered = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.host_s
    durations = defaultdict(float)
    self_times = defaultdict(float)
    for span in spans:
        durations[span.name] += span.duration
        # Host time outside the children, at the span's own speed.
        self_times[span.layer] += (span.host_s - covered[span.id]) * span.scale
    counts = defaultdict(int)
    for run in runs:
        for key, value in run.counts.items():
            counts[key] = max(counts[key], value) if key.endswith("max_set_size") else (
                counts[key] + value)

    by_id = {span.id: span for span in spans}
    solver = [span for span in spans if span.layer == SOLVER_LAYER and span.name != "sat.encode"]

    def solver_time_under(stage: str) -> float:
        return sum(s.duration for s in solver if by_id[s.parent].name == stage)

    pairs = sum(r * (r - 1) // 2 for r in (run.counts.get("compatibility.rare_nets", 0)
                                           for run in runs))
    testgen_host = sum(run.testgen_host_s for run in runs)
    metrics = {
        "circuits.build_s": durations["circuits.build"],
        "simulation.compile_s": durations["simulation.compile"],
        "simulation.rare_nets_s": durations["simulation.rare_nets"],
        "simulation.rare_nets": counts["simulation.rare_nets"],
        "sat.encode_s": durations["sat.encode"],
        "sat.queries": counts["sat.queries"],
        "sat.busy_s": sum(span.duration for span in solver),
        "sat.sat_frac": sum(bool(span.result) for span in solver) / max(len(solver), 1),
        "sat.decisions": counts["sat.decisions"],
        "sat.propagations": counts["sat.propagations"],
        "sat.conflicts": counts["sat.conflicts"],
        "sat.learned_clauses": counts["sat.learned_clauses"],
        "compatibility.s": durations["compatibility"],
        "compatibility.queries": counts["compatibility.queries"],
        "compatibility.compatible_frac": counts["compatibility.compatible_pairs"] / max(pairs, 1),
        "training.s": durations["training"],
        "training.sat_s": solver_time_under("training"),
        "training.reward_checks": counts["training.reward_checks"],
        "training.steps_per_s": counts["training.steps"] / max(durations["training"], 1e-12),
        "training.distinct_sets": counts["training.distinct_sets"],
        "training.max_set_size": counts["training.max_set_size"],
        "patterns.s": durations["patterns"],
        "patterns.queries": counts["patterns.queries"],
        "trojans.sample_s": durations["trojans.sample"],
        "trojans.queries": counts["trojans.queries"],
        "coverage.s": durations["coverage"],
        "temporal.encode_s": durations["temporal.encode"],
        "temporal.activatability_s": durations["temporal.activatability"],
        "temporal.activatability_queries": counts["temporal.activatability_queries"],
        "temporal.greedy_s": durations["temporal.greedy"],
        "temporal.greedy_queries": counts["temporal.greedy_queries"],
        "temporal.witness_s": durations["temporal.witness"],
        "temporal.witness_queries": counts["temporal.witness_queries"],
        "temporal.decisions": counts["temporal.decisions"],
        "temporal.propagations": counts["temporal.propagations"],
        "temporal.conflicts": counts["temporal.conflicts"],
        "temporal.viable": counts["temporal.viable"],
        "unattributed_s": testgen_host - sum(
            span.host_s for span in spans if span.name in flows.TESTGEN_STAGES
        ),
    }
    for layer in ("circuits", "simulation", "sat", "compatibility", "training", "patterns",
                  "trojans", "temporal"):
        metrics[f"{layer}.self_s"] = self_times[layer]
    return metrics


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def _comparable(run) -> dict:
    """Everything one design run must repeat exactly for a fixed seed."""
    comparable = {
        **run.counts,
        "coverage_pct": run.coverage_pct,
        "test_length": run.test_length,
    }
    if run.digest is not None:
        comparable["compatibility.digest"] = run.digest
    return comparable


def _mismatches(design: str, got: dict, want: dict, source: str) -> list[str]:
    return [
        f"{design}: {key} = {got[key]!r}, {source} {want[key]!r}"
        for key in sorted(got.keys() & want.keys())
        if got[key] != want[key]
    ]


def _repeat(workload, generator_seed: int, traced: bool):
    """One full flow over every design of ``workload``: a fresh, cold repetition."""
    import flows
    from repro.experiments.common import clear_context_cache
    from spans import Recorder

    clear_context_cache()
    # Every repetition starts from the same heap, so the collector's pauses
    # do not grow with the repetitions before it.
    gc.collect()
    recorder = Recorder(traced=traced)
    runs = []
    for design in workload.designs:
        try:
            run = flows.run_design(recorder, design, workload.profile, generator_seed)
        except Exception as error:  # one failed design; the rest still run
            recorder.abandon()
            run = flows.DesignRun(design.name, 0.0, 0.0, 0)
            run.failures.append(f"{design.name}: {type(error).__name__}: {error}")
        runs.append(run)
        for failure in _cold_state_failures():
            run.failures.append(f"{design.name}: {failure}")
    return generator_seed, traced, recorder, runs


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about ``seconds``; return its repetitions, checked.

    Untraced, every generator seed of the run gets one repetition, and spare
    time goes to more.  Traced, only the first generator seed is repeated,
    untraced and traced in turn, so the per-layer counts do not depend on how
    many repetitions fit in the time.  Another repetition starts only if, at
    the mean pace so far, it ends within ``seconds``.  The first repetition of
    each generator seed is checked against the slow oracles right after it
    runs, outside its spans; the others must repeat its outputs.
    """
    import flows
    from spans import HostSpeed, Recorder

    workload = flows.WORKLOADS[workload_name]
    generator_seeds = workload.generator_seeds(seed)
    # One untimed set-up per design first: the process's first set-up also
    # pays one-off warm-up costs, 40% more on ``mult8``, that no later design
    # of a ``deterrent run`` pays again.
    for design in workload.designs:
        flows.setup(Recorder(traced=False), design)
    if trace:
        # Untraced, traced, traced, untraced: a steady drift in machine speed
        # cancels out of ``trace_overhead_s`` over each group of four.
        schedule = [(generator_seeds[0], traced) for traced in (False, True, True, False)]
        minimum = MIN_REPETITIONS
    else:
        schedule = [(generator_seed, False) for generator_seed in generator_seeds]
        minimum = max(MIN_REPETITIONS, len(schedule))
    repetitions = []
    first = {}
    host = HostSpeed()
    started = time.perf_counter()
    host.start()
    try:
        while True:
            repetition = _repeat(workload, *schedule[len(repetitions) % len(schedule)])
            generator_seed, _, _, runs = repetition
            for run in runs:
                if generator_seed not in first and run.check is not None:
                    run.failures += run.check()
                # Drop what the check holds on to: the netlist, matrix and Trojans.
                run.check = None
            first.setdefault(generator_seed, runs)
            repetitions.append(repetition)
            elapsed = time.perf_counter() - started
            if len(repetitions) >= minimum and elapsed * (1 + 1 / len(repetitions)) > seconds:
                break
    finally:
        host.stop()
    for _, _, recorder, _ in repetitions:
        host.settle(recorder.spans)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Every count must repeat: across repetitions, and against the record.
    expected = json.loads(EXPECTED.read_text()).get(workload_name, {})
    for generator_seed, _, _, runs in repetitions:
        recorded = expected.get(str(generator_seed), {})
        for run, earlier in zip(runs, first[generator_seed]):
            got = _comparable(run)
            run.failures += _mismatches(run.design, got, _comparable(earlier), "earlier")
            run.failures += _mismatches(run.design, got, recorded.get(run.design, {}), "recorded")
    return {"repetitions": repetitions, "first": first, "peak_rss_mb": peak_rss_mb,
            "host_slowdown": host.slowdown()}


def summarize(measured: dict, trace: bool) -> dict[str, float]:
    """Metric name -> value, for the end-to-end (or, traced, per-layer) set."""
    import flows

    repetitions = measured["repetitions"]

    def timing(traced: bool, stages) -> float:
        """Median over each generator seed's repetitions, mean over the seeds."""
        per_seed = defaultdict(list)
        for generator_seed, kind, _, runs in repetitions:
            if kind == traced:
                per_seed[generator_seed].append(
                    sum(flows.stage_seconds(run, stages) for run in runs))
        return statistics.fmean(_median(totals) for totals in per_seed.values())

    testgen = timing(False, flows.TESTGEN_STAGES)
    if trace:
        per_rep = [layer_metrics(recorder.spans, runs)
                   for _, traced, recorder, runs in repetitions if traced]
        metrics = {name: _median([rep[name] for rep in per_rep]) for name in per_rep[0]}
        metrics["trace_overhead_s"] = timing(True, flows.TESTGEN_STAGES) - testgen
        return metrics
    # Set-up does not depend on the generator seed: the median of all repetitions.
    setup = _median([sum(flows.stage_seconds(run, flows.SETUP_STAGES) for run in runs)
                     for _, traced, _, runs in repetitions if not traced])
    # Quality repeats exactly between repetitions of a generator seed.
    once = measured["first"].values()
    return {
        "setup_s": setup,
        "testgen_s": testgen,
        "eval_s": timing(False, flows.EVAL_STAGES),
        "coverage_pct": statistics.fmean(run.coverage_pct for runs in once for run in runs),
        "test_length": statistics.fmean(sum(run.test_length for run in runs) for runs in once),
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {entry["name"] for entry in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    _import_program()

    measured = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    values = summarize(measured, bool(args.trace))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        entry["name"]: {"value": float(values[entry["name"]]), "unit": entry["unit"]}
        for entry in wanted
    }

    runs = [run for *_, reps in measured["repetitions"] for run in reps]
    failures = [failure for run in runs for failure in run.failures]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.trace:
        TRACE_OUT.mkdir(exist_ok=True)
        for index, (_, traced, recorder, _) in enumerate(measured["repetitions"]):
            if traced:
                recorder.dump(TRACE_OUT / f"{args.workload}-seed{args.seed}-rep{index}.json")
    print(f"{'host slowdown':34s} {measured['host_slowdown']:.3f} x "
          f"({len(measured['repetitions'])} repetitions)")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runs),
        "failed": sum(bool(run.failures) for run in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
