"""The benchmark's composed flows compute what ``deterrent run`` computes.

At the TINY profile and with the artifact cache off, each flow must give the
coverage, test length and solver work of the harness it mirrors.  Run from
the repository root:

    python3 -m pytest -q perfbench/test_fidelity.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import flows  # noqa: E402
from repro.circuits.library import register_netlist  # noqa: E402
from repro.experiments.common import TINY, clear_context_cache  # noqa: E402
from repro.runner.cache import get_default_cache, set_default_cache  # noqa: E402
from repro.runner.execution import run_experiment  # noqa: E402
from spans import Recorder  # noqa: E402


@pytest.fixture(autouse=True)
def cold_state(monkeypatch):
    """No artifact cache (even with DETERRENT_CACHE_DIR set) and no memoised contexts."""
    monkeypatch.delenv("DETERRENT_CACHE_DIR", raising=False)
    monkeypatch.delenv("DETERRENT_TRACE_DIR", raising=False)
    previous = get_default_cache()
    set_default_cache(None)
    clear_context_cache()
    yield
    clear_context_cache()
    set_default_cache(previous)


def _flow(design: flows.Design, traced: bool = False) -> flows.DesignRun:
    run = flows.run_design(Recorder(traced=traced), design, TINY, generator_seed=0)
    assert run.failures == []
    assert run.check() == []
    return run


def _no_cache_hits(experiment) -> None:
    assert not experiment.cache_stats or experiment.cache_stats.get("hits", 0) == 0


@pytest.mark.parametrize("workload", ["lib_table2", "mult_compat"])
def test_combinational_flow_reproduces_table2(workload):
    design = flows.WORKLOADS[workload].designs[0]
    if workload == "mult_compat":
        register_netlist(design.build(), design.name)
    experiment = run_experiment(
        "table2", profile=TINY,
        options={"designs": [design.name], "techniques": ["DETERRENT"]},
    )
    _no_cache_hits(experiment)
    (row,) = experiment.collected
    outcome = row.outcomes["DETERRENT"]
    for traced in (False, True):
        run = _flow(design, traced)
        assert run.coverage_pct == outcome.coverage_percent
        assert run.test_length == outcome.test_length
        assert run.counts["compatibility.rare_nets"] == row.num_rare_nets


def test_temporal_flow_reproduces_sequential_detect():
    design = flows.WORKLOADS["temporal_detect"].designs[0]
    experiment = run_experiment(
        "sequential_detect", profile=TINY,
        options={"designs": ["s15850_like"], "cycles": [design.cycles],
                 "modes": [design.mode], "counts": [design.count]},
    )
    _no_cache_hits(experiment)
    (cell,) = experiment.collected
    for traced in (False, True):
        run = _flow(design, traced)
        assert run.coverage_pct == cell.sat_coverage_percent
        assert run.test_length == cell.num_sat_sequences
        assert run.counts["temporal.viable"] == cell.num_viable
        assert run.counts["temporal.queries"] > 0
        for counter in ("decisions", "propagations", "conflicts"):
            assert run.counts[f"temporal.{counter}"] == cell.solver_stats[counter]


def test_traced_stages_account_for_testgen():
    """Stage spans cover ``testgen_s`` up to the glue between calls."""
    import run as bench

    workload = flows.WORKLOADS["mult_compat"]
    recorder = Recorder(traced=True)
    design_run = flows.run_design(recorder, workload.designs[0], TINY, generator_seed=0)
    metrics = bench.layer_metrics(recorder.spans, [design_run])
    assert 0 <= metrics["unattributed_s"] < 0.05 * design_run.testgen_host_s
    assert metrics["compatibility.queries"] > 0
