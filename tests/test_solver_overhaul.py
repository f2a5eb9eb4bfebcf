"""Tests for the CDCL performance overhaul: config/stats API, activity heap,
Luby restarts, and clause-database reduction.

The differential fuzz tests are the safety net of the whole overhaul: every
configuration variant (Luby vs geometric restarts, aggressive clause
forgetting, model verification on) must agree with a brute-force truth-table
oracle on both the SAT/UNSAT verdict and model validity.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sat.cnf import CNF
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


def brute_force_satisfiable(cnf: CNF) -> bool:
    """Exhaustive SAT check for tiny formulas."""
    for assignment in itertools.product([False, True], repeat=cnf.num_vars):
        if all(
            any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause)
            for clause in cnf.clauses
        ):
            return True
    return False


def random_cnf(rng: np.random.Generator, num_vars: int, num_clauses: int) -> CNF:
    cnf = CNF(num_vars=num_vars)
    for _ in range(num_clauses):
        size = int(rng.integers(1, 4))
        variables = rng.choice(num_vars, size=min(size, num_vars), replace=False) + 1
        clause = [int(v) if rng.random() < 0.5 else -int(v) for v in variables]
        cnf.add_clause(clause)
    return cnf


#: Configuration variants the fuzz tests sweep: every restart policy, plus an
#: aggressive-forgetting config that reduces the clause database constantly
#: (reduce_base=1 triggers a reduction at every restart) and a paranoid config
#: that re-verifies every model against the problem clauses.
FUZZ_CONFIGS = [
    SolverConfig(),
    SolverConfig(restart_policy="geometric"),
    SolverConfig(reduce_base=1, reduce_growth=0, reduce_fraction=1.0, glue_lbd=0),
    SolverConfig(restart_base=1, reduce_base=1, reduce_growth=0, verify_models=True),
]


class TestLuby:
    def test_reluctant_doubling_prefix(self):
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [luby(i) for i in range(len(expected))] == expected

    def test_schedule_reaches_large_units(self):
        values = {luby(i) for i in range(1023)}
        assert values == {1 << h for h in range(10)}


class TestSolverConfig:
    def test_defaults_valid(self):
        config = SolverConfig()
        assert config.restart_policy == "luby"
        assert config.restart_policy in RESTART_POLICIES

    @pytest.mark.parametrize(
        "overrides",
        [
            {"var_decay": 0.0},
            {"var_decay": 1.0},
            {"clause_decay": 1.5},
            {"restart_policy": "fixed"},
            {"restart_base": 0},
            {"restart_growth": 1.0},
            {"reduce_base": 0},
            {"reduce_growth": -1},
            {"reduce_fraction": 0.0},
            {"reduce_fraction": 1.5},
            {"glue_lbd": -1},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            SolverConfig(**overrides)

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown SolverConfig key"):
            SolverConfig.from_mapping({"decay": 0.9})

    def test_from_mapping_roundtrip(self):
        config = SolverConfig.from_mapping({"restart_policy": "geometric"})
        assert config.restart_policy == "geometric"
        assert SolverConfig.from_mapping(config.as_dict()) == config

    def test_replace_revalidates(self):
        config = SolverConfig()
        assert config.replace(glue_lbd=3).glue_lbd == 3
        with pytest.raises(ValueError):
            config.replace(var_decay=2.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SolverConfig().var_decay = 0.5

    def test_legacy_kwargs_removed(self):
        # The loose tuning keywords expired; SolverConfig is the only surface.
        for keyword in ("decay", "restart_base", "restart_growth"):
            with pytest.raises(TypeError):
                CdclSolver(CNF(num_vars=1, clauses=[[1]]), **{keyword: 0.9})


class TestSolverStats:
    def test_counters_accumulate_across_queries(self):
        cnf = CNF(num_vars=3, clauses=[[1, 2, 3], [-1, 2], [-2, 3]])
        solver = CdclSolver(cnf)
        solver.solve()
        first = solver.stats()
        solver.solve([-3])
        second = solver.stats()
        assert second.propagations >= first.propagations
        assert second.decisions >= first.decisions
        assert second.max_trail >= 1

    def test_stats_snapshot_is_independent(self):
        solver = CdclSolver(CNF(num_vars=1, clauses=[[1]]))
        snapshot = solver.stats()
        snapshot.conflicts = 999
        assert solver.stats().conflicts != 999

    def test_merge_sums_and_maxes(self):
        a = SolverStats(conflicts=1, decisions=2, propagations=3, max_trail=10)
        b = SolverStats(conflicts=4, restarts=1, learned_clauses=2, max_trail=7)
        merged = a.merge(b)
        assert merged.conflicts == 5
        assert merged.decisions == 2
        assert merged.restarts == 1
        assert merged.max_trail == 10

    def test_as_dict_is_json_ready(self):
        stats = SolverStats(conflicts=3).as_dict()
        assert stats["conflicts"] == 3
        assert set(stats) == {
            "conflicts", "decisions", "propagations", "restarts",
            "learned_clauses", "deleted_clauses", "max_trail",
        }

    def test_result_carries_stats(self):
        result = solve_cnf(CNF(num_vars=1, clauses=[[1]]))
        assert isinstance(result, SolverResult)
        assert result.stats is not None
        assert result.stats.propagations >= 1

    def test_restarts_counted_on_hard_instance(self):
        # Pigeonhole 5-into-4 forces enough conflicts to restart under
        # restart_base=1.
        cnf = CNF()
        var = [[cnf.new_var() for _ in range(4)] for _ in range(5)]
        for i in range(5):
            cnf.add_clause([var[i][j] for j in range(4)])
        for j in range(4):
            for i1 in range(5):
                for i2 in range(i1 + 1, 5):
                    cnf.add_clause([-var[i1][j], -var[i2][j]])
        solver = CdclSolver(cnf, config=SolverConfig(restart_base=1))
        assert not solver.solve().satisfiable
        stats = solver.stats()
        assert stats.conflicts > 0
        assert stats.restarts > 0
        assert stats.learned_clauses > 0


class TestActivityHeap:
    def test_pop_order_is_by_activity(self):
        heap = ActivityHeap(5)
        for variable, bump in [(3, 5.0), (1, 3.0), (4, 4.0)]:
            heap.bump(variable, bump)
        order = [heap.pop() for _ in range(3)]
        assert order == [3, 4, 1]

    def test_push_is_idempotent(self):
        heap = ActivityHeap(3)
        heap.push(2)
        assert len(heap) == 3
        heap.pop()
        heap.pop()
        heap.pop()
        assert len(heap) == 0
        heap.push(2)
        heap.push(2)
        assert len(heap) == 1

    def test_grow_preserves_invariants(self):
        heap = ActivityHeap(2)
        heap.bump(1, 7.0)
        heap.grow(6)
        heap.check_invariants()
        assert heap.pop() == 1

    def test_push_many_accepts_literals(self):
        heap = ActivityHeap(4)
        while heap.pop() is not None:
            pass
        heap.push_many([-3, 1, -1, 4])
        heap.check_invariants()
        assert len(heap) == 3
        assert 3 in heap and 1 in heap and 4 in heap and 2 not in heap

    def test_invariants_under_random_operations(self):
        rng = np.random.default_rng(7)
        heap = ActivityHeap(12)
        popped: list[int] = []
        for _ in range(600):
            action = rng.integers(0, 4)
            if action == 0 and popped:
                heap.push(popped.pop())
            elif action == 1:
                variable = heap.pop()
                if variable is not None:
                    popped.append(variable)
            elif action == 2:
                heap.bump(int(rng.integers(1, heap.num_vars + 1)), float(rng.random()))
            else:
                heap.push_many([int(v) for v in rng.integers(1, heap.num_vars + 1, 3)])
                popped = [v for v in popped if v not in heap]
            heap.check_invariants()

    def test_rescale_preserves_order(self):
        heap = ActivityHeap(4)
        heap.bump(2, 8.0)
        heap.bump(3, 4.0)
        heap.rescale(1e-10)
        heap.check_invariants()
        assert heap.pop() == 2
        assert heap.activity(2) == pytest.approx(8e-10)


class TestClauseForgetting:
    def _hard_solver(self, config: SolverConfig, monkeypatch) -> CdclSolver:
        """UNSAT pigeonhole instance with reduction checked on every call."""
        cnf = CNF()
        var = [[cnf.new_var() for _ in range(5)] for _ in range(6)]
        for i in range(6):
            cnf.add_clause([var[i][j] for j in range(5)])
        for j in range(5):
            for i1 in range(6):
                for i2 in range(i1 + 1, 6):
                    cnf.add_clause([-var[i1][j], -var[i2][j]])
        solver = CdclSolver(cnf, config=config)
        original = CdclSolver._reduce_db
        reductions = []

        def checked_reduce(self):
            victims = original(self)
            reductions.append(victims)
            # The pinning contract: no reason clause of any assigned
            # variable may leave the database.  A reason that is not a
            # problem clause is learned; asking the side table instead would
            # let a reason deleted together with its entry pass unseen.
            alive = {id(clause) for clause in self._learned}
            problem = {id(clause) for clause in self._problem}
            for reason in self._reason:
                if reason is not None and id(reason) not in problem:
                    assert id(reason) in alive, "reduction deleted a reason clause"
            return victims

        monkeypatch.setattr(CdclSolver, "_reduce_db", checked_reduce)
        solver._observed_reductions = reductions
        return solver

    def test_reduction_never_deletes_reason_clauses(self, monkeypatch):
        config = SolverConfig(
            restart_base=1, reduce_base=1, reduce_growth=0,
            reduce_fraction=1.0, glue_lbd=0,
        )
        solver = self._hard_solver(config, monkeypatch)
        assert not solver.solve().satisfiable
        assert sum(solver._observed_reductions) > 0
        assert solver.stats().deleted_clauses == sum(solver._observed_reductions)

    def test_reduction_mid_search_keeps_learned_reasons(self):
        # Reductions normally run right after a restart, where only level-0
        # literals have reasons; reduce here with decisions on the trail.
        rng = np.random.default_rng(3)
        cnf = CNF(num_vars=60)
        for _ in range(246):
            variables = rng.choice(60, size=3, replace=False) + 1
            cnf.add_clause([int(v) if rng.random() < 0.5 else -int(v) for v in variables])
        solver = CdclSolver(
            cnf, config=SolverConfig(reduce_base=10**6, reduce_fraction=1.0, glue_lbd=0)
        )
        result = solver.solve()
        assert result.satisfiable

        def long_learned_reasons():
            return [
                reason for reason in solver._reason
                if reason is not None and id(reason) in solver._learned_meta and len(reason) > 2
            ]

        # Decide along the model, so propagation cannot conflict, until a
        # learned clause that only its reason role pins is a reason.
        for variable in range(1, cnf.num_vars + 1):
            if solver._val[variable] is None:
                solver._trail_limits.append(len(solver._trail))
                solver._enqueue(variable if result.model[variable] else -variable, reason=None)
                assert solver._propagate() is None
                if long_learned_reasons():
                    break
        reasons = long_learned_reasons()
        assert reasons
        assert solver._reduce_db() > 0
        alive = {id(clause) for clause in solver._learned}
        assert all(id(reason) in alive for reason in reasons)
        assert set(solver._learned_meta) == alive

    def test_reduction_keeps_answers_correct_under_assumptions(self, monkeypatch):
        config = SolverConfig(restart_base=1, reduce_base=1, reduce_growth=0)
        rng = np.random.default_rng(11)
        for _ in range(20):
            cnf = random_cnf(rng, num_vars=8, num_clauses=30)
            solver = CdclSolver(cnf, config=config)
            assumption = int(rng.integers(1, 9))
            assumption = assumption if rng.random() < 0.5 else -assumption
            constrained = cnf.copy()
            constrained.add_clause([assumption])
            assert (
                solver.solve([assumption]).satisfiable
                == brute_force_satisfiable(constrained)
            )
            # The base formula must survive the assumption query unscathed.
            assert solver.solve().satisfiable == brute_force_satisfiable(cnf)

    def test_glue_and_binary_clauses_survive(self):
        config = SolverConfig(restart_base=1, reduce_base=1, reduce_growth=0)
        cnf = CNF()
        var = [[cnf.new_var() for _ in range(4)] for _ in range(5)]
        for i in range(5):
            cnf.add_clause([var[i][j] for j in range(4)])
        for j in range(4):
            for i1 in range(5):
                for i2 in range(i1 + 1, 5):
                    cnf.add_clause([-var[i1][j], -var[i2][j]])
        solver = CdclSolver(cnf, config=config)
        assert not solver.solve().satisfiable
        for clause in solver._learned:
            assert id(clause) in solver._learned_meta
            # Whatever survived reduction is either pinned glue/binary or
            # above the forgetting threshold by construction of _reduce_db;
            # sanity-check the metadata is populated.
            lbd, _activity = solver._learned_meta[id(clause)]
            assert lbd >= 1

    def test_side_table_tracks_live_learned_clauses_exactly(self, monkeypatch):
        config = SolverConfig(
            restart_base=1, reduce_base=1, reduce_growth=0,
            reduce_fraction=1.0, glue_lbd=0,
        )
        solver = self._hard_solver(config, monkeypatch)
        assert not solver.solve().satisfiable
        assert sum(solver._observed_reductions) > 0
        # A stale entry would outlive its clause, and its id could then be
        # reused by a fresh list that the solver would take for learned.
        assert set(solver._learned_meta) == {id(clause) for clause in solver._learned}
        assert len(solver._learned_meta) == len(solver._learned)


class TestDifferentialFuzz:
    @pytest.mark.parametrize("config", FUZZ_CONFIGS, ids=lambda c: (
        f"{c.restart_policy}-rb{c.reduce_base}"
        + ("-verify" if c.verify_models else "")
    ))
    def test_matches_truth_table_oracle(self, config):
        rng = np.random.default_rng(3)
        for _ in range(80):
            num_vars = int(rng.integers(2, 9))
            cnf = random_cnf(rng, num_vars, int(rng.integers(1, 28)))
            result = solve_cnf(cnf, config=config)
            assert result.satisfiable == brute_force_satisfiable(cnf)
            if result.satisfiable:
                for clause in cnf.clauses:
                    assert any(result.value(abs(lit)) == (lit > 0) for lit in clause)

    @pytest.mark.parametrize("config", FUZZ_CONFIGS[:2], ids=["luby", "geometric"])
    def test_incremental_queries_match_oracle(self, config):
        rng = np.random.default_rng(17)
        for _ in range(15):
            cnf = random_cnf(rng, num_vars=7, num_clauses=22)
            solver = CdclSolver(cnf, config=config)
            for _ in range(4):
                assumption = int(rng.integers(1, 8))
                assumption = assumption if rng.random() < 0.5 else -assumption
                constrained = cnf.copy()
                constrained.add_clause([assumption])
                assert (
                    solver.solve([assumption]).satisfiable
                    == brute_force_satisfiable(constrained)
                )

    def test_deterministic_models_for_fixed_input(self):
        rng = np.random.default_rng(23)
        cnf = random_cnf(rng, num_vars=8, num_clauses=20)
        first = solve_cnf(cnf)
        second = solve_cnf(cnf)
        assert first.satisfiable == second.satisfiable
        if first.satisfiable:
            assert first.model == second.model


class TestLiteralBounds:
    """Literal 0 and variables beyond ``num_vars`` are rejected, not aliased.

    In the literal-indexed value list, slot 0 is the sentinel and slot
    ``-v`` of an unreserved ``v`` belongs to another variable's complement.
    """

    @staticmethod
    def _solver() -> CdclSolver:
        return CdclSolver(CNF(num_vars=2, clauses=[[1, 2]]))

    def test_solve_rejects_literal_zero(self):
        solver = self._solver()
        with pytest.raises(ValueError):
            solver.solve([0])
        assert solver._val[0] is None
        assert solver.solve().satisfiable

    @pytest.mark.parametrize("literal", [3, 5, -5])
    def test_solve_rejects_unreserved_variable(self, literal):
        solver = self._solver()
        with pytest.raises(ValueError):
            solver.solve([1, literal])
        assert_value_layout(solver)
        assert not solver.solve([-1, -2]).satisfiable

    @pytest.mark.parametrize("clause", [[0], [1, 0], [3], [-1, -3], [3, -3]])
    def test_add_clause_rejects_out_of_range(self, clause):
        solver = self._solver()
        with pytest.raises(ValueError):
            solver.add_clause(clause)
        assert solver.num_learned == 0
        solver.reserve_vars(3)
        solver.add_clause([-3])
        result = solver.solve()
        assert result.satisfiable and result.model[3] is False


MAX_PROPERTY_VARS = 8


def assert_value_layout(solver: CdclSolver) -> None:
    """``val[v]``/``val[-v]`` are complementary or both unassigned; spare slots stay empty."""
    val = solver._val
    num_vars = solver._num_vars
    assert 2 * num_vars < len(val)
    for variable in range(1, num_vars + 1):
        value = val[variable]
        if value is None:
            assert val[-variable] is None, f"var {variable}: complement set alone"
            # Lazy deletion keeps every unassigned variable branchable.
            assert variable in solver._heap, f"unassigned var {variable} left the heap"
        else:
            assert val[-variable] is (not value), f"var {variable}: slots disagree"
    assert val[0] is None
    assert all(value is None for value in val[num_vars + 1 : len(val) - num_vars])


def literals(num_vars: int):
    return st.builds(
        lambda variable, positive: variable if positive else -variable,
        st.integers(1, num_vars),
        st.booleans(),
    )


class TestInterleavedGrowth:
    """Incremental use as the temporal path drives it: grow, add, solve, repeat.

    A "template" step adds a small random CNF, normalised once into a
    :class:`ClauseTemplate`, as a block shifted to a random offset.  Its raw
    clauses, shifted, go to the CNF oracle and, one at a time through
    ``add_clause``, to a shadow solver, whose clause database and level-0
    assignment must stay identical to the template solver's.
    """

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), initial_vars=st.integers(0, 3))
    def test_growth_between_solves_matches_oracle(self, data, initial_vars):
        solver = CdclSolver()
        shadow = CdclSolver()
        for each in (solver, shadow):
            each.reserve_vars(initial_vars)
        cnf = CNF(num_vars=initial_vars)
        for _ in range(data.draw(st.integers(1, 20), label="steps")):
            action = data.draw(
                st.sampled_from(["reserve", "clause", "clause", "template", "solve"])
            )
            num_vars = cnf.num_vars
            if action == "reserve" or num_vars == 0:
                grown = num_vars + data.draw(st.integers(0, MAX_PROPERTY_VARS - num_vars))
                for each in (solver, shadow):
                    each.reserve_vars(grown)
                cnf.num_vars = grown
            elif action == "clause":
                clause = data.draw(st.lists(literals(num_vars), min_size=1, max_size=3))
                for each in (solver, shadow):
                    each.add_clause(clause)
                cnf.add_clause(clause)
            elif action == "template":
                size = data.draw(st.integers(1, num_vars), label="block")
                offset = data.draw(st.integers(0, num_vars - size), label="offset")
                block = CNF(num_vars=size)
                block.add_clauses(
                    data.draw(
                        st.lists(
                            st.lists(literals(size), min_size=1, max_size=3), max_size=4
                        ),
                        label="block clauses",
                    )
                )
                solver.add_template(ClauseTemplate.from_cnf(block), offset)
                for clause in block.clauses:
                    shifted = [lit + offset if lit > 0 else lit - offset for lit in clause]
                    shadow.add_clause(shifted)
                    cnf.add_clause(shifted)
            else:
                assumptions = data.draw(st.lists(literals(num_vars), max_size=2))
                result = solver.solve(assumptions)
                assert shadow.solve(assumptions).satisfiable == result.satisfiable
                constrained = cnf.copy()
                for literal in assumptions:
                    constrained.add_clause([literal])
                assert result.satisfiable == brute_force_satisfiable(constrained)
                if result.satisfiable:
                    for clause in constrained.clauses:
                        assert any(result.value(abs(lit)) == (lit > 0) for lit in clause)
            assert solver._val == shadow._val
            assert solver._trail == shadow._trail
            assert solver._unsat == shadow._unsat
            assert solver._problem == shadow._problem
            solver._heap.check_invariants()
            assert_value_layout(solver)


class TestPublicSurface:
    def test_sat_package_exports(self):
        import repro.sat as sat

        for name in (
            "ActivityHeap", "CdclSolver", "SolverConfig", "SolverStats",
            "SolverResult", "Justifier", "SequentialJustifier",
            "TimeFrameExpansion", "luby", "solve_cnf", "RESTART_POLICIES",
        ):
            assert name in sat.__all__
            assert getattr(sat, name) is not None

    def test_justifier_accepts_config_and_reports_stats(self):
        from repro.circuits import generators
        from repro.sat.justify import Justifier

        netlist = generators.c17()
        config = SolverConfig(restart_policy="geometric")
        justifier = Justifier(netlist, config=config)
        assert justifier.config is config
        assert justifier.is_satisfiable({"22": 1})
        stats = justifier.stats()
        assert stats.propagations > 0

    def test_sequential_justifier_accepts_config_and_reports_stats(self):
        from repro.circuits import generators
        from repro.sat.temporal import SequentialJustifier
        from repro.trojan.model import SequentialTrigger, TriggerCondition

        netlist = generators.sequential_controller("sc", state_bits=3, data_width=4)
        config = SolverConfig(restart_policy="geometric")
        justifier = SequentialJustifier(netlist, cycles=3, config=config)
        assert justifier.config is config
        net = netlist.gates[0].output
        trigger = SequentialTrigger(
            condition=TriggerCondition(((net, 1),)), mode="consecutive", count=1
        )
        justifier.is_satisfiable(trigger)
        assert justifier.stats().propagations > 0

    def test_generate_sequences_emits_solver_stats(self):
        from repro.circuits import generators
        from repro.core.sequence_gen import generate_sequences
        from repro.simulation.rare_nets import extract_rare_nets

        netlist = generators.sequential_controller("sg", state_bits=3, data_width=4)
        rare = extract_rare_nets(
            netlist, threshold=0.2, num_patterns=256, seed=0, cycles=3
        )
        sequences = generate_sequences(
            netlist, rare, cycles=3, mode="consecutive", count=1,
            num_sequences=4, seed=1,
            solver_config=SolverConfig(restart_policy="geometric"),
        )
        stats = sequences.metadata["solver_stats"]
        assert stats["propagations"] > 0
        assert set(stats) == set(SolverStats().as_dict())
