"""Tests for the Trojan model, insertion transform, and coverage evaluation."""

import numpy as np
import pytest

from repro.circuits.validate import validate_netlist
from repro.core.patterns import PatternSet
from repro.simulation.logic_sim import BitParallelSimulator, simulate_pattern
from repro.simulation.rare_nets import RareNet
from repro.trojan.evaluation import coverage_curve, trigger_coverage
from repro.trojan.insertion import insert_trojan, sample_trojans
from repro.trojan.model import Trojan, TriggerCondition


class TestTriggerCondition:
    def test_width_and_nets(self):
        trigger = TriggerCondition((("a", 1), ("b", 0)))
        assert trigger.width == 2
        assert trigger.nets == ("a", "b")
        assert trigger.as_assignment() == {"a": 1, "b": 0}

    def test_empty_trigger_rejected(self):
        with pytest.raises(ValueError):
            TriggerCondition(())

    def test_duplicate_net_rejected(self):
        with pytest.raises(ValueError):
            TriggerCondition((("a", 1), ("a", 0)))

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            TriggerCondition((("a", 2),))

    def test_from_rare_nets(self, multiplier_rare_nets):
        trigger = TriggerCondition.from_rare_nets(multiplier_rare_nets[:3])
        assert trigger.width == 3


class TestSampling:
    def test_sampled_triggers_are_valid(self, small_multiplier, multiplier_compatibility):
        trojans = sample_trojans(
            small_multiplier, multiplier_compatibility.rare_nets,
            num_trojans=10, trigger_width=3, seed=0,
            justifier=multiplier_compatibility.justifier,
        )
        assert trojans
        for trojan in trojans:
            assert trojan.width == 3
            assert multiplier_compatibility.justifier.is_satisfiable(
                trojan.trigger.as_assignment()
            )

    def test_triggers_are_distinct(self, small_multiplier, multiplier_compatibility):
        trojans = sample_trojans(
            small_multiplier, multiplier_compatibility.rare_nets,
            num_trojans=12, trigger_width=2, seed=1,
            justifier=multiplier_compatibility.justifier,
        )
        keys = {frozenset(t.trigger.nets) for t in trojans}
        assert len(keys) == len(trojans)

    def test_width_larger_than_population_returns_empty(self, small_multiplier):
        assert sample_trojans(small_multiplier, [], num_trojans=5, trigger_width=4) == []

    def test_invalid_width_rejected(self, small_multiplier, multiplier_rare_nets):
        with pytest.raises(ValueError):
            sample_trojans(small_multiplier, multiplier_rare_nets, trigger_width=0)

    def test_duplicate_rare_net_rejected_up_front(self, small_multiplier, multiplier_rare_nets):
        # Width 1 never draws both copies into one trigger, so only a check
        # made before sampling can see the duplicate.
        rare = multiplier_rare_nets[0]
        flipped = RareNet(rare.net, 1 - rare.rare_value, 1 - rare.probability)
        with pytest.raises(ValueError, match="more than once"):
            sample_trojans(small_multiplier, [rare, flipped], num_trojans=1, trigger_width=1)

    def test_sampling_deterministic_for_seed(self, small_multiplier, multiplier_compatibility):
        first = sample_trojans(small_multiplier, multiplier_compatibility.rare_nets,
                               num_trojans=5, trigger_width=2, seed=7,
                               justifier=multiplier_compatibility.justifier)
        second = sample_trojans(small_multiplier, multiplier_compatibility.rare_nets,
                                num_trojans=5, trigger_width=2, seed=7,
                                justifier=multiplier_compatibility.justifier)
        assert [t.trigger.nets for t in first] == [t.trigger.nets for t in second]


class TestInsertion:
    def _build_trojan(self, compatibility, width=2):
        rare = compatibility.rare_nets[:width]
        trigger = TriggerCondition.from_rare_nets(rare)
        payload = compatibility.netlist.outputs[0]
        return Trojan(trigger=trigger, payload_output=payload, name="ht_test")

    def test_infected_netlist_validates(self, small_multiplier, multiplier_compatibility):
        trojan = self._build_trojan(multiplier_compatibility)
        infected = insert_trojan(small_multiplier, trojan)
        assert validate_netlist(infected).ok
        assert infected.num_gates > small_multiplier.num_gates

    def test_payload_flips_only_under_trigger(self, small_multiplier, multiplier_compatibility):
        trojan = self._build_trojan(multiplier_compatibility)
        infected = insert_trojan(small_multiplier, trojan)
        justifier = multiplier_compatibility.justifier

        triggering = justifier.witness(trojan.trigger.as_assignment())
        assert triggering is not None
        golden = simulate_pattern(small_multiplier, triggering)
        corrupted = simulate_pattern(infected, triggering)
        assert corrupted[trojan.payload_output] != golden[trojan.payload_output]

        # A pattern that violates the trigger must leave every output intact.
        first_net, first_value = trojan.trigger.requirements[0]
        benign = justifier.witness({first_net: 1 - first_value})
        assert benign is not None
        golden = simulate_pattern(small_multiplier, benign)
        clean = simulate_pattern(infected, benign)
        for output in small_multiplier.outputs:
            assert clean[output] == golden[output]

    def test_payload_must_be_gate_driven(self, small_multiplier, multiplier_compatibility):
        rare = multiplier_compatibility.rare_nets[0]
        trigger = TriggerCondition(((rare.net, rare.rare_value),))
        trojan = Trojan(trigger=trigger, payload_output=small_multiplier.inputs[0])
        with pytest.raises(ValueError):
            insert_trojan(small_multiplier, trojan)

    def test_single_net_trigger_supported(self, small_multiplier, multiplier_compatibility):
        rare = multiplier_compatibility.rare_nets[0]
        trigger = TriggerCondition(((rare.net, rare.rare_value),))
        trojan = Trojan(trigger=trigger, payload_output=small_multiplier.outputs[0])
        infected = insert_trojan(small_multiplier, trojan)
        assert validate_netlist(infected).ok


class TestCoverage:
    def _trojans(self, compatibility, count=8, width=2):
        return sample_trojans(
            compatibility.netlist, compatibility.rare_nets,
            num_trojans=count, trigger_width=width, seed=3,
            justifier=compatibility.justifier,
        )

    def test_empty_pattern_set_covers_nothing(self, small_multiplier, multiplier_compatibility):
        trojans = self._trojans(multiplier_compatibility)
        result = trigger_coverage(small_multiplier, trojans, PatternSet.empty(small_multiplier))
        assert result.coverage == 0.0
        assert result.num_detected == 0

    def test_targeted_patterns_achieve_full_coverage(self, small_multiplier, multiplier_compatibility):
        trojans = self._trojans(multiplier_compatibility)
        justifier = multiplier_compatibility.justifier
        assignments = [justifier.witness(t.trigger.as_assignment()) for t in trojans]
        pattern_set = PatternSet.from_assignments(small_multiplier, assignments, technique="oracle")
        result = trigger_coverage(small_multiplier, trojans, pattern_set)
        assert result.coverage == 1.0
        assert result.coverage_percent == 100.0

    def test_coverage_matches_brute_force(self, small_multiplier, multiplier_compatibility):
        trojans = self._trojans(multiplier_compatibility, count=6)
        rng = np.random.default_rng(0)
        simulator = BitParallelSimulator(small_multiplier)
        patterns = rng.integers(0, 2, size=(64, len(simulator.sources)), dtype=np.uint8)
        pattern_set = PatternSet(sources=simulator.sources, patterns=patterns, technique="rand")
        result = trigger_coverage(small_multiplier, trojans, pattern_set)
        values = simulator.run_patterns(patterns)
        expected = 0
        for trojan in trojans:
            fired = np.ones(64, dtype=bool)
            for net, value in trojan.trigger.requirements:
                fired &= values[net] == value
            expected += int(fired.any())
        assert result.num_detected == expected

    def test_coverage_curve_is_monotone_and_ends_at_total(self, small_multiplier, multiplier_compatibility):
        trojans = self._trojans(multiplier_compatibility)
        justifier = multiplier_compatibility.justifier
        assignments = [justifier.witness(t.trigger.as_assignment()) for t in trojans]
        pattern_set = PatternSet.from_assignments(small_multiplier, assignments)
        curve = coverage_curve(small_multiplier, trojans, pattern_set)
        coverages = [point[1] for point in curve]
        assert coverages == sorted(coverages)
        final = trigger_coverage(small_multiplier, trojans, pattern_set)
        assert coverages[-1] == pytest.approx(final.coverage_percent)

    def test_unknown_trigger_net_raises(self, small_multiplier):
        trigger = TriggerCondition((("not_a_net", 1),))
        trojan = Trojan(trigger=trigger, payload_output=small_multiplier.outputs[0])
        patterns = PatternSet.from_assignments(
            small_multiplier, [{net: 0 for net in small_multiplier.combinational_sources()}]
        )
        with pytest.raises(KeyError):
            trigger_coverage(small_multiplier, [trojan], patterns)

    def test_source_order_mismatch_detected(self, small_multiplier, multiplier_compatibility):
        trojans = self._trojans(multiplier_compatibility, count=2)
        sources = tuple(reversed(small_multiplier.combinational_sources()))
        bad = PatternSet(sources=sources,
                         patterns=np.zeros((1, len(sources)), dtype=np.uint8))
        with pytest.raises(ValueError):
            trigger_coverage(small_multiplier, trojans, bad)
