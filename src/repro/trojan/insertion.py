"""Random hardware Trojan insertion.

Reproduces the paper's evaluation methodology (§4.1): for each benchmark, 100
Trojans are created by sampling random width-``w`` subsets of the rare nets as
triggers and verifying each trigger to be *valid* (simultaneously activatable)
with a Boolean satisfiability check.  :func:`insert_trojan` additionally
produces the HT-infected netlist (trigger AND-tree plus an XOR payload on an
output), which is what a logic-testing flow would simulate; coverage
evaluation itself only needs the trigger conditions.

The sequential counterparts target raw (non-scan) netlists.
:func:`sample_sequential_trojans` draws per-cycle conditions from
*state-dependent* rare nets and attaches a temporal rule (consecutive or
cumulative ``count``); :func:`insert_sequential_trojan` realises the rule in
hardware — a shift register for consecutive triggers, a sticky thermometer
counter for cumulative ones — so the infected netlist contains real extra
flip-flops and must be clocked over multiple cycles to expose the payload.
"""

from __future__ import annotations

from repro.circuits.gates import GateType
from repro.circuits.netlist import Netlist
from repro.circuits.scan import ensure_combinational
from repro.sat.justify import Justifier
from repro.simulation.rare_nets import RareNet
from repro.trojan.model import (
    SequentialTrigger,
    SequentialTrojan,
    Trojan,
    TriggerCondition,
)
from repro.utils.rng import RngLike, make_rng


def _check_distinct_nets(rare_nets: list[RareNet]) -> None:
    """Reject a rare-net list that names a net twice (no trigger could use both)."""
    if len({item.net for item in rare_nets}) != len(rare_nets):
        raise ValueError("rare_nets names a net more than once")


def _requirements(chosen: list[RareNet]) -> dict[str, int]:
    """The SAT check's assignment for a candidate trigger, in draw order.

    The same mapping as ``TriggerCondition.from_rare_nets(chosen)
    .as_assignment()``, without building a condition for the candidates
    the check rejects (most of them, on the sequential designs).
    """
    return {item.net: item.rare_value for item in chosen}


def sample_trojans(
    netlist: Netlist,
    rare_nets: list[RareNet],
    num_trojans: int = 100,
    trigger_width: int = 4,
    seed: RngLike = None,
    justifier: Justifier | None = None,
    max_attempts_per_trojan: int = 200,
) -> list[Trojan]:
    """Sample valid random Trojans whose triggers use ``trigger_width`` rare nets.

    Every sampled trigger is validated with a SAT check (invalid candidates
    are re-drawn); duplicate trigger sets are avoided.  If the circuit cannot
    support ``num_trojans`` distinct valid triggers within the attempt budget,
    as many as exist are returned.  ``rare_nets`` must name each net once.
    """
    if trigger_width <= 0:
        raise ValueError(f"trigger_width must be positive, got {trigger_width}")
    _check_distinct_nets(rare_nets)
    if len(rare_nets) < trigger_width:
        return []
    rng = make_rng(seed)
    justifier = justifier or Justifier(netlist)
    outputs = netlist.outputs or netlist.combinational_sources()
    trojans: list[Trojan] = []
    seen: set[frozenset[str]] = set()
    attempts_left = num_trojans * max_attempts_per_trojan
    while len(trojans) < num_trojans and attempts_left > 0:
        attempts_left -= 1
        chosen_indices = rng.choice(len(rare_nets), size=trigger_width, replace=False)
        chosen = [rare_nets[int(index)] for index in chosen_indices]
        key = frozenset(item.net for item in chosen)
        if key in seen or not justifier.is_satisfiable(_requirements(chosen)):
            continue
        seen.add(key)
        trigger = TriggerCondition.from_rare_nets(chosen)
        payload_output = str(outputs[int(rng.integers(len(outputs)))])
        trojans.append(
            Trojan(
                trigger=trigger,
                payload_output=payload_output,
                name=f"{netlist.name}_ht{len(trojans)}",
            )
        )
    return trojans


def insert_trojan(netlist: Netlist, trojan: Trojan) -> Netlist:
    """Return an HT-infected copy of ``netlist``.

    The trigger is an AND over the trigger nets (inverting the nets whose rare
    value is 0), and the payload XORs the trigger output into the Trojan's
    payload output, flipping that output whenever the trigger fires — the
    structure of Figure 1 in the paper.
    """
    infected = Netlist(f"{netlist.name}_{trojan.name or 'trojan'}")
    for net in netlist.inputs:
        infected.add_input(net)
    for ff in netlist.flip_flops:
        infected.add_flip_flop(ff.q, ff.d)

    payload = trojan.payload_output
    if not netlist.has_driver(payload) or netlist.is_input(payload):
        raise ValueError(
            f"payload output {payload!r} must be a gate-driven net of the netlist"
        )
    renamed = f"{payload}__pre_trojan"

    def original(net: str) -> str:
        """Internal logic keeps using the uncorrupted value of the payload net."""
        return renamed if net == payload else net

    for gate in netlist.gates:
        output = renamed if gate.output == payload else gate.output
        infected.add_gate(output, gate.gate_type, tuple(original(n) for n in gate.inputs))

    # Trigger: AND of the trigger nets in their rare polarity.
    trigger_literals: list[str] = []
    for index, (net, value) in enumerate(trojan.trigger.requirements):
        source = original(net)
        if value == 1:
            trigger_literals.append(source)
        else:
            inverted = f"trojan_inv_{index}_{net}"
            infected.add_gate(inverted, GateType.NOT, (source,))
            trigger_literals.append(inverted)
    trigger_net = "trojan_trigger"
    if len(trigger_literals) == 1:
        infected.add_gate(trigger_net, GateType.BUF, (trigger_literals[0],))
    else:
        infected.add_gate(trigger_net, GateType.AND, tuple(trigger_literals))

    # Payload: XOR the trigger into the original payload net.
    infected.add_gate(payload, GateType.XOR, (renamed, trigger_net))
    for net in netlist.outputs:
        infected.add_output(net)
    return infected


def sample_sequential_trojans(
    netlist: Netlist,
    rare_nets: list[RareNet],
    num_trojans: int = 100,
    trigger_width: int = 3,
    mode: str = "consecutive",
    count: int = 2,
    seed: RngLike = None,
    justifier: Justifier | None = None,
    max_attempts_per_trojan: int = 200,
) -> list[SequentialTrojan]:
    """Sample valid multi-cycle Trojans on a raw sequential netlist.

    Per-cycle conditions are random width-``trigger_width`` subsets of the
    (state-dependent) rare nets; every condition is validated to be
    single-cycle satisfiable with a SAT check on the full-scan view.  That
    check is *necessary* but not sufficient for multi-cycle activatability —
    a condition could require a state the machine never reaches — which is
    exactly the evaluation gap the sequential workload measures, so
    unreachable-in-practice triggers are deliberately kept.

    Payload outputs are drawn from the gate-driven primary outputs (flip-flop
    driven outputs cannot host the output-pin XOR splice).
    """
    if trigger_width <= 0:
        raise ValueError(f"trigger_width must be positive, got {trigger_width}")
    _check_distinct_nets(rare_nets)
    if not netlist.is_sequential:
        raise ValueError(
            f"sequential Trojan sampling requires flip-flops; {netlist.name!r} "
            "is combinational (use sample_trojans)"
        )
    if len(rare_nets) < trigger_width:
        return []
    eligible_payloads = [
        net for net in netlist.outputs if netlist.gate_for(net) is not None
    ]
    if not eligible_payloads:
        raise ValueError(
            f"netlist {netlist.name!r} has no gate-driven primary output to "
            "host a payload"
        )
    rng = make_rng(seed)
    justifier = justifier or Justifier(ensure_combinational(netlist))
    trojans: list[SequentialTrojan] = []
    seen: set[frozenset[str]] = set()
    attempts_left = num_trojans * max_attempts_per_trojan
    while len(trojans) < num_trojans and attempts_left > 0:
        attempts_left -= 1
        chosen_indices = rng.choice(len(rare_nets), size=trigger_width, replace=False)
        chosen = [rare_nets[int(index)] for index in chosen_indices]
        key = frozenset(item.net for item in chosen)
        if key in seen or not justifier.is_satisfiable(_requirements(chosen)):
            continue
        seen.add(key)
        condition = TriggerCondition.from_rare_nets(chosen)
        payload = str(eligible_payloads[int(rng.integers(len(eligible_payloads)))])
        trojans.append(
            SequentialTrojan(
                trigger=SequentialTrigger(condition=condition, mode=mode, count=count),
                payload_output=payload,
                name=f"{netlist.name}_seq_ht{len(trojans)}",
            )
        )
    return trojans


def insert_sequential_trojan(netlist: Netlist, trojan: SequentialTrojan) -> Netlist:
    """Return an HT-infected copy of a sequential ``netlist``.

    The per-cycle condition is an AND over the trigger nets in their rare
    polarity; the temporal rule becomes real state:

    - ``consecutive`` ``k``: a ``k - 1``-stage shift register delays the
      condition, and the trigger fires when the condition holds now *and*
      held in each of the previous ``k - 1`` cycles;
    - ``cumulative`` ``k``: a sticky thermometer counter (stage ``i`` sets
      once the condition has held in at least ``i`` distinct cycles and never
      clears), firing on the ``k``-th activation and every one after it.

    The payload XORs the fire signal into the payload output at the output
    pin only: internal logic *and* flip-flops keep sampling the uncorrupted
    value, so a firing trigger is observable at a primary output in exactly
    the cycles it fires.  The batched evaluator in
    :mod:`repro.trojan.evaluation` relies on this equivalence.
    """
    infected = Netlist(f"{netlist.name}_{trojan.name or 'seq_trojan'}")
    for net in netlist.inputs:
        infected.add_input(net)

    payload = trojan.payload_output
    if netlist.gate_for(payload) is None:
        raise ValueError(
            f"payload output {payload!r} must be a gate-driven net of the netlist"
        )
    renamed = f"{payload}__pre_trojan"

    def original(net: str) -> str:
        """Internal logic keeps consuming the uncorrupted payload value."""
        return renamed if net == payload else net

    for ff in netlist.flip_flops:
        infected.add_flip_flop(ff.q, original(ff.d))
    for gate in netlist.gates:
        output = renamed if gate.output == payload else gate.output
        infected.add_gate(output, gate.gate_type, tuple(original(n) for n in gate.inputs))

    # Per-cycle condition: AND of the trigger nets in their rare polarity.
    literals: list[str] = []
    for index, (net, value) in enumerate(trojan.trigger.condition.requirements):
        source = original(net)
        if value == 1:
            literals.append(source)
        else:
            inverted = f"trojan_inv_{index}_{net}"
            infected.add_gate(inverted, GateType.NOT, (source,))
            literals.append(inverted)
    condition_net = "trojan_cond"
    if len(literals) == 1:
        infected.add_gate(condition_net, GateType.BUF, (literals[0],))
    else:
        infected.add_gate(condition_net, GateType.AND, tuple(literals))

    # Temporal hardware: k - 1 stages of real state feeding the fire signal.
    count = trojan.trigger.count
    fire_net = "trojan_fire"
    if count == 1:
        infected.add_gate(fire_net, GateType.BUF, (condition_net,))
    elif trojan.trigger.mode == "consecutive":
        previous_stage = None
        for stage in range(1, count):
            stage_q = f"trojan_shift_q{stage}"
            if previous_stage is None:
                infected.add_flip_flop(stage_q, condition_net)
            else:
                stage_d = f"trojan_shift_d{stage}"
                infected.add_gate(stage_d, GateType.AND, (previous_stage, condition_net))
                infected.add_flip_flop(stage_q, stage_d)
            previous_stage = stage_q
        infected.add_gate(fire_net, GateType.AND, (condition_net, previous_stage))
    else:  # cumulative: sticky thermometer counter
        previous_stage = None
        for stage in range(1, count):
            stage_q = f"trojan_count_q{stage}"
            stage_d = f"trojan_count_d{stage}"
            if previous_stage is None:
                infected.add_gate(stage_d, GateType.OR, (stage_q, condition_net))
            else:
                armed = f"trojan_count_armed{stage}"
                infected.add_gate(armed, GateType.AND, (previous_stage, condition_net))
                infected.add_gate(stage_d, GateType.OR, (stage_q, armed))
            infected.add_flip_flop(stage_q, stage_d)
            previous_stage = stage_q
        infected.add_gate(fire_net, GateType.AND, (condition_net, previous_stage))

    # Payload: XOR the fire signal into the payload output at the pin.
    infected.add_gate(payload, GateType.XOR, (renamed, fire_net))
    for net in netlist.outputs:
        infected.add_output(net)
    return infected


__all__ = [
    "sample_trojans",
    "insert_trojan",
    "sample_sequential_trojans",
    "insert_sequential_trojan",
]
