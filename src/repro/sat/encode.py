"""Tseitin encoding of gate-level netlists into CNF.

Every net in the combinational netlist maps to one CNF variable; each gate
contributes the standard Tseitin clauses constraining its output variable to
equal the gate function of its input variables.  The resulting CNF is
equisatisfiable with the circuit and, crucially for DETERRENT, a model of the
CNF directly gives an input pattern (read off the variables of the primary /
pseudo-primary inputs).
"""

from __future__ import annotations

from repro.circuits.gates import Gate, GateType
from repro.circuits.netlist import Netlist
from repro.sat.cnf import CNF, Literal


class CircuitEncoder:
    """Builds and caches the CNF encoding of a combinational netlist."""

    def __init__(self, netlist: Netlist) -> None:
        if netlist.is_sequential:
            raise ValueError(
                "CircuitEncoder requires a combinational netlist; apply full-scan "
                "conversion first (repro.circuits.scan.ensure_combinational)"
            )
        self.netlist = netlist
        self._cnf = CNF()
        self._var_of_net: dict[str, int] = {}
        self._encode()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def cnf(self) -> CNF:
        """The circuit CNF (do not mutate; copy if constraints must be added)."""
        return self._cnf

    def variable(self, net: str) -> int:
        """CNF variable of ``net``."""
        try:
            return self._var_of_net[net]
        except KeyError:
            raise KeyError(f"net {net!r} is not part of the encoded netlist") from None

    def literal(self, net: str, value: int) -> Literal:
        """Literal asserting ``net`` equals ``value`` (0 or 1)."""
        if value not in (0, 1):
            raise ValueError(f"value must be 0 or 1, got {value}")
        variable = self.variable(net)
        return variable if value == 1 else -variable

    def assumptions_for(self, assignment: dict[str, int]) -> list[Literal]:
        """Assumption literals for a net-name -> value mapping.

        Reads the net table directly (this runs once per SAT query); a bad
        net or value takes the :meth:`literal` path for its typed error.
        """
        var_of_net = self._var_of_net
        literals = []
        for net, value in assignment.items():
            variable = var_of_net.get(net)
            if variable is not None and (value == 1 or value == 0):
                literals.append(variable if value == 1 else -variable)
            else:
                literals.append(self.literal(net, value))
        return literals

    def decode_inputs(self, model: dict[int, bool]) -> dict[str, int]:
        """Extract the input-pattern part of a SAT model."""
        return {
            net: int(model.get(self._var_of_net[net], False))
            for net in self.netlist.combinational_sources()
        }

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def _encode(self) -> None:
        for net in self.netlist.combinational_sources():
            self._var_of_net[net] = self._cnf.new_var()
        for gate in self.netlist.topological_gates():
            self._var_of_net[gate.output] = self._cnf.new_var()
        for gate in self.netlist.topological_gates():
            self._encode_gate(gate)

    def _encode_gate(self, gate: Gate) -> None:
        output = self._var_of_net[gate.output]
        inputs = [self._var_of_net[net] for net in gate.inputs]
        gate_type = gate.gate_type
        if gate_type in (GateType.AND, GateType.NAND):
            self._encode_and(output, inputs, invert=gate_type is GateType.NAND)
        elif gate_type in (GateType.OR, GateType.NOR):
            self._encode_or(output, inputs, invert=gate_type is GateType.NOR)
        elif gate_type in (GateType.XOR, GateType.XNOR):
            self._encode_xor(output, inputs, invert=gate_type is GateType.XNOR)
        elif gate_type is GateType.NOT:
            self._cnf.add_clause([output, inputs[0]])
            self._cnf.add_clause([-output, -inputs[0]])
        elif gate_type is GateType.BUF:
            self._cnf.add_clause([-output, inputs[0]])
            self._cnf.add_clause([output, -inputs[0]])
        else:  # pragma: no cover - all gate types handled
            raise ValueError(f"unknown gate type {gate_type!r}")

    def _encode_and(self, output: int, inputs: list[int], invert: bool) -> None:
        out_lit = -output if invert else output
        # output -> every input
        for literal in inputs:
            self._cnf.add_clause([-out_lit, literal])
        # all inputs -> output
        self._cnf.add_clause([out_lit] + [-literal for literal in inputs])

    def _encode_or(self, output: int, inputs: list[int], invert: bool) -> None:
        out_lit = -output if invert else output
        for literal in inputs:
            self._cnf.add_clause([out_lit, -literal])
        self._cnf.add_clause([-out_lit] + list(inputs))

    def _encode_xor(self, output: int, inputs: list[int], invert: bool) -> None:
        # Chain binary XORs through auxiliary variables to keep clauses small.
        current = inputs[0]
        for next_input in inputs[1:-1] if len(inputs) > 2 else []:
            auxiliary = self._cnf.new_var()
            self._encode_xor2(auxiliary, current, next_input, invert=False)
            current = auxiliary
        last = inputs[-1] if len(inputs) > 1 else current
        if len(inputs) == 1:
            # Degenerate single-input XOR behaves as BUF (or NOT for XNOR).
            if invert:
                self._cnf.add_clause([output, current])
                self._cnf.add_clause([-output, -current])
            else:
                self._cnf.add_clause([-output, current])
                self._cnf.add_clause([output, -current])
            return
        self._encode_xor2(output, current, last, invert=invert)

    def _encode_xor2(self, output: int, a: int, b: int, invert: bool) -> None:
        out_lit = -output if invert else output
        self._cnf.add_clause([-out_lit, a, b])
        self._cnf.add_clause([-out_lit, -a, -b])
        self._cnf.add_clause([out_lit, -a, b])
        self._cnf.add_clause([out_lit, a, -b])
    # Note: for invert=True the four clauses above encode output == XNOR(a, b).


__all__ = ["CircuitEncoder"]
