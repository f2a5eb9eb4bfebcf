"""A CDCL (conflict-driven clause learning) SAT solver.

This is the library's replacement for the PicoSAT/pycosat solver the paper
uses.  The implementation follows the MiniSat architecture with the classic
performance stack on top:

- two-watched-literal unit propagation with **blocking literals** and flat
  per-literal watch arrays,
- first-UIP conflict analysis with clause learning and LBD (literal block
  distance) tracking,
- **EVSIDS** variable activities on an indexed max-heap
  (:class:`~repro.sat.heap.ActivityHeap`): additive bumps with a growing
  increment instead of decaying every activity, lazy heap deletion on
  assignment and re-insertion on backtrack,
- phase saving, carried across restarts,
- **Luby ("reluctant doubling") restarts** (geometric scheduling remains
  available through :class:`SolverConfig`),
- **clause-database reduction**: learned clauses are periodically forgotten
  worst-half-first by (LBD, activity), pinning reason clauses, binary
  clauses, and low-LBD "glue" clauses,
- incremental solving under assumptions.

Incremental assumptions matter for this reproduction: pairwise compatibility
of ``r`` rare nets requires ``O(r^2)`` satisfiability queries on the *same*
circuit encoding, so the encoder builds one CNF and the compatibility analysis
re-solves it under different assumption literals, keeping learned clauses.
Clause forgetting is what keeps that incremental reuse affordable on deep
time-frame unrolls, where the learned-clause set would otherwise grow without
bound across :meth:`~repro.sat.unroll.TimeFrameExpansion.extend_to` calls.

Configuration is a frozen :class:`SolverConfig`; cumulative counters are a
:class:`SolverStats` snapshot from :meth:`CdclSolver.stats`.

Assignments live in one list indexed by the signed literal (MiniSat's
literal-indexed layout): ``val[v]`` is variable ``v``'s value and ``val[-v]``
-- through Python's negative indexing -- its complement, so every literal test
on the hot paths is a single lookup with no sign branch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from time import perf_counter

from repro.obs.profile import hot_path
from repro.sat.cnf import CNF, Literal
from repro.sat.heap import ActivityHeap

#: Restart schedules :class:`SolverConfig` accepts.
RESTART_POLICIES = ("luby", "geometric")


@dataclass(frozen=True)
class SolverConfig:
    """Frozen CDCL tuning knobs (the solver's public configuration surface).

    Attributes:
        var_decay: EVSIDS decay; each conflict grows the bump increment by
            ``1 / var_decay`` (0 < var_decay < 1; higher = longer memory).
        clause_decay: the same growth rule for learned-clause activities,
            used as the tie-break when forgetting equal-LBD clauses.
        restart_policy: ``"luby"`` (reluctant doubling, the default) or
            ``"geometric"`` (the pre-overhaul schedule).
        restart_base: conflicts per restart unit — the Luby multiplier, or
            the first geometric limit.
        restart_growth: geometric limit multiplier (ignored under Luby).
        reduce_base: learned clauses tolerated before the first reduction.
        reduce_growth: limit increase after each reduction (so the database
            is allowed to grow slowly as the search matures).
        reduce_fraction: fraction of forgettable learned clauses deleted per
            reduction, worst (highest LBD, lowest activity) first.
        glue_lbd: clauses with LBD <= this are never forgotten ("glue").
        verify_models: re-check every SAT model against the full problem
            clause database before returning it.  Off by default — it costs
            O(formula) per SAT answer, and the pipelines that consume models
            replay their witnesses through the compiled simulation engines
            anyway; turn it on when debugging encodings.
    """

    var_decay: float = 0.95
    clause_decay: float = 0.999
    restart_policy: str = "luby"
    restart_base: int = 100
    restart_growth: float = 1.5
    reduce_base: int = 2000
    reduce_growth: int = 300
    reduce_fraction: float = 0.5
    glue_lbd: int = 2
    verify_models: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.var_decay < 1.0:
            raise ValueError(f"var_decay must be in (0, 1), got {self.var_decay}")
        if not 0.0 < self.clause_decay < 1.0:
            raise ValueError(f"clause_decay must be in (0, 1), got {self.clause_decay}")
        if self.restart_policy not in RESTART_POLICIES:
            raise ValueError(
                f"restart_policy must be one of {RESTART_POLICIES}, "
                f"got {self.restart_policy!r}"
            )
        if self.restart_base < 1:
            raise ValueError(f"restart_base must be >= 1, got {self.restart_base}")
        if self.restart_growth <= 1.0:
            raise ValueError(f"restart_growth must be > 1, got {self.restart_growth}")
        if self.reduce_base < 1:
            raise ValueError(f"reduce_base must be >= 1, got {self.reduce_base}")
        if self.reduce_growth < 0:
            raise ValueError(f"reduce_growth must be >= 0, got {self.reduce_growth}")
        if not 0.0 < self.reduce_fraction <= 1.0:
            raise ValueError(
                f"reduce_fraction must be in (0, 1], got {self.reduce_fraction}"
            )
        if self.glue_lbd < 0:
            raise ValueError(f"glue_lbd must be >= 0, got {self.glue_lbd}")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "SolverConfig":
        """Build a config from a plain dict (the ``--set solver=...`` path).

        Unknown keys raise ``ValueError`` with the supported key list, so a
        typo on the CLI fails loudly instead of being silently ignored.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValueError(
                f"unknown SolverConfig key(s): {', '.join(unknown)}; "
                f"supported: {', '.join(sorted(known))}"
            )
        return cls(**mapping)

    def replace(self, **overrides) -> "SolverConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **overrides)

    def as_dict(self) -> dict:
        """Plain-dict view (JSON-ready, stable field order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class SolverStats:
    """Cumulative per-solver counters (monotone across queries).

    ``learned_clauses``/``deleted_clauses`` count lifetime events, not the
    current database size; ``max_trail`` is the deepest assignment stack any
    query reached.
    """

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    max_trail: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (JSON-ready, stable key order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Aggregate two stats snapshots (sums; ``max_trail`` takes the max)."""
        return SolverStats(
            conflicts=self.conflicts + other.conflicts,
            decisions=self.decisions + other.decisions,
            propagations=self.propagations + other.propagations,
            restarts=self.restarts + other.restarts,
            learned_clauses=self.learned_clauses + other.learned_clauses,
            deleted_clauses=self.deleted_clauses + other.deleted_clauses,
            max_trail=max(self.max_trail, other.max_trail),
        )


@dataclass
class SolverResult:
    """Outcome of a SAT query."""

    satisfiable: bool
    model: dict[int, bool] | None = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    stats: SolverStats | None = None

    def value(self, variable: int) -> bool:
        """Value of ``variable`` in the model (SAT results only)."""
        if self.model is None:
            raise ValueError("no model available: formula was unsatisfiable")
        return self.model.get(variable, False)


#: A clause is a plain ``list`` of literals; ``clause[0]``/``clause[1]`` are
#: its watched literals.  It is not a subclass: CPython specialises indexing
#: (``BINARY_SUBSCR``/``STORE_SUBSCR``) for exact lists only, and a subclass
#: makes every ``clause[i]`` in the propagation loop take the slow generic
#: path.  Learned-clause metadata lives beside the clause, in
#: :attr:`CdclSolver._learned_meta`.
Clause = list[Literal]


def luby(index: int) -> int:
    """The reluctant-doubling sequence 1,1,2,1,1,2,4,... (0-based index)."""
    size, height = 1, 0
    while size < index + 1:
        height += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) >> 1
        height -= 1
        index %= size
    return 1 << height


#: Rescale threshold/factor for EVSIDS activities (MiniSat's constants).
_ACTIVITY_LIMIT = 1e100
_ACTIVITY_RESCALE = 1e-100
_CLAUSE_ACTIVITY_LIMIT = 1e20
_CLAUSE_ACTIVITY_RESCALE = 1e-20


def _check_literal(literal: Literal, num_vars: int) -> None:
    # Literal 0 is the sentinel slot and an out-of-range literal would
    # alias another variable's complement slot in ``_val``.
    if literal == 0 or abs(literal) > num_vars:
        raise ValueError(
            f"literal {literal} is not a literal over variables 1..{num_vars}"
        )


def _normalise(literals, num_vars: int) -> list[Literal] | None:
    """The clause sorted by variable, without repeats; None for a tautology.

    Raises ``ValueError`` unless every literal names a variable in
    ``1..num_vars``.  This is the one normalisation rule: both
    :meth:`CdclSolver.add_clause` and :meth:`ClauseTemplate.from_cnf` apply
    it.  Shifting a normalised clause's variables by a common offset keeps it
    normalised, so a template's shifted copies need not be normalised again.
    """
    clause = sorted(set(literals), key=abs)
    # Sorted by variable, so the extremes bound every literal.
    if clause and (not clause[0] or abs(clause[-1]) > num_vars):
        _check_literal(clause[0], num_vars)
        _check_literal(clause[-1], num_vars)
    for index in range(1, len(clause)):
        if clause[index] == -clause[index - 1]:
            return None  # tautology: x and -x sort next to each other
    return clause


# ``eq=False``: a generated ``__hash__`` would hash the slices, which are
# unhashable before Python 3.12.
@dataclass(frozen=True, eq=False)
class ClauseTemplate:
    """A CNF normalised once, for adding many times at variable offsets.

    Holds every clause of the source CNF that is not a tautology, each
    sorted by variable without repeated literals, in source order.  The
    clauses are stored end to end in ``literals``, and ``slices[i]`` cuts
    clause ``i`` out of them: :meth:`CdclSolver.add_template` shifts the
    whole flat tuple in one pass and slices the clauses out of the result.
    The time-frame expansion builds one template per netlist and adds it once
    per clock cycle.
    """

    num_vars: int
    literals: tuple[Literal, ...]
    slices: tuple[slice, ...]

    @classmethod
    def from_cnf(cls, cnf: CNF) -> "ClauseTemplate":
        """Normalise every clause of ``cnf`` against its ``num_vars``."""
        literals: list[Literal] = []
        slices = []
        for clause in cnf.clauses:
            clause = _normalise(clause, cnf.num_vars)
            if clause is not None:
                slices.append(slice(len(literals), len(literals) + len(clause)))
                literals += clause
        return cls(cnf.num_vars, tuple(literals), tuple(slices))


def _unassigned(clause: list[Literal], val: list) -> list[Literal] | None:
    """``clause``'s unassigned literals, or None when one of them is true."""
    kept = []
    for literal in clause:
        value = val[literal]
        if value is None:
            kept.append(literal)
        elif value:
            return None
    return kept


def _relayout(table: list, num_vars: int, capacity: int) -> list:
    """Copy a literal-indexed table into a longer list of ``capacity`` slots."""
    grown = [None] * capacity
    grown[: num_vars + 1] = table[: num_vars + 1]
    if num_vars:
        grown[-num_vars:] = table[-num_vars:]
    return grown


class CdclSolver:
    """Incremental CDCL solver over a :class:`~repro.sat.cnf.CNF` formula."""

    def __init__(self, cnf: CNF | None = None, *, config: SolverConfig | None = None) -> None:
        self.config = config if config is not None else SolverConfig()

        self._num_vars = 0
        self._learned: list[Clause] = []
        self._problem: list[Clause] = []
        # ``id(clause) -> [lbd, activity]`` for every clause in ``_learned``
        # and nothing else: membership is the "is learned" test.  Entries
        # leave with their clause in ``_reduce_db``, so a stale id can never
        # alias a newly allocated list.
        self._learned_meta: dict[int, list] = {}
        # Per-literal tables are indexed by the signed literal itself:
        # positive literals index the front of each list and negative ones
        # wrap to its back through Python's negative indexing.
        # ``_ensure_vars`` doubles the capacity before the two ranges meet;
        # index 0 is an unused sentinel.
        #
        # ``_val[lit]`` is True, False or None (unassigned), and
        # ``_val[-lit]`` always holds the complement.
        self._val: list[bool | None] = [None]
        # ``_watches[lit]`` holds ``(clause, blocking literal)`` pairs for the
        # clauses watching ``lit``, visited when ``lit`` becomes false.
        # Binary clauses live in their own implication lists instead
        # (``_binary[lit]`` holds ``(implied literal, clause)``): their
        # watches never move, so propagation skips the whole
        # replacement-search dance — on Tseitin circuit encodings most
        # clauses are binary.
        self._watches: list[list[tuple[Clause, Literal]] | None] = [None]
        self._binary: list[list[tuple[Literal, Clause]] | None] = [None]
        self._level: list[int] = [0]
        self._reason: list[Clause | None] = [None]
        self._phase: list[bool] = [False]
        self._heap = ActivityHeap()
        self._trail: list[Literal] = []
        self._trail_limits: list[int] = []
        self._queue_head = 0
        self._var_inc = 1.0
        self._clause_inc = 1.0
        self._restarts_scheduled = 0
        self._reduce_limit = self.config.reduce_base
        self._stats = SolverStats()
        self._unsat = False
        if cnf is not None:
            self.add_cnf(cnf)

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def add_cnf(self, cnf: CNF) -> None:
        """Load all clauses of ``cnf`` into the solver."""
        self._ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            self.add_clause(clause)

    def add_clause(self, literals: list[Literal]) -> None:
        """Add a clause; may only be called at decision level 0.

        Every literal must name a variable in ``1..num_vars`` (grow the space
        with :meth:`reserve_vars` first); anything else raises ``ValueError``.
        """
        if self._trail_limits:
            raise RuntimeError("clauses can only be added at decision level 0")
        clause = _normalise(literals, self._num_vars)
        if clause is not None:
            self._attach(clause)

    def add_template(self, template: ClauseTemplate, offset: int) -> None:
        """Add ``template``'s clauses with every variable shifted by ``offset``.

        The shifted block, variables ``offset + 1 .. offset +
        template.num_vars``, must lie within the reserved variables, or
        ``ValueError`` is raised before anything is added.  May only be called
        at decision level 0.  The solver ends up exactly as if each shifted
        clause had gone through :meth:`add_clause` in template order: the
        problem clauses, watch lists, assignments and trail are identical.
        """
        if self._trail_limits:
            raise RuntimeError("clauses can only be added at decision level 0")
        size = template.num_vars
        if offset < 0 or offset + size > self._num_vars:
            raise ValueError(
                f"template block {offset + 1}..{offset + size} is not within "
                f"variables 1..{self._num_vars}"
            )
        # ``shift[literal]`` is the literal moved into the block, negative
        # literals included through negative indexing.
        shift = list(range(offset, offset + size + 1))
        shift += range(-offset - size, -offset)
        shifted = list(map(shift.__getitem__, template.literals))
        attach = self._attach
        for clause in map(shifted.__getitem__, template.slices):
            attach(clause)

    def _attach(self, clause: Clause) -> None:
        """Add one normalised clause at decision level 0, taking ownership.

        The step :meth:`add_clause` and :meth:`add_template` share.  Literals
        false at level 0 are dropped and a clause already satisfied there is
        skipped.  A unit clause is assigned and propagated at once, so later
        clauses see its consequences; an empty one makes the formula UNSAT.
        """
        val = self._val
        for literal in clause:
            if val[literal] is not None:
                clause = _unassigned(clause, val)
                break
        if clause is None:
            return  # already satisfied at level 0
        if len(clause) > 1:
            self._problem.append(clause)
            self._watch(clause)
        elif clause:
            self._enqueue(clause[0], reason=None)
            if self._propagate() is not None:
                self._unsat = True
        else:
            self._unsat = True

    def reserve_vars(self, num_vars: int) -> None:
        """Grow the variable space to at least ``num_vars`` (idempotent).

        Callers that allocate variables externally — e.g. the time-frame
        expansion handing out per-frame blocks and temporal auxiliary
        variables — must reserve them before using them in clauses,
        assumptions or :meth:`set_phases`.
        """
        if num_vars < 0:
            raise ValueError(f"num_vars must be >= 0, got {num_vars}")
        self._ensure_vars(num_vars)

    def set_phases(self, phases: dict[int, bool]) -> None:
        """Set the preferred decision phase of selected variables.

        The solver picks this polarity the next time it branches on the
        variable (phase saving later overrides it as assignments happen).
        Callers that want a persistent bias re-apply the phases before each
        query; :class:`repro.sat.justify.Justifier` does this for rare-net
        values so that SAT witnesses opportunistically activate additional
        rare nets beyond the ones explicitly constrained.
        """
        for variable, value in phases.items():
            if not 1 <= variable <= self._num_vars:
                raise ValueError(f"unknown variable {variable}")
            self._phase[variable] = bool(value)

    def stats(self) -> SolverStats:
        """Snapshot of the cumulative solver counters (an independent copy)."""
        # Built field by field: ``dataclasses.replace`` takes twice as long,
        # and every query returns a snapshot.
        stats = self._stats
        return SolverStats(
            conflicts=stats.conflicts,
            decisions=stats.decisions,
            propagations=stats.propagations,
            restarts=stats.restarts,
            learned_clauses=stats.learned_clauses,
            deleted_clauses=stats.deleted_clauses,
            max_trail=stats.max_trail,
        )

    @property
    def num_learned(self) -> int:
        """Current learned-clause database size (after any forgetting)."""
        return len(self._learned)

    def _ensure_vars(self, num_vars: int) -> None:
        old = self._num_vars
        added = num_vars - old
        if added <= 0:
            return
        capacity = len(self._val)
        if 2 * num_vars >= capacity:
            while 2 * num_vars >= capacity:
                capacity *= 2
            self._val = _relayout(self._val, old, capacity)
            self._watches = _relayout(self._watches, old, capacity)
            self._binary = _relayout(self._binary, old, capacity)
        # A loop, not slice assignment: every new literal needs its own
        # empty list either way, and building them in list comprehensions
        # measured slower for one variable and for a frame block alike.
        watches, binary = self._watches, self._binary
        for variable in range(old + 1, num_vars + 1):
            watches[variable], watches[-variable] = [], []
            binary[variable], binary[-variable] = [], []
        self._num_vars = num_vars
        self._level.extend([0] * added)
        self._reason.extend([None] * added)
        self._phase.extend([False] * added)
        self._heap.grow(num_vars)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, assumptions: list[Literal] | None = None) -> SolverResult:
        """Solve the formula under optional assumption literals.

        Assumption literals must name variables in ``1..num_vars``; anything
        else raises ``ValueError``.
        """
        assumptions = list(assumptions or [])
        num_vars = self._num_vars
        for literal in assumptions:
            if not (literal and -num_vars <= literal <= num_vars):
                _check_literal(literal, num_vars)
        if self._unsat:
            return self._result(False)
        self._backtrack(0)
        if self._propagate() is not None:
            self._unsat = True
            return self._result(False)

        config = self.config
        stats = self._stats
        # Fetch-once profiling probes: None while telemetry is off, so the
        # loop below pays a single `is None` branch per iteration.
        propagate_probe = hot_path("sat.propagate", every=64)
        decide_probe = hot_path("sat.decide", every=16)
        self._restarts_scheduled = 0  # each query restarts the schedule
        restart_limit = self._next_restart_limit()
        conflicts_since_restart = 0
        while True:
            if propagate_probe is not None and propagate_probe.sample():
                probe_start = perf_counter()
                conflict = self._propagate()
                propagate_probe.observe(perf_counter() - probe_start)
            else:
                conflict = self._propagate()
            if conflict is not None:
                stats.conflicts += 1
                conflicts_since_restart += 1
                if not self._trail_limits:
                    self._unsat = True
                    return self._result(False)
                learned, backjump, lbd = self._analyze(conflict)
                if not self._handle_learned(learned, backjump, lbd):
                    self._backtrack(0)
                    return self._result(False)
                self._var_inc *= 1.0 / config.var_decay
                self._clause_inc *= 1.0 / config.clause_decay
                if conflicts_since_restart >= restart_limit:
                    stats.restarts += 1
                    conflicts_since_restart = 0
                    restart_limit = self._next_restart_limit()
                    self._backtrack(0)
                    if len(self._learned) >= self._reduce_limit:
                        self._reduce_db()
                continue

            # Re-establish assumptions after any backtracking.
            status = self._enqueue_assumptions(assumptions)
            if status == "conflict":
                self._backtrack(0)
                return self._result(False)
            if status == "enqueued":
                continue

            if decide_probe is not None and decide_probe.sample():
                probe_start = perf_counter()
                variable = self._pick_branch_variable()
                decide_probe.observe(perf_counter() - probe_start)
            else:
                variable = self._pick_branch_variable()
            if variable is None:
                if len(self._trail) > stats.max_trail:
                    stats.max_trail = len(self._trail)
                # Every variable is assigned here, so the slice is all bools.
                model = dict(zip(range(1, num_vars + 1), self._val[1 : num_vars + 1]))
                if config.verify_models:
                    self._verify_model(model)
                result = self._result(True, model)
                self._backtrack(0)
                return result
            stats.decisions += 1
            if len(self._trail) > stats.max_trail:
                stats.max_trail = len(self._trail)
            self._trail_limits.append(len(self._trail))
            literal = variable if self._phase[variable] else -variable
            self._enqueue(literal, reason=None)

    def _next_restart_limit(self) -> int:
        """Conflicts allowed before the next restart, per the active policy."""
        config = self.config
        index = self._restarts_scheduled
        self._restarts_scheduled += 1
        if config.restart_policy == "luby":
            return config.restart_base * luby(index)
        return int(config.restart_base * config.restart_growth ** index)

    # ------------------------------------------------------------------
    # Internals: assignment and propagation
    # ------------------------------------------------------------------
    def _enqueue_assumptions(self, assumptions: list[Literal]) -> str:
        """Ensure all assumptions are decided; returns 'done'/'enqueued'/'conflict'."""
        val = self._val
        for literal in assumptions:
            value = val[literal]
            if value is True:
                continue
            if value is False:
                return "conflict"
            self._trail_limits.append(len(self._trail))
            self._enqueue(literal, reason=None)
            return "enqueued"
        return "done"

    def _enqueue(self, literal: Literal, reason: Clause | None) -> bool:
        val = self._val
        value = val[literal]
        if value is not None:
            return value
        val[literal] = True
        val[-literal] = False
        variable = literal if literal > 0 else -literal
        self._level[variable] = len(self._trail_limits)
        self._reason[variable] = reason
        self._phase[variable] = literal > 0
        self._trail.append(literal)
        return True

    def _propagate(self) -> Clause | None:
        """Unit propagation; returns a conflicting clause or None.

        Binary clauses propagate through dedicated implication lists (no
        watch maintenance at all); longer clauses use blocking literals so
        the common case — the visited clause is already satisfied elsewhere
        — is a single list lookup with no clause access, and an in-place
        two-pointer sweep compacts each watch list without allocating a
        replacement.  The replacement search tries the third literal before
        looping, which settles the three-literal Tseitin AND/OR/XOR clauses
        without a loop.  Unit enqueues are inlined: the watched literal is
        known to be unassigned at that point.
        """
        trail = self._trail
        val = self._val
        level = self._level
        reason = self._reason
        phase = self._phase
        watches = self._watches
        binary = self._binary
        # Propagation never opens a decision level, so this is loop-invariant.
        current_level = len(self._trail_limits)
        head = self._queue_head
        start = head
        while head < len(trail):
            literal = trail[head]
            head += 1
            falsified = -literal
            for implied, clause in binary[falsified]:
                value = val[implied]
                if value is None:
                    val[implied] = True
                    val[-implied] = False
                    variable = implied if implied > 0 else -implied
                    level[variable] = current_level
                    reason[variable] = clause
                    phase[variable] = implied > 0
                    trail.append(implied)
                elif value is False:
                    self._queue_head = head
                    self._stats.propagations += head - start
                    return clause
            watch_list = watches[falsified]
            if not watch_list:
                continue
            keep = 0
            unvisited = iter(watch_list)
            for entry in unvisited:
                # Blocking literal already true: clause satisfied, keep as-is.
                if val[entry[1]] is True:
                    watch_list[keep] = entry
                    keep += 1
                    continue
                clause = entry[0]
                # Ensure the falsified literal sits at position 1.
                if clause[0] == falsified:
                    clause[0] = clause[1]
                    clause[1] = falsified
                first = clause[0]
                first_value = val[first]
                if first_value is True:
                    watch_list[keep] = (clause, first)
                    keep += 1
                    continue
                alternative = clause[2]
                if val[alternative] is not False:
                    clause[1] = alternative
                    clause[2] = falsified
                    watches[alternative].append((clause, first))
                    continue
                alt_index = 3
                size = len(clause)
                while alt_index < size:
                    alternative = clause[alt_index]
                    if val[alternative] is not False:
                        clause[1] = alternative
                        clause[alt_index] = falsified
                        watches[alternative].append((clause, first))
                        break
                    alt_index += 1
                else:
                    watch_list[keep] = (clause, first)
                    keep += 1
                    if first_value is False:
                        # Conflict: slide the unvisited tail down and stop.
                        watch_list[keep:] = list(unvisited)
                        self._queue_head = head
                        self._stats.propagations += head - start
                        return clause
                    # Unit: ``first`` is unassigned — inline the enqueue.
                    val[first] = True
                    val[-first] = False
                    variable = first if first > 0 else -first
                    level[variable] = current_level
                    reason[variable] = clause
                    phase[variable] = first > 0
                    trail.append(first)
            del watch_list[keep:]
        self._queue_head = head
        self._stats.propagations += head - start
        return None

    def _watch(self, clause: Clause) -> None:
        """Register a clause under its first two literals."""
        first, second = clause[0], clause[1]
        if len(clause) == 2:
            self._binary[first].append((second, clause))
            self._binary[second].append((first, clause))
        else:
            self._watches[first].append((clause, second))
            self._watches[second].append((clause, first))

    def _unwatch(self, literal: Literal, clause: Clause) -> None:
        watch_list = self._watches[literal]
        for index, (watched, _) in enumerate(watch_list):
            if watched is clause:
                watch_list[index] = watch_list[-1]
                watch_list.pop()
                return
        raise RuntimeError("internal solver error: clause missing from watch list")

    # ------------------------------------------------------------------
    # Internals: conflict analysis
    # ------------------------------------------------------------------
    def _analyze(self, conflict: Clause) -> tuple[list[Literal], int, int]:
        """First-UIP analysis: returns (learned clause, backjump level, LBD)."""
        level = self._level
        trail = self._trail
        learned_meta = self._learned_meta
        current_level = len(self._trail_limits)
        learned: list[Literal] = []
        seen: set[int] = set()
        counter = 0
        clause: Clause | None = conflict
        trail_index = len(trail) - 1
        asserting_literal: Literal | None = None

        while True:
            assert clause is not None
            meta = learned_meta.get(id(clause))
            if meta is not None:
                self._bump_clause(meta)
            for literal in clause:
                variable = literal if literal > 0 else -literal
                if variable in seen or level[variable] == 0:
                    continue
                seen.add(variable)
                self._bump_activity(variable)
                if level[variable] == current_level:
                    counter += 1
                else:
                    learned.append(literal)
            # Find the next marked literal on the trail to resolve.  Variables
            # stay marked in ``seen`` once visited so a later reason clause
            # cannot re-introduce (and re-count) an already-resolved variable.
            while True:
                literal = trail[trail_index]
                trail_index -= 1
                variable = literal if literal > 0 else -literal
                if variable in seen and level[variable] == current_level:
                    break
            counter -= 1
            if counter == 0:
                asserting_literal = -literal
                break
            clause = self._reason[variable]

        learned.insert(0, asserting_literal)
        if len(learned) == 1:
            backjump = 0
        else:
            backjump = max(level[abs(lit)] for lit in learned[1:])
        lbd = len({level[abs(lit)] for lit in learned})
        return learned, backjump, lbd

    def _handle_learned(self, learned: list[Literal], backjump: int, lbd: int) -> bool:
        """Backjump, install the learned clause, and assert its first literal."""
        self._backtrack(backjump)
        self._stats.learned_clauses += 1
        if len(learned) == 1:
            return self._enqueue(learned[0], reason=None)
        # Keep the two-watched-literal invariant: the second watcher must be a
        # literal assigned at the backjump level so that un-assigning it later
        # re-triggers a visit of this clause.
        deepest = max(range(1, len(learned)), key=lambda i: self._level[abs(learned[i])])
        learned[1], learned[deepest] = learned[deepest], learned[1]
        self._learned_meta[id(learned)] = [lbd, self._clause_inc]
        self._learned.append(learned)
        self._watch(learned)
        return self._enqueue(learned[0], reason=learned)

    def _reduce_db(self) -> int:
        """Forget the worst learned clauses; returns how many were deleted.

        Called at restart points (so the trail is short), this removes
        ``reduce_fraction`` of the *forgettable* learned clauses, worst
        first — highest LBD, then lowest activity.  Three classes are
        pinned and never deleted:

        - **reason clauses** of any currently-assigned variable (deleting
          one would orphan the implication graph),
        - **glue clauses** (LBD <= ``glue_lbd``), which encode tight
          cross-level dependencies and are cheap to keep,
        - **binary clauses**, whose watch cost is negligible.
        """
        meta = self._learned_meta
        locked = {id(reason) for reason in self._reason if id(reason) in meta}
        config = self.config
        forgettable = [
            clause
            for clause in self._learned
            if id(clause) not in locked
            and meta[id(clause)][0] > config.glue_lbd
            and len(clause) > 2
        ]
        victims = int(len(forgettable) * config.reduce_fraction)
        if victims == 0:
            self._reduce_limit += config.reduce_growth
            return 0
        forgettable.sort(key=lambda clause: (-meta[id(clause)][0], meta[id(clause)][1]))
        doomed = {id(clause) for clause in forgettable[:victims]}
        for clause in forgettable[:victims]:
            self._unwatch(clause[0], clause)
            self._unwatch(clause[1], clause)
            del meta[id(clause)]
        self._learned = [clause for clause in self._learned if id(clause) not in doomed]
        self._stats.deleted_clauses += victims
        self._reduce_limit += config.reduce_growth
        return victims

    def _verify_model(self, model: dict[int, bool]) -> None:
        """Sanity check: every problem clause must be satisfied by the model."""
        for clause in self._problem:
            if not any(model[abs(lit)] == (lit > 0) for lit in clause):
                raise RuntimeError(
                    "internal solver error: model does not satisfy a clause"
                )

    def _bump_activity(self, variable: int) -> None:
        if self._heap.bump(variable, self._var_inc) > _ACTIVITY_LIMIT:
            self._heap.rescale(_ACTIVITY_RESCALE)
            self._var_inc *= _ACTIVITY_RESCALE

    def _bump_clause(self, meta: list) -> None:
        """Bump a learned clause's activity, given its ``[lbd, activity]`` entry."""
        meta[1] += self._clause_inc
        if meta[1] > _CLAUSE_ACTIVITY_LIMIT:
            for entry in self._learned_meta.values():
                entry[1] *= _CLAUSE_ACTIVITY_RESCALE
            self._clause_inc *= _CLAUSE_ACTIVITY_RESCALE

    # ------------------------------------------------------------------
    # Internals: decisions, backtracking
    # ------------------------------------------------------------------
    def _backtrack(self, level: int) -> None:
        """Undo every decision level above ``level``.

        One pass over the undone trail slice unassigns each variable and
        re-inserts it into the branch heap (:meth:`ActivityHeap.push`
        inlined), in trail order as :meth:`ActivityHeap.push_many` would.
        """
        trail_limits = self._trail_limits
        if len(trail_limits) <= level:
            return
        limit = trail_limits[level]
        trail = self._trail
        val = self._val
        reason = self._reason
        branch = self._heap
        heap, pos, act = branch._heap, branch._pos, branch._act
        for literal in trail[limit:]:
            val[literal] = None
            val[-literal] = None
            variable = literal if literal > 0 else -literal
            reason[variable] = None
            if pos[variable] >= 0:
                continue
            position = len(heap)
            heap.append(variable)
            activity = act[variable]
            while position > 0:
                parent_position = (position - 1) >> 1
                parent = heap[parent_position]
                if act[parent] >= activity:
                    break
                heap[position] = parent
                pos[parent] = position
                position = parent_position
            heap[position] = variable
            pos[variable] = position
        del trail[limit:]
        del trail_limits[level:]
        self._queue_head = min(self._queue_head, len(trail))

    def _pick_branch_variable(self) -> int | None:
        """Pop the most active unassigned variable; None once all are assigned.

        :meth:`ActivityHeap.pop` is inlined, and assigned variables met on
        the way are dropped (lazy deletion).  When the trail already assigns
        every variable, the heap is emptied in one sweep instead: popping it
        empty reaches the same state, one sift per entry later.
        """
        branch = self._heap
        heap, pos = branch._heap, branch._pos
        if len(self._trail) == self._num_vars:
            for variable in heap:
                pos[variable] = -1
            heap.clear()
            return None
        act = branch._act
        val = self._val
        while heap:
            top = heap[0]
            pos[top] = -1
            last = heap.pop()
            if heap:
                # Sift ``last`` down from the root.
                size = len(heap)
                activity = act[last]
                position = 0
                while True:
                    child_position = 2 * position + 1
                    if child_position >= size:
                        break
                    right = child_position + 1
                    if right < size and act[heap[right]] > act[heap[child_position]]:
                        child_position = right
                    child = heap[child_position]
                    if activity >= act[child]:
                        break
                    heap[position] = child
                    pos[child] = position
                    position = child_position
                heap[position] = last
                pos[last] = position
            if val[top] is None:
                return top
        return None

    def _result(self, satisfiable: bool, model: dict[int, bool] | None = None) -> SolverResult:
        snapshot = self.stats()
        return SolverResult(
            satisfiable=satisfiable,
            model=model,
            conflicts=snapshot.conflicts,
            decisions=snapshot.decisions,
            propagations=snapshot.propagations,
            stats=snapshot,
        )


def solve_cnf(
    cnf: CNF,
    assumptions: list[Literal] | None = None,
    config: SolverConfig | None = None,
) -> SolverResult:
    """One-shot convenience wrapper: build a solver, load ``cnf``, solve."""
    return CdclSolver(cnf, config=config).solve(assumptions)


__all__ = [
    "RESTART_POLICIES",
    "CdclSolver",
    "ClauseTemplate",
    "SolverConfig",
    "SolverResult",
    "SolverStats",
    "luby",
    "solve_cnf",
]
