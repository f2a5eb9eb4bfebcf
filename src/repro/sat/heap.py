"""Indexed max-heap over variable activities (the EVSIDS branch order).

The solver's branch heuristic needs three operations to be fast: *pop the
unassigned variable of maximum activity*, *bump one variable's activity*, and
*re-insert a variable after backtracking*.  A plain ``dict``/linear scan makes
the first O(num_vars) per decision — the dominant cost on deep time-frame
unrolls — so :class:`ActivityHeap` keeps variables in a binary max-heap with
an inverse position index, giving O(log n) for all three.

Deletion is **lazy** in the MiniSat style: assigning a variable does not
remove it from the heap; the solver simply discards assigned variables as it
pops, and :meth:`push` re-inserts on backtrack (a no-op for variables still
in the heap).  Activities live here, not in the solver, so a bump can restore
the heap order in the same O(log n) sift.

All comparisons are on activity alone; equal activities keep a deterministic
(insertion/sift) order, which is what makes solver runs — and therefore
SAT-guided witness sets — bit-reproducible for a fixed seed.

:class:`~repro.sat.solver.CdclSolver` inlines :meth:`ActivityHeap.pop` and
:meth:`ActivityHeap.push` on its decision and backtrack paths, working on
``_heap``/``_pos``/``_act`` directly; a change to the sift order here must be
mirrored there.  Every list is mutated in place, never rebound, so those
references stay valid.
"""

from __future__ import annotations


class ActivityHeap:
    """Binary max-heap of variables keyed by activity, with position index."""

    __slots__ = ("_heap", "_pos", "_act")

    def __init__(self, num_vars: int = 0) -> None:
        # Index 0 of ``_act``/``_pos`` is unused (variables are 1-based).
        self._act: list[float] = [0.0] * (num_vars + 1)
        self._heap: list[int] = list(range(1, num_vars + 1))
        self._pos: list[int] = [-1] + list(range(num_vars))

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, variable: int) -> bool:
        return 0 < variable < len(self._pos) and self._pos[variable] >= 0

    @property
    def num_vars(self) -> int:
        """Highest variable the heap knows about."""
        return len(self._act) - 1

    def activity(self, variable: int) -> float:
        """Current activity of ``variable``."""
        return self._act[variable]

    # ------------------------------------------------------------------
    # Growth and mutation
    # ------------------------------------------------------------------
    def grow(self, num_vars: int) -> None:
        """Extend the variable space to ``num_vars``, inserting new variables.

        Fresh variables start at activity 0.0, which is <= every existing
        activity, so appending them at the leaves, in order, preserves the
        heap order.  A block is appended with one ``extend`` per list; a
        single variable, the way auxiliary variables arrive, with ``append``,
        which is cheaper than building the one-element ranges.
        """
        act, heap = self._act, self._heap
        old = len(act) - 1
        added = num_vars - old
        if added == 1:
            act.append(0.0)
            self._pos.append(len(heap))
            heap.append(num_vars)
        elif added > 0:
            size = len(heap)
            act.extend([0.0] * added)
            self._pos.extend(range(size, size + added))
            heap.extend(range(old + 1, num_vars + 1))

    def push(self, variable: int) -> None:
        """Insert ``variable`` if absent (no-op when already in the heap)."""
        if self._pos[variable] >= 0:
            return
        position = len(self._heap)
        self._heap.append(variable)
        self._pos[variable] = position
        self._sift_up(position)

    def push_many(self, variables) -> None:
        """Bulk :meth:`push`: re-insert every listed variable that is absent.

        Negative entries are accepted and treated as literals (the sign is
        ignored), so the solver can hand a backtracked trail slice straight
        over without building an intermediate variable list.  One inlined
        sift-up per insertion — this is the backtracking hot path.
        """
        heap, pos, act = self._heap, self._pos, self._act
        for variable in variables:
            if variable < 0:
                variable = -variable
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

    def pop(self) -> int | None:
        """Remove and return the maximum-activity variable (None when empty)."""
        heap = self._heap
        if not heap:
            return None
        top = heap[0]
        self._pos[top] = -1
        last = heap.pop()
        if heap:
            heap[0] = last
            self._pos[last] = 0
            self._sift_down(0)
        return top

    def bump(self, variable: int, increment: float) -> float:
        """Add ``increment`` to the activity; restore heap order; return it."""
        activity = self._act[variable] + increment
        self._act[variable] = activity
        position = self._pos[variable]
        if position > 0:
            self._sift_up(position)
        return activity

    def rescale(self, factor: float) -> None:
        """Multiply every activity by ``factor`` (order-preserving, in place)."""
        self._act[:] = [activity * factor for activity in self._act]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sift_up(self, position: int) -> None:
        heap, pos, act = self._heap, self._pos, self._act
        variable = heap[position]
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

    def _sift_down(self, position: int) -> None:
        heap, pos, act = self._heap, self._pos, self._act
        size = len(heap)
        variable = heap[position]
        activity = act[variable]
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
        heap[position] = variable
        pos[variable] = position

    def check_invariants(self) -> None:
        """Raise AssertionError unless heap order and position index agree.

        Test hook: O(n), called by the unit tests after random operation
        sequences — never on the solving hot path.
        """
        heap, pos, act = self._heap, self._pos, self._act
        for position, variable in enumerate(heap):
            assert pos[variable] == position, (
                f"position index broken: var {variable} at {position}, "
                f"index says {pos[variable]}"
            )
            if position > 0:
                parent = heap[(position - 1) >> 1]
                assert act[parent] >= act[variable], (
                    f"heap order broken: parent {parent} ({act[parent]}) < "
                    f"child {variable} ({act[variable]})"
                )
        in_heap = sum(1 for position in pos if position >= 0)
        assert in_heap == len(heap), "position index counts a phantom entry"


__all__ = ["ActivityHeap"]

