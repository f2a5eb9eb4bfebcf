"""In-memory span recorder for the benchmark's layer boundaries.

Every call the benchmark makes into a layer of the program is wrapped in a
span (name, layer, start, end, parent).  Stage spans are always recorded,
because the end-to-end metrics are sums of stage durations timed from
outside the calls.  With tracing on, the solver stacks the benchmark builds
also get one child span per public query method (see :func:`instrument`),
which is what separates a stage's own time from the SAT time inside it.
Spans stay in memory; :meth:`Recorder.dump` writes them out at the end.

A span's time is host time at a reference speed (see :class:`HostSpeed`).
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    """One timed call into a layer."""

    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    result: bool | None = None
    #: Reference speed over host speed while the span ran (see :class:`HostSpeed`).
    scale: float = 1.0

    @property
    def host_s(self) -> float:
        """Host seconds the span took."""
        return self.end - self.start

    @property
    def duration(self) -> float:
        """Seconds the span would have taken at the reference speed."""
        return self.host_s * self.scale


class Recorder:
    """Collects the spans of one benchmark run (single-threaded)."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def abandon(self) -> None:
        """Forget the spans a failed call left open."""
        self._stack.clear()

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, layer, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        """Time the enclosed call as a span of ``layer``."""
        span = self.open(name, layer)
        try:
            yield span
        finally:
            self.close(span)

    def mark(self) -> int:
        """Position to pass to :meth:`since` to select the spans opened after it."""
        return len(self.spans)

    def since(self, mark: int) -> list[Span]:
        return self.spans[mark:]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(span) for span in self.spans]))


def instrument(recorder: Recorder, solver, methods: tuple[str, ...], layer: str = "sat") -> None:
    """Give each public query method of ``solver`` (one instance) a child span.

    The wrapper is an instance attribute, so the program's own calls through
    ``self.<method>`` are recorded too, and no class is touched.  The span's
    ``result`` notes whether the query was satisfiable.
    """
    for method in methods:
        original = getattr(solver, method)

        def wrapped(*args, _original=original, _method=method, **kwargs):
            span = recorder.open(f"{layer}.{_method}", layer)
            try:
                answer = _original(*args, **kwargs)
            finally:
                recorder.close(span)
            span.result = answer is not None and answer is not False
            return answer

        setattr(solver, method, wrapped)


def _reference_loop() -> None:
    """Fixed pure-Python work, about 0.2 ms on the host the bounds were set on."""
    table: dict[int, int] = {}
    for index in range(2000):
        table[index % 97] = table.get(index % 97, 0) + index


class HostSpeed:
    """Samples the host's speed from inside the process, while the program runs.

    The hosts this benchmark runs on share their cores with other tenants.
    On the one its bounds were set on, a core switches every few seconds
    between a fast rate and one 1.4 to 1.7 times slower, and the share of
    slow time drifts over minutes, so the same work took from 5.0 to 6.8 s
    in consecutive calls.  A wall-clock timer interrupts the program every
    ``INTERVAL_S`` and times ``_reference_loop`` in the signal handler;
    :meth:`settle` then scales each span by ``REFERENCE_S`` over the mean
    loop time sampled around it.  That took the spread of those calls from
    0.14 to 0.04 of their median.  The samples cost about 0.4% of the time.
    """

    INTERVAL_S = 0.05
    #: Nominal time of ``_reference_loop``: a span's scaled time is its host
    #: time on a host where the loop takes this long.
    REFERENCE_S = 200e-6
    #: Samples this close to a span count for it, so a span shorter than the
    #: interval still gets a local estimate.
    WINDOW_S = 0.25

    def __init__(self) -> None:
        #: (start, loop seconds), appended in one step: a late timer signal
        #: can run the handler again inside itself.
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _reference_loop()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self) -> float:
        """Mean sampled loop time over ``REFERENCE_S``."""
        return statistics.fmean(loop for _, loop in self.samples) / self.REFERENCE_S

    def settle(self, spans: list[Span]) -> None:
        """Set each span's ``scale`` from the loop times sampled around it."""
        self.samples.sort()
        times = [start for start, _ in self.samples]
        loops = [loop for _, loop in self.samples]
        for span in spans:
            low = bisect.bisect_left(times, span.start - self.WINDOW_S)
            high = bisect.bisect_right(times, span.end + self.WINDOW_S)
            span.scale = self.REFERENCE_S / statistics.fmean(loops[low:high] or loops)
