"""In-memory spans recorded around calls into the package's layers.

Spans are taken from outside the program, at the public function calls the
benchmark makes; counters inside the program would need spans in the program
itself.  The program is single-threaded, so child spans never overlap and a
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterator


@dataclass
class Span:
    name: str
    solve: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; every root span opens a new solve id, which its
    descendants share."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._solves = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if self._open:
            parent = self._open[-1]
            solve = self.spans[parent].solve
        else:
            parent = None
            solve = self._solves
            self._solves += 1
        index = len(self.spans)
        record = Span(name, solve, parent, perf_counter())
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record.end = perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Self time of each span, in recording order."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def by_solve(self) -> list[tuple[float, dict[str, float]]]:
        """Per solve: the root span's duration and the self time of each name
        under it (summed if a name occurs more than once)."""
        solves: list[tuple[float, dict[str, float]]] = []
        for s, own in zip(self.spans, self.self_times()):
            if s.parent is None:
                solves.append((s.duration, {}))
            layers = solves[s.solve][1]
            layers[s.name] = layers.get(s.name, 0.0) + own
        return solves

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]), encoding="utf-8")
