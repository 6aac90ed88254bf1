"""Spans recorded around calls into ``mcis``, from outside the package.

``Tracer.installed`` replaces each public function with a timing wrapper at
the place the caller looks it up (a module attribute, or ``Graph.__init__``)
and puts the originals back on exit. Spans are kept in memory as
``[id, parent_id, name, start, end, note]`` lists; ``write`` dumps them as
JSON lines when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, note=None):
        """``fn`` timed as span ``name``; ``note(result)`` is stored with it."""

        def traced(*args, **kwargs):
            span = [len(self.spans), self._open[-1] if self._open else None, name, 0.0, 0.0, None]
            self.spans.append(span)
            self._open.append(span[0])
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                self._open.pop()
            if note is not None:
                span[5] = note(result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Patch ``(owner, attribute, span name, note)`` targets for the block."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
        try:
            for owner, attr, name, note in targets:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), note))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def mark(self) -> int:
        """Position to pass to ``totals`` for the spans recorded after it."""
        return len(self.spans)

    def totals(self, since: int = 0) -> dict:
        """Per span name: summed duration, summed self time and the notes."""
        spans = self.spans[since:]
        child_time = {}
        for sid, parent, _, start, end, _ in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, dict] = {}
        for sid, _, name, start, end, note in spans:
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "notes": []})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time.get(sid, 0.0)
            if note is not None:
                agg["notes"].append(note)
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for sid, parent, name, start, end, note in self.spans:
                f.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name, "start": start, "end": end, "note": note}
                    )
                    + "\n"
                )
