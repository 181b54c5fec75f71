"""The traced run's ledger: spans and counts recorded by wrappers that the
benchmark installs around the program's public entry points.

Nothing under ``src/`` knows about these wrappers.  A span is one call
into a layer: its name, start and end on the shared monotonic clock,
the request or cell id it served, and the span that caused it (the
innermost open span of the same thread, if any).  Spans stay in memory
and are written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (name, start, end, id, parent name)
Span = Tuple[str, float, float, str, str]


class Ledger:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, rid: Callable[..., str] = lambda *a, **k: "") -> Callable:
        """Decorator: record one span per call of the wrapped callable."""

        def decorate(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                stack = self._stack()
                parent = stack[-1] if stack else ""
                stack.append(name)
                start = time.monotonic()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = time.monotonic()
                    stack.pop()
                    self.spans.append((name, start, end, rid(*args, **kwargs), parent))

            return wrapper

        return decorate

    def timed_async(self, name: str, rid: Callable[..., str]) -> Callable:
        """Decorator for coroutine functions (spans cover the awaits)."""

        def decorate(fn: Callable) -> Callable:
            @functools.wraps(fn)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                start = time.monotonic()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self.spans.append(
                        (name, start, time.monotonic(), rid(*args, **kwargs), "")
                    )

            return wrapper

        return decorate

    # -- installing -----------------------------------------------------
    def patch(self, owner: Any, attr: str, wrapper: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` by ``wrapper(original)``; undone by
        :meth:`unpatch_all` in reverse order."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------
    def durations(
        self, name: str, window: Optional[Tuple[float, float]] = None
    ) -> List[float]:
        """Durations (seconds) of every span called ``name``, optionally
        only those that started inside ``window``."""
        return [
            end - start
            for n, start, end, _, _ in self.spans
            if n == name and (window is None or window[0] <= start <= window[1])
        ]

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name minus the time its child spans cover."""
        by_name: Dict[str, float] = defaultdict(float)
        child: Dict[str, float] = defaultdict(float)
        for name, start, end, _, parent in self.spans:
            by_name[name] += end - start
            if parent:
                child[parent] += end - start
        return {name: by_name[name] - child.get(name, 0.0) for name in by_name}

    def dump(self, path: Path, meta: Optional[Dict[str, Any]] = None) -> None:
        """Write spans as JSONL after one ``meta`` line with the counters
        and each span name's self time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            head = {"type": "meta", "counters": dict(self.counters),
                    "self_s": self.self_times()}
            head.update(meta or {})
            fh.write(json.dumps(head) + "\n")
            for name, start, end, rid, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"type": "span", "name": name, "start": start,
                         "end": end, "id": rid, "parent": parent}
                    )
                    + "\n"
                )

    @staticmethod
    def load(path: Path) -> "Ledger":
        """Read a :meth:`dump` file back."""
        ledger = Ledger()
        with open(path) as fh:
            for line in fh:
                row = json.loads(line)
                if row["type"] == "meta":
                    ledger.counters.update(row["counters"])
                else:
                    ledger.spans.append(
                        (row["name"], row["start"], row["end"], row["id"], row["parent"])
                    )
        return ledger
