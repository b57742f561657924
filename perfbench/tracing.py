"""Span-stack tracing for the benchmark's traced run.

The benchmark wraps public functions of each layer (from this file, not
inside the program) so that every call records a span. Spans nest: a
span's *self* time is its duration minus the time its child spans
cover, so the self times of all labels plus an explicit unattributed
remainder partition the traced wall time exactly (integer nanoseconds).

:class:`SpanStack` holds the arithmetic; :class:`Patches` installs and
removes wrappers by replacing every reference to a function in the
program's loaded modules (functions are imported by name across the
package, so patching the defining module alone would miss callers).
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Hook = Callable[[tuple, dict, object], None]


class SpanStack:
    """Calls, inclusive and self nanoseconds per span label.

    Args:
        clock: Integer-nanosecond clock (injectable for tests).
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.calls: Dict[str, int] = {}
        self.inclusive_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        #: Extra per-layer counts recorded by wrapper hooks.
        self.counts: Dict[str, int] = {}
        #: Sum of the durations of outermost spans.
        self.top_ns = 0
        self._child_ns: List[int] = []

    def enter(self) -> int:
        self._child_ns.append(0)
        return self.clock()

    def exit(self, label: str, start_ns: int) -> None:
        dur = self.clock() - start_ns
        child = self._child_ns.pop()
        self.calls[label] = self.calls.get(label, 0) + 1
        self.inclusive_ns[label] = self.inclusive_ns.get(label, 0) + dur
        self.self_ns[label] = self.self_ns.get(label, 0) + dur - child
        if self._child_ns:
            self._child_ns[-1] += dur
        else:
            self.top_ns += dur

    @contextmanager
    def span(self, label: str) -> Iterator[None]:
        start = self.enter()
        try:
            yield
        finally:
            self.exit(label, start)

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def wrap(
        self, label: str, fn: Callable, hook: Optional[Hook] = None
    ) -> Callable:
        """``fn`` recording a ``label`` span per call.

        ``hook(args, kwargs, result)`` runs after the span closes, so
        its cost lands in the caller's self time, not the layer's.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(label, start)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def partition(self, wall_ns: int) -> Tuple[Dict[str, int], int]:
        """Self times per label and the unattributed remainder.

        Raises:
            ValueError: if spans are still open, a self time is
                negative, the self times do not sum to the outermost
                spans' durations, or those exceed ``wall_ns``.
        """
        if self._child_ns:
            raise ValueError(f"{len(self._child_ns)} spans still open")
        negative = {k: v for k, v in self.self_ns.items() if v < 0}
        if negative:
            raise ValueError(f"negative self times: {negative}")
        total_self = sum(self.self_ns.values())
        if total_self != self.top_ns:
            raise ValueError(
                f"self times sum to {total_self} ns but outermost spans "
                f"cover {self.top_ns} ns"
            )
        unattributed = wall_ns - total_self
        if unattributed < 0:
            raise ValueError(
                f"spans cover {total_self} ns, more than the wall time "
                f"{wall_ns} ns"
            )
        return dict(self.self_ns), unattributed


class Patches:
    """Replace functions and methods in loaded modules; undo on close.

    Args:
        package: Only modules whose name is this package or starts with
            ``package + "."`` are patched.
    """

    def __init__(self, package: str) -> None:
        self.package = package
        self._undo: List[Tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package + "."
        for name, mod in list(sys.modules.items()):
            if mod is not None and (
                name == self.package or name.startswith(prefix)
            ):
                yield mod

    def function(self, fn: Callable, wrapper: Callable) -> int:
        """Point every module-level reference to ``fn`` at ``wrapper``.

        Returns:
            How many references were replaced (at least one, or the
            function is not reachable and the trace would miss it).

        Raises:
            LookupError: when no loaded module references ``fn``.
        """
        replaced = 0
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))
                    replaced += 1
        if not replaced:
            raise LookupError(f"no loaded module references {fn!r}")
        return replaced

    def method(self, cls: type, name: str, wrapper: Callable) -> None:
        """Replace a plain method defined on ``cls`` itself."""
        original = vars(cls)[name]
        setattr(cls, name, wrapper)
        self._undo.append((cls, name, original))

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
