"""Small wall-clock timer used by the benchmarks."""

from __future__ import annotations

import time

__all__ = ["Timer"]


class Timer:
    """Accumulating stopwatch.

    Usage::

        timer = Timer()
        with timer:
            expensive_call()
        print(timer.elapsed)

    Multiple ``with`` blocks accumulate into ``elapsed``.  Re-entering an
    already-running timer is nesting-safe: the wall interval is counted
    once, from the outermost entry to the matching outermost exit (a
    recursive instrumented call must not double-count or clobber the
    start mark).  Exiting a timer that was never entered raises.
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start: float | None = None
        self._depth = 0

    @property
    def running(self) -> bool:
        """True while at least one ``with`` block is open."""
        return self._depth > 0

    def __enter__(self) -> "Timer":
        if self._depth == 0:
            self._start = time.perf_counter()
        self._depth += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._depth == 0 or self._start is None:
            raise RuntimeError("Timer exited without entering")
        self._depth -= 1
        if self._depth == 0:
            self.elapsed += time.perf_counter() - self._start
            self._start = None

    def reset(self) -> None:
        self.elapsed = 0.0
        self._start = None
        self._depth = 0
