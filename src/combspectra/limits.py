"""Resource guards for the combinatorial enumerations.

Every entry point that can blow up checks its work against these caps
*before* starting and raises :class:`SizeGuardError` rather than truncating.
A step guard counts the most iterations that the loop after it can take and
is named by that loop; a pass over members the caller holds needs none.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, TypeVar

from .errors import SizeGuardError, TimeLimitError

T = TypeVar("T")

# The poll period of Limits.polled, in items: one clock read per batch
# is lost beside the items' own work, and at microseconds per item a batch
# overruns the deadline by a fraction of a second at most.
_POLL_EVERY = 4096


@dataclass(frozen=True)
class Limits:
    """Hard caps on enumeration size.

    ``deadline`` is an absolute ``time.time()`` timestamp; once it has
    passed, a poll (:meth:`check_time`) raises :class:`TimeLimitError`.
    Every enumeration of bijections, colorings, family members, oracle
    candidates or the vertex subsets of the Hamiltonian cycle recursion
    iterates :meth:`polled`.  Loops whose every step is costly
    poll once per step instead: corpus sweeps after each task, in the
    calling process and in every forked worker, the
    corpus once per order read from its table and once per parent graph of
    an order generated beyond it, the ring-axiom suite once per trial and
    the reader suites before each order, after its build and after its
    comparison.
    """

    max_n: int = 7
    max_family: int = 10_000_000
    max_steps: int = 1_000_000_000
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_n < 1 or self.max_family < 1 or self.max_steps < 1:
            raise ValueError("all limit caps must be positive")
        if self.deadline is not None and math.isnan(self.deadline):
            raise ValueError("the deadline must be a number, got NaN")

    def check_n(self, n: int) -> None:
        if n > self.max_n:
            raise SizeGuardError(
                f"vertex-count guard exceeded: n={n} > max_n={self.max_n}"
            )

    def check_family(self, size: int, what: str) -> None:
        if size > self.max_family:
            raise SizeGuardError(
                f"family-size guard exceeded: {what} needs {size} members "
                f"> max_family={self.max_family}"
            )

    def check_steps(self, steps: int, what: str) -> None:
        if steps > self.max_steps:
            raise SizeGuardError(
                f"step guard exceeded: {what} needs {steps} steps "
                f"> max_steps={self.max_steps}"
            )

    def check_time(self) -> None:
        if self.deadline is not None and time.time() > self.deadline:
            raise TimeLimitError("wall-clock deadline exceeded")

    def polled(self, items: Iterable[T]) -> Iterator[T]:
        """The items unchanged, polling the deadline before the first item
        and again before every 4096th: 1 + N // 4096 polls for N items.
        Without a deadline there is nothing to poll, and the items' own
        iterator is returned."""
        if self.deadline is None:
            return iter(items)
        return self._polled(iter(items))

    def _polled(self, it: Iterator[T]) -> Iterator[T]:
        self.check_time()
        yield from islice(it, _POLL_EVERY - 1)
        for item in it:
            self.check_time()
            yield item
            yield from islice(it, _POLL_EVERY - 1)


DEFAULT_LIMITS = Limits()
