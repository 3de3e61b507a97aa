"""Resource guards for the combinatorial enumerations.

Family products grow like ``|H| * |G| * n!`` and coloring enumerations like
``k^|E|``; every entry point that can blow up checks its estimated work
against these caps *before* starting and raises :class:`SizeGuardError`
rather than truncating.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import SizeGuardError, TimeLimitError


@dataclass(frozen=True)
class Limits:
    """Hard caps on enumeration size.

    ``deadline`` is an absolute ``time.time()`` timestamp.  Spectrum scans,
    family products and sums, the Hamiltonian spectrum and the brute-force
    oracles poll it at the start of every loop and every 4096 steps; corpus
    sweeps poll it between tasks, the corpus once per order read from its
    table and once per parent graph of an order generated beyond it, the
    ring-axiom suite once per trial and the reader suites before each
    order, after its build and after its comparison.  Once it has passed
    they abort with :class:`TimeLimitError`.
    """

    max_n: int = 7
    max_family: int = 10_000_000
    max_steps: int = 1_000_000_000
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_n < 1 or self.max_family < 1 or self.max_steps < 1:
            raise ValueError("all limit caps must be positive")

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


DEFAULT_LIMITS = Limits()
