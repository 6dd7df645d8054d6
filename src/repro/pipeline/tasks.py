"""Pipeline task bookkeeping and the admission-gate protocol.

Minibatches are numbered from 1 as in the paper (``M1,1`` is minibatch 1
on partition 1).  A *wave* is ``slocal + 1 = Nm`` consecutive
minibatches (§5): wave ``c`` contains minibatches
``c*Nm + 1 .. (c+1)*Nm``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol


def wave_of(minibatch: int, nm: int) -> int:
    """Wave index (0-based) of a 1-based minibatch id."""
    return (minibatch - 1) // nm


def wave_minibatches(wave: int, nm: int) -> range:
    """The 1-based minibatch ids composing ``wave``."""
    return range(wave * nm + 1, (wave + 1) * nm + 1)


class AdmissionGate(Protocol):
    """Decides whether the pipeline may *start* a new minibatch.

    The WSP runtime implements this to enforce the global staleness
    bound: a minibatch whose wave is more than ``D`` clocks ahead of the
    global weights must wait.  Already-admitted minibatches keep flowing
    — that is the paper's 'local processing is allowed to proceed while
    waiting' behaviour.
    """

    def may_start(self, minibatch: int) -> bool:
        """True if ``minibatch`` (1-based) may enter the pipeline now."""
        ...

    def subscribe(self, wake: Callable[[], None]) -> None:
        """Register a callback invoked whenever the gate may have opened."""
        ...


@dataclass
class OpenGate:
    """A gate that always admits — plain pipelined MP (Fig. 3 runs)."""

    def may_start(self, minibatch: int) -> bool:
        return True

    def subscribe(self, wake: Callable[[], None]) -> None:
        pass  # never closes, so never re-opens


@dataclass
class CountingGate:
    """Admits the first ``limit`` minibatches — bounded test runs."""

    limit: int

    def may_start(self, minibatch: int) -> bool:
        return minibatch <= self.limit

    def subscribe(self, wake: Callable[[], None]) -> None:
        pass  # a refused id stays refused: nothing to wake
