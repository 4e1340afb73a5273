"""What every workload is made of: named tasks whose outputs are checked."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


class WrongOutput(AssertionError):
    """A program output disagrees with the benchmark's oracle."""


@dataclass(frozen=True)
class Task:
    """One operation of a round.

    ``run`` makes the program calls and returns their outputs; only it is
    timed.  ``check`` compares those outputs with the oracles and raises
    WrongOutput on a mismatch.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongOutput(what)


def raises(error: type, fn, *args) -> bool:
    """Whether ``fn(*args)`` raises ``error``; for inputs it must reject."""
    try:
        fn(*args)
    except error:
        return True
    return False
