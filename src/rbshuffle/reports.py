"""Law-suite result types shared by the harness and the checkers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class LawReport:
    """Outcome of one suite run.

    A failed report carries a replayable counterexample: the suite seed, the
    sample index, and fully rendered inputs and both sides.  Wall time is
    informational and deliberately absent from the JSON form so that equal
    (seed, config) runs serialize byte-identically.
    """

    law: str
    samples: int
    seed: str
    passed: bool
    counterexample: Optional[dict] = None
    wall_ms: float = 0.0

    def to_json(self) -> dict:
        out: dict = {"law": self.law, "samples": self.samples,
                     "seed": self.seed, "passed": self.passed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass(frozen=True)
class LawSuite:
    """A named, deterministic sampling check.

    ``check(rng, cfg, index)`` yields the index-th sample's claims
    ``(law, lhs, rhs, inputs)``, drawing from the suite's random stream as it
    goes: the law holds when lhs equals rhs, and inputs maps names to the
    drawn values that a counterexample shows.  ``laws.run_suite`` compares
    the sides and stops at the first failing claim.  (suite, seed) fixes the
    exact sample sequence and the verdict.
    """

    name: str
    samples: int
    check: Callable
