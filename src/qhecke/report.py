"""Tiny check-report structure shared by all verification suites."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str = ""
    counterexample: dict | None = None

    def as_dict(self):
        out = {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "details": self.details,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def verdict(name: str, failures, details: str = "") -> CheckResult:
    """The check passes when `failures` yields no counterexample; otherwise
    its counterexample is the first one yielded, in the scan order of the
    iterable, and the scan stops there."""
    bad = next(iter(failures), None)
    return CheckResult(name, bad is None, details, bad)
