"""Report containers for assumption and structure checks.

A check produces one :class:`CheckEntry`.  The entry records the worst
margin seen over all sample points, the sample that attained it and any
constants fitted along the way.  The pass/fail rule is uniform:

    pass  <=>  worst_margin >= -tolerance

so a NaN margin fails.

Sampled non-strict inequalities carry a small positive tolerance (margin
may dip a rounding error below zero).  Strict inequalities carry a
*negative* tolerance ``-TOL_STRICT``: the margin must be at least
``TOL_STRICT`` above zero to pass, so an exactly-saturated strict bound
fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Slack demanded from strict inequalities at sampled / declared points.
TOL_STRICT = 1e-14


def _to_jsonable(value):
    import numpy as np

    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    return value


@dataclass
class CheckEntry:
    condition_id: str
    worst_margin: float
    tolerance: float
    witness: dict | None = None
    fitted_constants: dict = field(default_factory=dict)
    notes: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.worst_margin >= -self.tolerance)

    def to_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "passed": self.passed,
            "worst_margin": float(self.worst_margin),
            "tolerance": float(self.tolerance),
            "witness": _to_jsonable(self.witness),
            "fitted_constants": _to_jsonable(self.fitted_constants),
            "notes": self.notes,
        }


@dataclass
class AssumptionReport:
    entries: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, condition_id: str) -> CheckEntry:
        for e in self.entries:
            if e.condition_id == condition_id:
                return e
        raise KeyError(condition_id)

    def add(self, entry: CheckEntry) -> None:
        self.entries.append(entry)

    def extend(self, other: "AssumptionReport") -> None:
        self.entries.extend(other.entries)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "meta": _to_jsonable(self.meta),
            "entries": [e.to_dict() for e in self.entries],
        }


def nonstrict_entry(condition_id, margin, tolerance, witness=None,
                    fitted=None, notes="") -> CheckEntry:
    return CheckEntry(condition_id, float(margin), float(tolerance),
                      witness, fitted or {}, notes)


def strict_entry(condition_id, margin, notes="") -> CheckEntry:
    """Entry for a strict inequality: pass requires margin >= TOL_STRICT."""
    return CheckEntry(condition_id, float(margin), -TOL_STRICT, notes=notes)
