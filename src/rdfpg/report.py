"""Structured validation outcome shared by the RDF and property-graph checkers.

Rule identifiers:
  R1       every RDF node's class is declared by the schema
  R2       every object edge matches a declared property and its endpoint classes
  R3       every datatype edge matches a declared property and its endpoint classes
  P1a/P1b  property-graph node label / node property conformance
  P2a/P2b  property-graph edge label+endpoints / edge property conformance

Both records are named tuples, each equal to the plain tuple of its fields;
a caller replaces a field with `_replace`.
"""

from __future__ import annotations

from typing import NamedTuple


class Violation(NamedTuple):
    rule: str
    element: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.element}: {self.message}"


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...] = ()

    @property
    def valid(self) -> bool:
        return not self.violations

    def rules_violated(self) -> set[str]:
        return {v.rule for v in self.violations}

    def summary(self) -> str:
        if self.valid:
            return "valid"
        lines = [f"invalid: {len(self.violations)} violation(s)"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)
