"""Assertion reports: per-assertion verdicts with optional witnesses, and
emitters for human-readable text and JSON lines.

With a fixed seed the JSON emission is byte-stable; wall times are zeroed
in that mode since they cannot be reproducible.
"""

from __future__ import annotations

import json
from typing import Optional

PASS = "pass"
FAIL = "fail"
ERROR = "error"


class AssertionResult:
    __slots__ = ("id", "verdict", "tag", "detail", "witness", "millis")

    def __init__(
        self,
        id: str,
        verdict: str,
        tag: str = "",
        detail: str = "",
        witness: Optional[str] = None,
        millis: int = 0,
    ):
        self.id = id
        self.verdict = verdict
        self.tag = tag
        self.detail = detail
        self.witness = witness
        self.millis = millis


class Report:
    """Verdicts in order, notes and named values; each report owns fresh
    containers for those not given."""

    __slots__ = ("results", "notes", "values")

    def __init__(
        self,
        results: Optional[list[AssertionResult]] = None,
        notes: Optional[list[str]] = None,
        values: Optional[dict[str, str]] = None,
    ):
        self.results = [] if results is None else results
        self.notes = [] if notes is None else notes
        self.values = {} if values is None else values

    def add(self, result: AssertionResult) -> None:
        self.results.append(result)

    @property
    def counts(self) -> dict[str, int]:
        c = {"passed": 0, "failed": 0, "errors": 0}
        for r in self.results:
            if r.verdict == PASS:
                c["passed"] += 1
            elif r.verdict == FAIL:
                c["failed"] += 1
            else:
                c["errors"] += 1
        return c

    @property
    def ok(self) -> bool:
        c = self.counts
        return c["failed"] == 0 and c["errors"] == 0

    def exit_status(self) -> int:
        return 0 if self.ok else 1

    def merged(self, other: "Report") -> "Report":
        out = Report(results=self.results + other.results,
                     notes=self.notes + [n for n in other.notes if n not in self.notes],
                     values={**self.values, **other.values})
        return out


def emit_report(report: Report, fmt: str = "human", stable: bool = False) -> bytes:
    """Render a report: 'human' text or JSON lines (one object per assertion
    plus a final summary object).  stable=True zeroes wall times so output
    bytes depend only on the run's results."""
    if fmt not in ("human", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    if fmt == "json":
        lines = []
        for r in report.results:
            obj = {"id": r.id, "verdict": r.verdict}
            if r.tag:
                obj["tag"] = r.tag
            if r.witness is not None:
                obj["witness"] = r.witness
            if r.detail and r.verdict != PASS:
                obj["detail"] = r.detail
            obj["millis"] = 0 if stable else r.millis
            lines.append(json.dumps(obj, sort_keys=True))
        for key, val in sorted(report.values.items()):
            lines.append(json.dumps({"value": key, "content": val}, sort_keys=True))
        for n in report.notes:
            lines.append(json.dumps({"note": n}, sort_keys=True))
        lines.append(json.dumps(report.counts, sort_keys=True))
        return ("\n".join(lines) + "\n").encode("utf-8")
    lines = []
    for r in report.results:
        mark = {PASS: "PASS", FAIL: "FAIL", ERROR: "ERROR"}[r.verdict]
        t = f" [{r.tag}]" if r.tag else ""
        ms = "" if stable else f" ({r.millis} ms)"
        lines.append(f"{mark:5s} {r.id}{t}{ms}")
        if r.verdict != PASS and r.detail:
            lines.append(f"      {r.detail}")
        if r.witness:
            lines.append(f"      witness: {r.witness}")
    for key, val in sorted(report.values.items()):
        lines.append(f"value {key} = {val}")
    for n in report.notes:
        lines.append(f"note  {n}")
    c = report.counts
    lines.append(f"summary: {c['passed']} passed, {c['failed']} failed, {c['errors']} errors")
    return ("\n".join(lines) + "\n").encode("utf-8")
