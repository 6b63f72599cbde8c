"""Verification report rows and their CSV / markdown rendering.

A row records one checked inequality: lhs REL rhs with slack >= -tol meaning
pass.  Slack is rhs - lhs for upper bounds ("<", "<=") and lhs - rhs for lower
bounds.  Numbers are rendered with repr-stable formatting so identical runs
produce byte-identical CSV bodies.
"""

from __future__ import annotations

import csv
import io

from .prob import record

PASS_TOL = 1e-9


def fmt(v: float) -> str:
    if v != v:
        return "nan"
    if v == float("inf"):
        return "inf"
    if v == float("-inf"):
        return "-inf"
    return format(float(v), ".12g")


@record
class ReportRow:
    suite: str
    instance: str
    check: str  # inequality id
    relation: str  # one of "<", "<=", ">=", ">", "=="
    lhs: float
    rhs: float
    note: str = ""

    @property
    def slack(self) -> float:
        if self.relation in ("<", "<="):
            return self.rhs - self.lhs
        if self.relation in (">", ">="):
            return self.lhs - self.rhs
        if self.lhs == self.rhs:  # covers the infinite informational rows
            return 0.0
        return -abs(self.lhs - self.rhs)

    @property
    def passed(self) -> bool:
        if self.relation in ("<", ">"):
            return self.slack > 0
        return self.slack >= -PASS_TOL


def rows_to_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    w.writerow(["suite", "instance", "check", "relation", "lhs", "rhs", "slack", "pass", "note"])
    for r in rows:
        w.writerow(
            [
                r.suite,
                r.instance,
                r.check,
                r.relation,
                fmt(r.lhs),
                fmt(r.rhs),
                fmt(r.slack),
                "1" if r.passed else "0",
                r.note,
            ]
        )
    return buf.getvalue()


def rows_to_markdown(rows: list[ReportRow]) -> str:
    lines = ["| suite | instance | check | result | slack |", "|---|---|---|---|---|"]
    for r in rows:
        lines.append(
            f"| {r.suite} | {r.instance} | {r.check} "
            f"| {'pass' if r.passed else 'FAIL'} | {fmt(r.slack)} |"
        )
    n_fail = sum(not r.passed for r in rows)
    lines.append("")
    lines.append(f"{len(rows)} checks, {n_fail} failures.")
    return "\n".join(lines)


def all_passed(rows: list[ReportRow]) -> bool:
    return all(r.passed for r in rows)
