"""The per-iteration correction report and its JSON-lines file format.

This module needs only the standard library, so reading and flattening a
report (``labelpure report``) loads neither numpy nor scipy.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

REPORT_SCHEMA = 1


@dataclass(frozen=True)
class IterationRecord:
    """One row of the correction report (one ridge/classifier iteration)."""

    p: int
    epoch: int
    val_loss: float | None
    grad_norm: float | None
    eac_update: bool
    acc: float | None = None


@dataclass
class CorrectionReport:
    """Per-iteration records plus a run summary."""

    records: list[IterationRecord]
    summary: dict


def save_report(report: CorrectionReport, path: str | Path) -> None:
    """Write the report as JSON lines: one record per iteration, then a summary object.

    Accuracy keys appear only when ground truth was tracked.
    """
    with Path(path).open("w", encoding="utf-8") as fh:
        for rec in report.records:
            row = asdict(rec)
            if rec.acc is None:
                del row["acc"]
            fh.write(json.dumps(row) + "\n")
        fh.write(json.dumps({"summary": report.summary}) + "\n")


def load_report(path: str | Path) -> CorrectionReport:
    """Read a report written by save_report."""
    records: list[IterationRecord] = []
    summary: dict | None = None
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if "summary" in row:
                summary = row["summary"]
            else:
                records.append(IterationRecord(**row))
    if summary is None:
        raise ValueError(f"{path}: missing summary line")
    return CorrectionReport(records=records, summary=summary)
