"""The per-iteration correction report and its JSON-lines file format.

This module needs only the standard library, so reading and flattening a
report (``labelpure report``) loads neither numpy nor scipy.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .errors import ASCII_WHITESPACE, FormatError, json_is, parse_json, read_text

REPORT_SCHEMA = 1

# A record field's JSON kinds by its annotation.
_JSON_KINDS = {
    "int": ((int,), "an integer"),
    "bool": ((bool,), "true or false"),
    "float | None": ((float, type(None)), "a number or null"),
}


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
            row = vars(rec).copy()
            if rec.acc is None:
                del row["acc"]
            fh.write(json.dumps(row) + "\n")
        fh.write(json.dumps({"summary": report.summary}) + "\n")


def load_report(path: str | Path) -> CorrectionReport:
    """Read a report written by save_report; lines blank but for ASCII whitespace
    are skipped. A line that is not a record with fields of their types, or a
    summary object, or any line after the summary, raises FormatError naming file and line."""
    kinds = {f.name: _JSON_KINDS[f.type] for f in fields(IterationRecord)}
    required = [f.name for f in fields(IterationRecord) if f.default is MISSING]
    records: list[IterationRecord] = []
    summary: dict | None = None
    summary_line = 0
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        line = line.strip(ASCII_WHITESPACE)
        if not line:
            continue
        if summary_line:  # two reports written one after the other
            raise FormatError(f"{path}: line {lineno}: the summary on line {summary_line} must be the last line")
        row = parse_json(line, path, lineno)  # a run killed mid-write leaves a cut line
        if not isinstance(row, dict):
            raise FormatError(f"{path}: line {lineno}: a record must be a JSON object, got {type(row).__name__}")
        if "summary" in row:
            summary, summary_line = row["summary"], lineno
            if not isinstance(summary, dict):
                raise FormatError(f"{path}: line {lineno}: the summary must be a JSON object, got {type(summary).__name__}")
            continue
        unknown = [key for key in row if key not in kinds]
        if unknown:
            raise FormatError(f"{path}: line {lineno}: unknown record field(s) {', '.join(unknown)}")
        missing = [key for key in required if key not in row]
        if missing:
            raise FormatError(f"{path}: line {lineno}: missing record field(s) {', '.join(missing)}")
        for key, value in row.items():
            types, what = kinds[key]
            if not any(json_is(value, kind) for kind in types):
                raise FormatError(f"{path}: line {lineno}: {key} must be {what}, got {json.dumps(value)}")
        records.append(IterationRecord(**row))
    if summary is None:
        raise FormatError(f"{path}: missing summary line")
    return CorrectionReport(records=records, summary=summary)
