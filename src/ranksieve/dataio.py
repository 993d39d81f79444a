"""CSV ingestion with listwise deletion, summary statistics, and the one CSV
writer that every table of the package (Monte Carlo and CLI) goes through."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .rankcrit import Sample

DEFAULT_MISSING_TOKENS = frozenset({"", "NA", "NaN"})
FMT = "%.6g"  # every real number the package writes or prints


@dataclass(frozen=True)
class DatasetSchema:
    """Column selection for a CSV file.

    Cells whose (whitespace-stripped) text is in ``missing_tokens`` count
    as missing; any row with a missing cell in a selected column is
    dropped.
    """

    y_column: str
    z_columns: tuple
    w_columns: tuple = ()
    missing_tokens: frozenset = field(default_factory=lambda: DEFAULT_MISSING_TOKENS)

    def __post_init__(self):
        object.__setattr__(self, "z_columns", tuple(self.z_columns))
        object.__setattr__(self, "w_columns", tuple(self.w_columns))
        object.__setattr__(self, "missing_tokens", frozenset(self.missing_tokens))
        cols = self.selected_columns
        if len(set(cols)) != len(cols):
            raise ValueError("schema column names must be distinct")
        if not self.y_column:
            raise ValueError("schema must name an outcome column")
        if not self.z_columns:
            raise ValueError("schema must name at least one regressor column")

    @property
    def selected_columns(self) -> tuple:
        return (self.y_column,) + self.z_columns + self.w_columns

    @classmethod
    def from_dict(cls, obj: dict) -> "DatasetSchema":
        return cls(
            y_column=obj["y_column"],
            z_columns=tuple(obj.get("z_columns", ())),
            w_columns=tuple(obj.get("w_columns", ())),
            missing_tokens=frozenset(obj.get("missing_tokens", DEFAULT_MISSING_TOKENS)),
        )


class IngestionReport(NamedTuple):
    rows_read: int
    rows_dropped: int
    dropped_by_column: dict  # column name -> rows with a missing cell there

    @property
    def rows_kept(self) -> int:
        return self.rows_read - self.rows_dropped


def _parse_number(path: str, line_no: int, col: str, cell) -> float:
    """float(cell), or a DataError naming the file, line and column."""
    try:
        return float(cell)
    except (TypeError, ValueError) as exc:
        raise DataError(
            f"{path}: line {line_no}, column {col!r}: cannot parse {cell!r} as a number"
        ) from exc


def load_csv(path: str, schema: DatasetSchema) -> tuple[Sample, IngestionReport]:
    """Read selected columns into a Sample, dropping incomplete rows.

    Raises :class:`DataError` on a missing file or column, an empty
    result, or a cell that is neither numeric nor a missing token (the
    error names the row and column).
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: no header row")
        header = set(reader.fieldnames)
        for col in schema.selected_columns:
            if col not in header:
                raise DataError(f"{path}: column {col!r} not found in header")
        kept_rows = []
        rows_read = 0
        dropped = 0
        dropped_by_column = {col: 0 for col in schema.selected_columns}
        for line_no, row in enumerate(reader, start=2):
            rows_read += 1
            values = {}
            missing = []
            for col in schema.selected_columns:
                cell = (row[col] or "").strip()
                if cell in schema.missing_tokens:
                    missing.append(col)
                    continue
                values[col] = _parse_number(path, line_no, col, cell)
            if missing:
                dropped += 1
                for col in missing:
                    dropped_by_column[col] += 1
            else:
                kept_rows.append(values)
    if not kept_rows:
        raise DataError(f"{path}: no complete data rows")
    y = np.array([r[schema.y_column] for r in kept_rows])
    z = np.column_stack([[r[c] for r in kept_rows] for c in schema.z_columns])
    w = None
    if schema.w_columns:
        w = np.column_stack([[r[c] for r in kept_rows] for c in schema.w_columns])
    report = IngestionReport(rows_read, dropped, dropped_by_column)
    return Sample(y=y, z=z, w=w), report


class SummaryStats(NamedTuple):
    minimum: float
    q1: float
    median: float
    mean: float
    q3: float
    maximum: float


def summary_stats(v) -> SummaryStats:
    """Six-number summary; quartiles use linear interpolation (type 7)."""
    x = np.asarray(v, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("cannot summarize an empty vector")
    q1, med, q3 = np.quantile(x, [0.25, 0.5, 0.75])
    return SummaryStats(
        float(np.min(x)), float(q1), float(med), float(np.mean(x)), float(q3), float(np.max(x))
    )


def write_csv(path: str, header, rows) -> None:
    """Write a header row, then one line per row: ints with str, other numbers with FMT."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([str(v) if isinstance(v, int) else FMT % v for v in row] for row in rows)
