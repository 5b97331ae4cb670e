"""Deterministic CSV and JSON emission for scenario runs.

Floats are written with %.17g (shortest exact round trip for doubles) and
files use LF line endings, so identical runs produce byte-identical output.
A table's rows are either a sequence of mixed-type rows or one 2-D float
array; both write the same bytes for the same floats.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence


def format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def _is_float_array(rows) -> bool:
    """A 2-D float array (told by its attributes, so numpy is not imported here)."""
    dtype = getattr(rows, "dtype", None)
    return getattr(rows, "ndim", None) == 2 and getattr(dtype, "kind", None) == "f"


def write_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> Path:
    """Write header and rows; a 2-D float array is formatted in one %-operation."""
    import csv
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        if _is_float_array(rows):
            # a formatted float holds no delimiter or quote, so csv.writer
            # would write these cells unquoted too
            n_rows, n_cols = rows.shape
            line = ",".join(["%.17g"] * n_cols) + "\n"
            fh.write((line * n_rows) % tuple(rows.ravel().tolist()))
        else:
            for row in rows:
                writer.writerow([format_cell(v) for v in row])
    return path


def write_report_json(path: str | Path, report: dict) -> Path:
    import json
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
