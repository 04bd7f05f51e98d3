"""Table syntax of every table the package reads and writes.

The machine formats keep full precision: CSV has a header row, floats
written as ``repr`` and ``\\n`` line ends; JSON is indented by two spaces and
ends with a newline.  Markdown tables are ``| a | b |`` rows with a
``|---|`` rule under the header.  Callers choose the columns, the rows and
how markdown cells are formatted.

Input tables are CSV files whose header names their columns; ``csv_rows``
checks the header and the field count and hands each row's fields to the
caller, which parses them.
"""

from __future__ import annotations

import csv
import io
import json

from .errors import ParseError


def csv_rows(path, columns, empty: str = "empty file"):
    """Yield (line number, fields) of each data row of a CSV file with header ``columns``.

    The file is read as UTF-8, and a leading byte-order mark is dropped.
    Header names are compared stripped and case-insensitively.  Rows whose
    fields are all blank are skipped; any other row must have one field per
    column.  An empty file raises ParseError(``empty``), a wrong header or
    field count the ParseError that names it.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(empty)
        if [c.strip().lower() for c in header] != list(columns):
            raise ParseError(f"expected header {','.join(columns)}, got {','.join(header)!r}")
        for lineno, row in enumerate(reader, start=2):
            # a non-blank first field settles most rows without a scan of the others
            if not (row and row[0].strip()) and not any(c.strip() for c in row):
                continue
            if len(row) != len(columns):
                raise ParseError(f"line {lineno}: expected {len(columns)} fields, got {len(row)}")
            yield lineno, row


def csv_text(columns, rows) -> str:
    """CSV with a header row; floats are written as their repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def json_text(payload) -> str:
    """JSON indented by two spaces, with a trailing newline."""
    return json.dumps(payload, indent=2) + "\n"


def markdown_text(columns, rows) -> str:
    """Markdown table of already formatted cells, one line per row."""
    def line(cells):
        return "| " + " | ".join(cells) + " |"

    lines = [line(columns), "|---" * len(columns) + "|"] + [line(r) for r in rows]
    return "\n".join(lines) + "\n"
