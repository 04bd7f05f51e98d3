"""Table syntax shared by every rendered output.

The machine formats keep full precision: CSV has a header row, floats
written as ``repr`` and ``\\n`` line ends; JSON is indented by two spaces and
ends with a newline.  Markdown tables are ``| a | b |`` rows with a
``|---|`` rule under the header.  Callers choose the columns, the rows and
how markdown cells are formatted.
"""

from __future__ import annotations

import csv
import io
import json


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
