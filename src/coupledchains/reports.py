"""Report emission: bit-exact CSV (interchange) and pretty tables.

CSV is the stable format: LF line endings, '.' decimal separator, reals
at 17 significant digits (round-trip exact for doubles).  The pretty
format is for terminals and carries no stability promise.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .words import word_str


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):  # word
        return word_str(value)
    return str(value)


def emit_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_pretty(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    table = [list(header)] + [[format_value(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    out = []
    for i, row in enumerate(table):
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out) + "\n"

