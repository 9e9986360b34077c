"""Report model and renderers (aligned text, CSV, JSON).

Numeric fields carry 12 significant digits in every format, so identical
invocations render byte-identically.
"""

from __future__ import annotations

FORMATS = ("text", "csv", "json")


def format_number(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_value(value):
    """A report value (bool, int, str or float) for JSON: a float rounded to 12
    significant digits, the rest as they are."""
    return float(f"{value:.12g}") if isinstance(value, float) else value


class ReportTable:
    __slots__ = ("name", "headers", "rows")

    def __init__(self, name: str, headers: list[str], rows: list[list]) -> None:
        self.name, self.headers, self.rows = name, headers, rows


class Report:
    """One command's output: scalar fields, optional tables, and a verdict.

    A report starts with its title alone; the command then adds fields and
    tables and sets ``verdict``, ``ok`` and ``attachment``.  ``attachment``
    is text that ``--out`` writes in place of the rendered report
    (``hv-build``'s model); the renderers ignore it."""

    __slots__ = ("title", "fields", "tables", "verdict", "ok", "attachment")

    def __init__(self, title: str) -> None:
        self.title = title
        self.fields: list[tuple[str, object]] = []
        self.tables: list[ReportTable] = []
        self.verdict, self.ok, self.attachment = "", True, None

    def add(self, key: str, value) -> None:
        self.fields.append((key, value))

    def add_table(self, name: str, headers, rows) -> None:
        self.tables.append(ReportTable(name, list(headers), [list(r) for r in rows]))


def render_text(report: Report) -> str:
    out = [f"== {report.title} ==", ""]
    if report.fields:
        width = max(len(k) for k, _ in report.fields)
        for key, value in report.fields:
            out.append(f"{key.ljust(width)}  {format_number(value)}")
        out.append("")
    for table in report.tables:
        out.append(f"-- {table.name} --")
        cells = [[str(h) for h in table.headers]] + [
            [format_number(v) for v in row] for row in table.rows
        ]
        widths = [max(len(row[c]) for row in cells) for c in range(len(table.headers))]
        for row in cells:
            out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        out.append("")
    out.append(f"verdict: {report.verdict}")
    return "\n".join(out) + "\n"


def render_csv(report: Report) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["title", report.title])
    for key, value in report.fields:
        writer.writerow(["field", key, format_number(value)])
    for table in report.tables:
        writer.writerow(["table", table.name, *[str(h) for h in table.headers]])
        for row in table.rows:
            writer.writerow(["row", table.name, *[format_number(v) for v in row]])
    writer.writerow(["verdict", report.verdict])
    writer.writerow(["ok", format_number(report.ok)])
    return buffer.getvalue()


def render_json(report: Report) -> str:
    import json

    payload = {
        "title": report.title,
        "fields": {key: _json_value(value) for key, value in report.fields},
        "tables": [
            {
                "name": table.name,
                "headers": [str(h) for h in table.headers],
                "rows": [[_json_value(v) for v in row] for row in table.rows],
            }
            for table in report.tables
        ],
        "verdict": report.verdict,
        "ok": report.ok,
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def render(report: Report, fmt: str) -> str:
    if fmt == "text":
        return render_text(report)
    if fmt == "csv":
        return render_csv(report)
    if fmt == "json":
        return render_json(report)
    raise ValueError(f"unknown format {fmt!r}")
