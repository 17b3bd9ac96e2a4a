"""Small text-output helpers shared by the grid format, CSV reports and manifests.

All floats are written with 17 significant digits so they round-trip exactly,
and all files are written atomically (temp file + rename) so concurrent runs
never observe a half-written artifact.
"""

from __future__ import annotations

import os
import tempfile

FLOAT_FMT = "%.17g"


def _cell(v) -> str:
    """A CSV cell or manifest value: bools as 1/0, floats to 17 digits."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return FLOAT_FMT % float(v)
    return str(v)


def atomic_write_text(path, text):
    """Write ``text`` to ``path`` via a temp file in the same directory + rename."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows, footer_rows=(), formatted_rows=()):
    """Write a CSV file deterministically; numeric cells get the 17-digit format.

    ``formatted_rows`` are body lines the caller formatted itself, written
    after ``rows``: for many rows of one shape, one format string per row is
    cheaper than formatting cell by cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    lines.extend(formatted_rows)
    for row in footer_rows:
        lines.append(",".join(_cell(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_manifest(path, entries: dict):
    """Flat key=value manifest, keys sorted, one entry per line."""
    lines = [f"{key}={_cell(entries[key])}" for key in sorted(entries)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_manifest(path) -> dict:
    """Parse a flat key=value manifest back into a string-valued dict."""
    entries = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if sep:
                entries[key] = value
    return entries
