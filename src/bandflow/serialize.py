"""Atomic CSV/JSON writers with exact float round-tripping."""

from __future__ import annotations

import csv
import json
import os
import tempfile
from pathlib import Path


def fmt_float(x: float) -> str:
    """17 significant digits: parses back to the identical float64."""
    return f"{float(x):.17g}"


def _new_file_mode() -> int:
    """Permissions a plain open() would give a new file under the umask."""
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


def _atomic_write_text(path: Path, text: str) -> None:
    """Write through a temp file unique to this call, then rename it into place.

    Concurrent writers sharing a directory never collide, and no leftover
    temp file can block a later write.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp creates the file owner-only; give it the usual permissions.
        os.chmod(tmp, _new_file_mode())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Write rows atomically; floats are formatted with fmt_float."""
    path = Path(path)
    out = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("true" if cell else "false")
            elif isinstance(cell, float):
                cells.append(fmt_float(cell))
            else:
                cells.append("" if cell is None else str(cell))
        out.append(cells)
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(out)
    _atomic_write_text(path, buf.getvalue())


def write_json(path, obj) -> None:
    """Write a JSON document atomically; floats use shortest exact repr."""
    path = Path(path)
    _atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=False) + "\n")


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]
