"""Atomic file writes: unique temp file in the target directory, fsync, rename.

Each write creates its own randomly named temp file (exclusive create, so
two writers never share one); the last rename wins and readers only ever
see a whole file. The temp file is opened like any output file, so the
result keeps the umask-derived permissions, which `tempfile.mkstemp`'s
owner-only mode would not.

csv_text forms the CSV outputs that carry names: index.csv and the stream CSV.
"""

from __future__ import annotations

import csv
import io
import os
import secrets
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_writer(path: str | Path):
    """Yield a binary handle on a fresh temp file beside path, creating
    path's directory first if it is missing. On a clean exit the file is
    fsynced and renamed over path; on any exception it is removed and path
    is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    handle = open(tmp, "xb")
    try:
        with handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    with atomic_writer(path) as handle:
        handle.write(data)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode())


def csv_text(rows) -> str:
    """rows as csv.writer writes them, each line ended by a line feed: a field
    that holds a comma, a quote or a line break is quoted, and reads back
    through csv.reader as one field."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()
