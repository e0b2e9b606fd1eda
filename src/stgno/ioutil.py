"""Small file helpers: atomic writes, deterministic JSON and UTF-8 reads.

Every reader here turns undecodable bytes, and ``read_json`` also
malformed JSON, into a :class:`DataError` that names the file.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import DataError


@contextmanager
def atomic_writer(path: Path | str):
    """A binary file open at a sibling temp path, renamed over ``path``
    when the block ends without error (so readers never see a partial
    file) and removed when it raises, leaving ``path`` as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def atomic_write_text(path: Path | str, text: str) -> None:
    with atomic_writer(path) as fh:
        fh.write(text.encode("utf-8"))


def dump_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@contextmanager
def open_text(path: Path | str):
    """Open a UTF-8 text file for reading, newlines untranslated (as the csv
    module wants); an undecodable byte read inside the block raises a
    DataError naming the file."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                        f"{exc.start})") from None


def read_text(path: Path | str) -> str:
    with open_text(path) as fh:
        return fh.read()


def read_json(path: Path | str):
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not JSON ({exc})") from None
