"""Exception hierarchy shared by all matrixgt modules.

The CLI maps these onto its exit-code contract: configuration and parse
problems exit 2, I/O problems exit 3, cross-input validation problems exit 4.
"""

from __future__ import annotations

import os
import stat
from pathlib import Path


class MatrixGTError(Exception):
    """Base class for all matrixgt-specific errors."""


class ConfigError(MatrixGTError):
    """Invalid configuration: bad scenario key, degenerate range, bad codec params."""


class FormatError(MatrixGTError):
    """Malformed file content (bad magic, wrong field count, unparseable number)."""


class ValidationError(MatrixGTError):
    """Inputs are individually well-formed but mutually inconsistent."""


class BehindCameraError(MatrixGTError):
    """Geometry lies at or behind the camera plane where projection is undefined."""


def read_bytes(path: str | Path) -> bytes:
    """The bytes of the regular file ``path``, which every input file is read
    through. Anything else (a directory, a FIFO, a device) raises ``OSError``
    naming the path, so no input can stall a stage: the open does not wait
    for a FIFO's writer, and no endless device is read."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    with open(fd, "rb") as file:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise OSError(f"{path}: not a regular file")
        return file.read()


def read_text(path: str | Path, error: type[MatrixGTError]) -> str:
    """The UTF-8 text of ``path``; raises ``error`` naming the path when the
    file is not UTF-8. Every text input (scenario, manifest, meta, labels)
    is read through here, and every one is split with ``str.splitlines``, so
    line ends are left as they are."""
    data = read_bytes(path)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def write_bytes(path: str | Path, *chunks) -> None:
    """Write ``chunks`` (bytes-like, in order) to the regular file ``path``,
    made or truncated; every output file is written through here. Anything
    else (a directory, a FIFO, a device) raises ``OSError`` naming the path,
    so no output can stall a stage: the open does not wait for a FIFO's
    reader, and nothing is written to a device. A write that fails (a full
    disk, a file size limit) removes the file it cut short and raises
    ``OSError`` naming the path, so no partial file is left to pass for a
    whole one."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NONBLOCK, 0o666)
    with open(fd, "wb") as file:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise OSError(f"{path}: not a regular file")
        try:
            for chunk in chunks:
                file.write(chunk)
            file.close()  # flushes what is buffered, where a write may fail too
        except OSError as exc:
            file.raw.close()  # drops what is still buffered: nothing more is written
            os.unlink(path)
            raise OSError(exc.errno, exc.strerror, str(path)) from None


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 through :func:`write_bytes`, line
    ends as they are."""
    write_bytes(path, text.encode("utf-8"))
