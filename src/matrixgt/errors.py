"""Exception hierarchy shared by all matrixgt modules.

The CLI maps these onto its exit-code contract: configuration and parse
problems exit 2, I/O problems exit 3, cross-input validation problems exit 4.
"""

from __future__ import annotations

from pathlib import Path


class MatrixGTError(Exception):
    """Base class for all matrixgt-specific errors."""


class ConfigError(MatrixGTError):
    """Invalid configuration: bad scenario key, degenerate range, bad codec params."""


class FormatError(MatrixGTError):
    """Malformed file content (bad magic, wrong field count, unparseable number)."""


class TruncatedFileError(FormatError):
    """File payload is shorter than its header promises."""


class ValidationError(MatrixGTError):
    """Inputs are individually well-formed but mutually inconsistent."""


class BehindCameraError(MatrixGTError):
    """Geometry lies at or behind the camera plane where projection is undefined."""


def read_text(path: str | Path, error: type[MatrixGTError]) -> str:
    """The UTF-8 text of ``path``; raises ``error`` naming the path when the
    file is not UTF-8. Every text input (scenario, manifest, meta, labels)
    is read through here."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
