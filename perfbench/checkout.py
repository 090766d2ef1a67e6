"""Locate the checkout the benchmark runs in and import ``asaf`` from it.

The benchmark measures the source tree it sits in, never an installed
copy: ``src`` of the checkout goes first on ``sys.path`` and the imported
package must come from there.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(SystemExit):
    """Raised when the checkout does not hold the package to measure."""


def use_checkout_src() -> None:
    """Put ``<checkout>/src`` first on the import path and check ``asaf`` loads from it."""
    if not (SRC / "asaf" / "__init__.py").is_file():
        raise MissingProgram(f"no package to measure: {SRC / 'asaf'} is missing")
    sys.path.insert(0, str(SRC))
    import asaf

    if Path(asaf.__file__).resolve().parent != (SRC / "asaf").resolve():
        raise MissingProgram(f"asaf was imported from {asaf.__file__}, not from {SRC}")


def commit() -> str | None:
    """The checked-out commit read from ``.git`` without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the measured code
    also where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "asaf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()
