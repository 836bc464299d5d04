"""Import ``quivercuts`` from the checkout's own ``src/``, or stop.

The benchmark measures the source tree it sits in, never an installed copy:
without ``src/quivercuts`` beside this directory it exits with status 1
before printing any result.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quivercuts"


def use_checkout_source() -> None:
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"error: no quivercuts package at {PACKAGE}; run from a checkout of the repository")
    sys.path.insert(0, str(PACKAGE.parent))
    import quivercuts

    if Path(quivercuts.__file__).resolve().parent != PACKAGE:
        sys.exit(f"error: imported quivercuts from {quivercuts.__file__}, not from {PACKAGE}")
