"""Import ``fstlearn`` from the checkout's own ``src`` directory.

The benchmark measures the source tree it ships with, so an installed copy of
the package must never be picked up in its place.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_fstlearn():
    """Put ``src`` first on ``sys.path`` and import the package from it.

    Exits with a message and a non-zero status when ``src`` does not hold
    the package, as in a directory that has only the benchmark's files.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import fstlearn
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fstlearn from {SRC}: {exc}")
    if not Path(fstlearn.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: fstlearn was imported from outside {SRC}")
    return fstlearn
