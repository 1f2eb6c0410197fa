"""Entry point: ``python -m repro.bench`` or, from a checkout's root,
``python3 src/repro/bench/__main__.py`` (what ``BENCHMARK.json`` runs)."""

import sys
from pathlib import Path

if __package__ in (None, ""):
    # Run as a file: import this checkout's sources, and not the modules
    # that sit next to this file, which Python put first on the path.
    _SRC = Path(__file__).resolve().parents[2]
    if not (_SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"no repro sources under {_SRC}: run from a full checkout")
    sys.path[0] = str(_SRC)

from repro.bench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
