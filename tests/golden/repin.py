"""Re-pin the golden runs under ``tests/golden/``.

    PYTHONPATH=src python tests/golden/repin.py [case ...]

Re-pin only when a change alters the simulator's outputs on purpose, and
say in CHANGES.md which cases moved and why. With no arguments every case
is re-pinned.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1])]

from golden.cases import CASES, dumps, golden_path, pinned, run_case  # noqa: E402


def main(names: list[str]) -> int:
    for name in names or list(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            pin = pinned(run_case(name, Path(tmp)))
        path = golden_path(name)
        old = path.read_text() if path.exists() else None
        text = dumps(pin)
        path.write_text(text)
        state = "unchanged" if old == text else ("new" if old is None else "changed")
        print(f"{name}: {state} ({pin['report']['status']}, "
              f"{pin['event_count']} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
