"""Re-pin the golden runs under ``tests/golden/``.

    PYTHONPATH=src python tests/golden/repin.py [case ...]

Re-pin only when a change alters the simulator's outputs on purpose, and
say in CHANGES.md which cases moved and why. With no arguments every case
is re-pinned. For a changed case it prints each report key whose value
moved, and ``event_count`` and ``events_sha256`` if they did, old -> new.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1])]

from golden.cases import CASES, dumps, golden_path, pinned, run_case  # noqa: E402


def _text(value: object) -> str:
    """The JSON of ``value``, cut to 70 characters."""
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= 70 else text[:67] + "..."


def moved(old: dict, new: dict) -> list[str]:
    """One ``key: old -> new`` line per report key, then per log pin, that moved."""
    pairs = [(f"report.{key}", old["report"].get(key), new["report"].get(key))
             for key in sorted(old["report"].keys() | new["report"].keys())]
    pairs += [(key, old.get(key), new.get(key)) for key in ("event_count", "events_sha256")]
    return [f"  {key}: {_text(a)} -> {_text(b)}" for key, a, b in pairs
            if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)]


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
        if state == "changed":
            print("\n".join(moved(json.loads(old), json.loads(text))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
