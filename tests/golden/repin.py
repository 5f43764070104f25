"""Re-pin the golden runs under ``tests/golden/``.

    PYTHONPATH=src python tests/golden/repin.py [case ...]

Re-pin only when a change alters the simulator's outputs on purpose, and
say in CHANGES.md which cases moved and why. With no arguments every case
is re-pinned. For a changed case it prints each report value that moved,
by its dotted key (``report.model.test_mse``), and ``event_count`` and
``events_sha256`` if they did, old -> new.
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


def _pairs(key: str, a: object, b: object) -> list[tuple[str, object, object]]:
    """(dotted key, old, new) of ``key``, descending into the keys of two objects."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [pair for k in sorted(a.keys() | b.keys())
                for pair in _pairs(f"{key}.{k}", a.get(k), b.get(k))]
    return [(key, a, b)]


def moved(old: dict, new: dict) -> list[str]:
    """One ``key: old -> new`` line per report value, then per log pin, that moved;
    a nested object's values are named by their dotted keys."""
    pairs = _pairs("report", old["report"], new["report"])
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
