"""Golden parity: small runs must reproduce their pinned outputs exactly.

Floats are compared through their ``repr`` text, so any last-bit change in a
report value, and any change to the event log, fails the test.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smosim
from smosim import cli
from smosim.config import load_config
from smosim.scenarios import report_from
from smosim.topology import Event
from golden.cases import CASES, dumps, golden_path, pinned, run_case
from invariants import check_invariants


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_run_matches_pin(name, tmp_path):
    result = run_case(name, tmp_path)
    check_invariants(result)
    assert dumps(pinned(result)) == golden_path(name).read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_run_does_not_import_numpy_ma(name, tmp_path):
    """A run uses nothing from ``numpy.ma``, but ``np.median`` and
    ``np.percentile`` import it on their first call, a cost paid by every
    run. A fresh process runs the case and builds its outputs, then reports."""
    script = ("import sys; from pathlib import Path; "
              "from golden.cases import pinned, run_case; "
              f"pinned(run_case({name!r}, Path(sys.argv[1]))); "
              "print('numpy.ma' in sys.modules)")
    tests = Path(__file__).resolve().parent
    src = Path(smosim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_rebuilds_from_the_out_dir(name, tmp_path, monkeypatch):
    """``report.json`` is a fold of ``events.jsonl``: the config and the log
    that ``smosim run --out`` writes rebuild its text exactly."""
    monkeypatch.chdir(tmp_path)  # the import case names its artifact relative to it
    monkeypatch.delenv("SMO_SIM_SEED", raising=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CASES[name](tmp_path)))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    events = [Event.from_json(line) for line in (out / "events.jsonl").read_text().splitlines()]
    report = report_from(load_config(str(config)), events)
    assert json.dumps(report.to_dict(), indent=2) + "\n" == (out / "report.json").read_text()


@pytest.mark.parametrize("name", ["b_stream_incremental", "b_stream_failover", "c_share_models",
                                  "c_share_data"])
def test_outputs_do_not_depend_on_the_hash_seed(name, tmp_path):
    """Ids hash by identity and strings by a per-process seed, so two
    processes with different hash seeds must still write the same bytes."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CASES[name](tmp_path)))
    src = str(Path(smosim.__file__).resolve().parents[1])
    runs = {}
    for hash_seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = tmp_path / f"out-{hash_seed}"
        runs[out] = subprocess.Popen(
            [sys.executable, "-m", "smosim.cli", "run", "--config", str(config),
             "--out", str(out)], env=env, cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for proc in runs.values():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    first, second = runs
    for output in ("report.json", "events.jsonl"):
        assert (first / output).read_bytes() == (second / output).read_bytes(), output
    # and both equal the pin, which one process's id addresses could match by chance
    report = json.loads((first / "report.json").read_text())
    events = (first / "events.jsonl").read_bytes()
    assert dumps({"report": report, "events_sha256": hashlib.sha256(events).hexdigest(),
                  "event_count": report["event_count"]}) == golden_path(name).read_text()
