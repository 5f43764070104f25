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

import numpy as np
import pytest

import smosim
from smosim import cli, config_from_dict, learn
from smosim.config import load_config
from smosim.errors import ConfigError
from smosim.scenarios import report_from
from smosim.topology import Event, EventLog
from golden.cases import CASES, dumps, golden_path, pinned, run_case
from golden.reach import UNREACHED
from invariants import check_invariants, checked_run


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_run_matches_pin(name, tmp_path):
    result = run_case(name, tmp_path)
    check_invariants(result)
    assert dumps(pinned(result)) == golden_path(name).read_text()


@pytest.mark.parametrize("kind", ["LogisticSgd", "DecisionStump"])
def test_classifier_fits_on_the_golden_bases_see_only_labels(kind, tmp_path, monkeypatch):
    """Each golden config run with a classifier ``model.kind``, wherever the
    config accepts it, fits only 0/1 targets: every SGD kernel call of a
    classifier and every stump fit, by whichever path reaches it (train,
    search, online training, refinement, share-models rounds)."""
    fits: list[np.ndarray] = []
    sgd, stump = learn._sgd, learn._fit_stump

    def spied_sgd(fit_kind, X, y, *args, **kwargs):
        if not fit_kind.is_regression:
            fits.append(y)
        return sgd(fit_kind, X, y, *args, **kwargs)

    def spied_stump(X, y):
        fits.append(y)
        return stump(X, y)

    monkeypatch.setattr(learn, "_sgd", spied_sgd)
    monkeypatch.setattr(learn, "_fit_stump", spied_stump)
    monkeypatch.chdir(tmp_path)  # the import cases name their files relative to it
    accepted, fitted = set(), set()
    for name, case in CASES.items():
        data = case(tmp_path)
        data["model"]["kind"] = kind
        try:
            config = config_from_dict(data)
        except ConfigError as exc:
            assert "needs an SGD kind" in str(exc)  # share-models averages parameters
            continue
        accepted.add(name)
        fits.clear()
        checked_run(config)
        assert all(np.isin(y, (0.0, 1.0)).all() for y in fits), name
        fitted |= {name} if fits else set()
    # every accepted base fits a classifier, but import-model's, which reject
    # their LinearSgd artifact as not of model.kind
    assert accepted - fitted == {"a_import_model", "a_import_refine_failover"}
    assert len(accepted) == len(CASES) - (2 if kind == "DecisionStump" else 0)


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


def test_the_functions_no_run_enters_are_the_listed_ones():
    """``reach.py``, in a fresh process, finds unentered exactly the functions
    that ``UNREACHED`` lists with a reason, so that code no run enters is either
    reached by a golden case or says why it stays."""
    reach = Path(__file__).resolve().parent / "golden" / "reach.py"  # it sets its own path
    proc = subprocess.run([sys.executable, str(reach)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    *lines, count = proc.stdout.splitlines()
    unreached = {(path.rsplit(":", 1)[0], qualname)
                 for path, qualname in (line.split(" ", 1) for line in lines)}
    assert unreached == set(UNREACHED)
    assert count == f"{len(UNREACHED)} functions not entered"


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
    log = EventLog(map(Event.from_json, (out / "events.jsonl").read_text().splitlines()))
    report = report_from(load_config(str(config)), log)
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
