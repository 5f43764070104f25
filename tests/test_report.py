"""Report fields on runs that the golden cases and the run fuzzer's bases do not reach.

Each test pins the fields a run's report folds from its event log, in a case
where two plausible rules would give different values: a scheduler under
scenario C, a scheduler that sees two jobs, poison with no filter, and a
failover that repeats a refinement.
"""

from __future__ import annotations

from smosim.config import ScenarioConfig

from conftest import build, scenario_b_dict
from golden.cases import b_drift_full, c_share_models
from invariants import checked_run

# a preset-work class that contends with the training job, which takes the open class
SCHEDULER = {"budget": 4, "classes": [
    {"name": "nf", "priority": 2, "demand": 3, "work": 500},
    {"name": "train", "priority": 1, "demand": 2}]}
FIELDS = ("status", "training_ticks", "inference_ticks", "cost_ticks", "peak_demand",
          "scheduler", "refinements", "poison", "forgetting_mse")


def _fields(config: ScenarioConfig):
    result = checked_run(config)
    report = result.report.to_dict()
    return result, {k: report[k] for k in FIELDS}


def test_share_model_rounds_pass_no_scheduler_and_charge_nothing(tmp_path):
    data = c_share_models(tmp_path)
    data["harness"] = {"scheduler": SCHEDULER}
    _, fields = _fields(build(data))
    assert fields == {
        "status": "completed", "training_ticks": 26400, "inference_ticks": 148,
        "cost_ticks": 0, "peak_demand": 1, "scheduler": None, "refinements": 0,
        "poison": None, "forgetting_mse": None}


def test_the_last_scheduled_job_gives_the_outcome_and_costs_add_up(tmp_path):
    data = b_drift_full(tmp_path)
    data["harness"]["scheduler"] = SCHEDULER
    _, fields = _fields(build(data))
    # the initial job's 4200 ticks and the refinement's 600, each allocated in full;
    # the outcome shown is the refinement's
    assert fields == {
        "status": "completed", "training_ticks": 4800, "inference_ticks": 165,
        "cost_ticks": 4800, "peak_demand": 3,
        "scheduler": {"budget": 4, "jobs": {
            "nf": {"completion_tick": 167, "ideal_tick": 167, "delay": 0, "priority": 2,
                   "demand": 3, "work": 500},
            "train": {"completion_tick": 383, "ideal_tick": 300, "delay": 83, "priority": 1,
                      "demand": 2, "work": 600}}},
        "refinements": 1, "poison": None, "forgetting_mse": 13.842890739013077}


def test_poison_with_no_filter_reports_every_record_kept():
    data = scenario_b_dict(n_per_source=50)
    data["harness"] = {"poison": {"fraction": 0.2, "attack": "target_offset", "delta": 5.0}}
    _, fields = _fields(build(data))
    assert fields["poison"] == {
        "rejected": 0, "kept": 100, "true_positives": 0, "false_positives": 0,
        "false_negatives": 20, "precision": None, "recall": 0.0}
    assert (fields["training_ticks"], fields["cost_ticks"], fields["inference_ticks"]) == (
        1800, 1800, 20)


def test_refinements_is_the_restored_entry_count_not_the_refining_steps(tmp_path):
    # the replica restores a Monitored checkpoint from before the refinement at
    # 4329, and the last report detects the drift again: two Refining steps, one
    # refinement of the model the run ends with
    data = b_drift_full(tmp_path)
    data["topology"]["aiml_instances"] = 2
    data["harness"] = {"failure": {
        "target": "AimlFunction#0", "fail_tick": 4330, "heartbeat_interval": 2,
        "missed_to_declare": 2, "replicas": ["AimlFunction#1"], "checkpoint_interval": 4}}
    result, fields = _fields(build(data))
    refining = [e for e in result.sim.log.of_type("transition")
                if e.detail["state"] == "Refining"]
    assert len(refining) == 2
    assert fields == {
        "status": "completed", "training_ticks": 5400, "inference_ticks": 170,
        "cost_ticks": 5400, "peak_demand": 1, "scheduler": None, "refinements": 1,
        "poison": None, "forgetting_mse": 0.0019968278622140533}
