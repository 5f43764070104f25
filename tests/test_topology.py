"""Component graph construction and event-loop semantics."""

from __future__ import annotations

import pytest

from smosim.config import config_from_dict
from smosim.errors import (
    DuplicateComponent,
    TickLimitExceeded,
    UndeclaredRoute,
    UnknownInterface,
)
from smosim.topology import (
    ComponentId,
    ComponentKind,
    InterfaceName,
    InterfaceSpec,
    PayloadKind,
    Simulation,
    Topology,
    build_topology,
    total_delivered_bytes,
)

from conftest import scenario_b_dict


def _minimal_config(**topology):
    return config_from_dict({
        "scenario": {"kind": "B"},
        "topology": topology,
        "sources": [{
            "owner": "NSSMF#0",
            "emission": {"mode": "batch", "size": 10},
            "schema": [{"name": "x", "type": "numeric", "range": [0, 1]}],
            "coefficients": [1.0],
        }],
    })


def _bare_sim(latency: int = 2, overhead: int = 0) -> Simulation:
    topo = Topology({
        InterfaceName.NSSMF_NONRTRIC: InterfaceSpec(
            InterfaceName.NSSMF_NONRTRIC, latency, overhead),
    })
    topo.add_component(ComponentId(ComponentKind.NSSMF, 0))
    topo.add_component(ComponentId(ComponentKind.NSSMF_TERMINATION, 0))
    topo.link(ComponentId(ComponentKind.NSSMF, 0),
              ComponentId(ComponentKind.NSSMF_TERMINATION, 0),
              InterfaceName.NSSMF_NONRTRIC)
    return Simulation(topo)


class TestBuildTopology:
    def test_minimal_instantiation_auto_attaches_terminations(self):
        config = _minimal_config(nssmf=1, nfvo=1)
        topo = build_topology(config)
        terms = (topo.instances(ComponentKind.NSSMF_TERMINATION)
                 + topo.instances(ComponentKind.NFVO_TERMINATION))
        assert len(terms) == 2
        ric = ComponentId(ComponentKind.NON_RT_RIC, 0)
        for t in terms:
            assert topo.components[t].attached_to == ric

    def test_direct_nssmf_to_aiml_link_is_rejected(self):
        config = _minimal_config(nssmf=1, extra_links=[
            {"src": "NSSMF#0", "dst": "AimlFunction#0", "interface": "SmoInternal"},
        ])
        with pytest.raises(UndeclaredRoute):
            build_topology(config)

    def test_three_nfmfs_under_one_nssmf(self):
        config = _minimal_config(nssmf=1, nfmf_per_nssmf=3)
        topo = build_topology(config)
        nfmfs = topo.instances(ComponentKind.NFMF)
        assert len(nfmfs) == 3
        nssmf = ComponentId(ComponentKind.NSSMF, 0)
        for nfmf in nfmfs:
            neighbors = topo.neighbors(nfmf)
            assert neighbors == [nssmf]

    def test_duplicate_component_rejected(self):
        topo = Topology({})
        topo.add_component(ComponentId(ComponentKind.NSSMF, 0))
        with pytest.raises(DuplicateComponent):
            topo.add_component(ComponentId(ComponentKind.NSSMF, 0))


class TestSend:
    def test_latency_is_additive(self):
        sim = _bare_sim(latency=2)
        sim.run_until(5)
        msg = sim.send(ComponentId(ComponentKind.NSSMF, 0),
                       ComponentId(ComponentKind.NSSMF_TERMINATION, 0),
                       PayloadKind.RAW_DATA, 100)
        assert msg.send_tick == 5
        assert msg.deliver_tick == 7
        sim.run_until(7)
        delivers = sim.log.of_type("deliver")
        assert len(delivers) == 1 and delivers[0].tick == 7

    def test_send_to_failed_component_logs_component_down(self):
        sim = _bare_sim()
        dst = ComponentId(ComponentKind.NSSMF_TERMINATION, 0)
        sim.fail_component(dst, -1)
        sim.send(ComponentId(ComponentKind.NSSMF, 0), dst, PayloadKind.RAW_DATA, 10)
        sim.run_until(10)
        assert len(sim.log.of_type("component_down")) == 1
        assert len(sim.log.of_type("deliver")) == 0
        assert sim.meter(InterfaceName.NSSMF_NONRTRIC)["messages"] == 0

    def test_heartbeats_pass_through_failed_components(self):
        sim = _bare_sim()
        dst = ComponentId(ComponentKind.NSSMF_TERMINATION, 0)
        sim.fail_component(dst, -1)
        sim.send(ComponentId(ComponentKind.NSSMF, 0), dst, PayloadKind.HEARTBEAT, 8)
        sim.run_until(10)
        assert len(sim.log.of_type("deliver")) == 1

    def test_meter_sums_payload_bytes(self):
        sim = _bare_sim(latency=0, overhead=0)
        src = ComponentId(ComponentKind.NSSMF, 0)
        dst = ComponentId(ComponentKind.NSSMF_TERMINATION, 0)
        for size in (100, 250, 50):
            sim.send(src, dst, PayloadKind.RAW_DATA, size)
        sim.run_until(1)
        meter = sim.meter(InterfaceName.NSSMF_NONRTRIC)
        assert meter == {
            "bytes": 400, "messages": 3,
            "directions": {"NSSMF->NssmfTermination": {"bytes": 400, "messages": 3}},
        }

    def test_undeclared_route_raises(self):
        sim = _bare_sim()
        with pytest.raises(UndeclaredRoute):
            sim.send(ComponentId(ComponentKind.NSSMF, 0),
                     ComponentId(ComponentKind.NSSMF, 1),
                     PayloadKind.RAW_DATA, 1)

    def test_msg_ids_strictly_increase(self):
        sim = _bare_sim()
        src = ComponentId(ComponentKind.NSSMF, 0)
        dst = ComponentId(ComponentKind.NSSMF_TERMINATION, 0)
        ids = [sim.send(src, dst, PayloadKind.CONTROL, 1).msg_id for _ in range(5)]
        assert ids == sorted(ids) and len(set(ids)) == 5


class TestRunUntil:
    def test_runs_nothing_for_current_tick(self):
        sim = _bare_sim()
        events = sim.run_until(0)
        assert events == []

    def test_processes_only_due_events(self):
        sim = _bare_sim(latency=0)
        fired = []
        sim.schedule(3, lambda: fired.append(3))
        sim.schedule(7, lambda: fired.append(7))
        sim.run_until(5)
        assert fired == [3]
        assert sim.clock == 5
        sim.run_until(7)
        assert fired == [3, 7]

    def test_past_target_rejected(self):
        sim = _bare_sim()
        sim.run_until(4)
        with pytest.raises(ValueError):
            sim.run_until(3)


class TestRunToCompletion:
    def test_stop_leaves_later_actions_unrun(self):
        sim = _bare_sim()
        fired = []
        sim.schedule(3, lambda: (fired.append(3), sim.stop()))
        sim.schedule(3, lambda: fired.append("same tick"))
        sim.schedule(7, lambda: fired.append(7))
        sim.run_to_completion()
        assert fired == [3]
        assert sim.clock == 3

    def test_action_past_max_tick_raises_tick_limit_exceeded(self):
        sim = _bare_sim()
        fired = []
        sim.schedule(5, lambda: fired.append(5))
        sim.schedule(12, lambda: fired.append(12))
        with pytest.raises(TickLimitExceeded):
            sim.run_to_completion(max_tick=10)
        assert fired == [5]
        assert sim.clock == 5
        assert sim.pending()


class TestMeterContract:
    def test_unknown_interface(self):
        sim = _bare_sim()
        with pytest.raises(UnknownInterface):
            sim.meter("R1")

    def test_zero_when_untouched(self):
        sim = _bare_sim()
        meter = sim.meter(InterfaceName.NSSMF_NONRTRIC)
        assert meter["bytes"] == 0 and meter["messages"] == 0

    def test_single_message_includes_overhead(self):
        sim = _bare_sim(latency=0, overhead=24)
        sim.send(ComponentId(ComponentKind.NSSMF, 0),
                 ComponentId(ComponentKind.NSSMF_TERMINATION, 0),
                 PayloadKind.RAW_DATA, 1000)
        sim.run_until(1)
        meter = sim.meter(InterfaceName.NSSMF_NONRTRIC)
        assert meter["bytes"] == 1024 and meter["messages"] == 1

    def test_conservation_against_event_log(self):
        sim = _bare_sim(latency=1, overhead=24)
        src = ComponentId(ComponentKind.NSSMF, 0)
        dst = ComponentId(ComponentKind.NSSMF_TERMINATION, 0)
        for size in (10, 20, 30, 40):
            sim.send(src, dst, PayloadKind.RAW_DATA, size)
            sim.send(dst, src, PayloadKind.CONTROL, size // 2)
        sim.run_until(5)
        total = sum(sim.meter(name)["bytes"] for name in sim.meters)
        assert total == total_delivered_bytes(sim.log)


class TestDeterminism:
    def test_identical_runs_produce_identical_logs(self):
        from smosim.scenarios import run_scenario

        config_a = config_from_dict(scenario_b_dict(n_per_source=60))
        config_b = config_from_dict(scenario_b_dict(n_per_source=60))
        log_a = run_scenario(config_a).sim.log.to_jsonl()
        log_b = run_scenario(config_b).sim.log.to_jsonl()
        assert log_a == log_b

    def test_log_order_respects_tick_then_seq(self):
        from smosim.scenarios import run_scenario

        config = config_from_dict(scenario_b_dict(n_per_source=60))
        log = run_scenario(config).sim.log.entries
        keys = [(e.tick, e.seq) for e in log]
        assert keys == sorted(keys)

    def test_causality_deliver_not_before_send(self):
        from smosim.scenarios import run_scenario

        config = config_from_dict(scenario_b_dict(n_per_source=60))
        log = run_scenario(config).sim.log.entries
        sends = {e.detail["msg_id"]: e.tick for e in log if e.type == "send"}
        for e in log:
            if e.type == "deliver":
                assert e.tick >= sends[e.detail["msg_id"]]

    def test_routing_soundness_all_messages_on_allowed_pairs(self):
        from smosim.scenarios import run_scenario
        from smosim.topology import allowed_on

        config = config_from_dict(scenario_b_dict(n_per_source=60))
        log = run_scenario(config).sim.log.entries
        seen = 0
        for e in log:
            if e.type in ("send", "deliver"):
                src = ComponentId.parse(e.src)
                dst = ComponentId.parse(e.dst)
                assert allowed_on(InterfaceName(e.interface), src.kind, dst.kind)
                seen += 1
        assert seen > 0
