"""Component graph construction and event-loop semantics."""

from __future__ import annotations

import copy
import dataclasses
import gc
import json
import math
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smosim.config import (MAX_COMPONENTS, LinkSpec, ScenarioConfig, ScenarioKind,
                           TopologyCounts, config_from_dict)
from smosim.errors import (
    DuplicateComponent,
    TickLimitExceeded,
    UndeclaredRoute,
    UnknownInterface,
)
from smosim.topology import (
    ComponentId,
    ComponentKind,
    Event,
    EventLog,
    InterfaceName,
    InterfaceSpec,
    PayloadKind,
    Simulation,
    Topology,
    build_topology,
    census,
)

from conftest import run_until, scenario_b_dict
from golden.cases import CASES, run_case
from invariants import checked_run


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


def _rich_topology() -> Topology:
    """NFMFs, a VNFM, MDA systems, an external provider, rApps and three AI/ML instances."""
    return build_topology(_minimal_config(
        nssmf=1, nfmf_per_nssmf=2, nfvo=1, vnfm=1, mda_3gpp=1, mda_nfv=1, rapps=2,
        aiml_instances=3, external_provider=True))


_COUNT = st.integers(0, MAX_COMPONENTS)
_NFV_ATTACHED = ("vnfm", "vim", "wim", "cism", "cir", "ccm")


@st.composite
def _topology_counts(draw) -> TopologyCounts:
    """Counts within the bounds that ``config_from_dict`` enforces."""
    counts = {name: draw(_COUNT) for name in ("nfvo", "mda_3gpp", "mda_nfv", "rapps",
                                              *_NFV_ATTACHED)}
    if any(counts[name] for name in _NFV_ATTACHED):  # they attach to an NFVO
        counts["nfvo"] = max(counts["nfvo"], 1)
    nssmf = draw(_COUNT)
    return TopologyCounts(
        nssmf=nssmf, nfmf_per_nssmf=draw(st.integers(0, MAX_COMPONENTS // max(nssmf, 1))),
        aiml_instances=draw(st.integers(1, MAX_COMPONENTS)),
        external_provider=draw(st.booleans()), **counts)


class TestBuildTopology:
    @settings(max_examples=60, deadline=None)
    @given(_topology_counts())
    def test_the_built_graph_adds_exactly_the_census_in_order(self, counts):
        topo = build_topology(ScenarioConfig(ScenarioKind.B, topology=counts))
        assert list(topo.components) == [cid for ids in census(counts).values() for cid in ids]

    @pytest.mark.parametrize("counts, expected", [
        (TopologyCounts(nssmf=2, nfmf_per_nssmf=2, nfvo=1, vnfm=1, ccm=1, mda_3gpp=1, rapps=1,
                        aiml_instances=2, external_provider=True),
         ["NonRtRic#0", "AimlFunction#0", "AimlFunction#1", "NSSMF#0", "NSSMF#1", "NFVO#0",
          "MdaSystem3GPP#0", "RApp#0", "NFMF#0", "NFMF#1", "NFMF#2", "NFMF#3", "VNFM#0", "CCM#0",
          "NssmfTermination#0", "NfvoTermination#0", "ExternalAimlTermination#0",
          "ExternalProvider#0"]),
        # an MDA system alone still gets its side's termination
        (TopologyCounts(mda_nfv=1), ["NonRtRic#0", "AimlFunction#0", "MdaSystemNFV#0",
                                     "NfvoTermination#0"]),
    ])
    def test_the_census_lists_each_kind_in_add_order(self, counts, expected):
        assert [str(cid) for ids in census(counts).values() for cid in ids] == expected

    def test_minimal_instantiation_auto_attaches_terminations(self):
        config = _minimal_config(nssmf=1, nfvo=1)
        topo = build_topology(config)
        terms = [c for c in topo.components if c.kind in (
            ComponentKind.NSSMF_TERMINATION, ComponentKind.NFVO_TERMINATION)]
        assert len(terms) == 2

    def test_direct_nssmf_to_aiml_link_is_rejected(self):
        # config_from_dict rejects this link too, so it is added past the parser
        config = _minimal_config(nssmf=1)
        link = LinkSpec(ComponentId(ComponentKind.NSSMF, 0),
                        ComponentId(ComponentKind.AIML_FUNCTION, 0), InterfaceName.SMO_INTERNAL)
        config.topology = dataclasses.replace(config.topology, extra_links=(link,))
        with pytest.raises(UndeclaredRoute):
            build_topology(config)

    def test_three_nfmfs_under_one_nssmf(self):
        config = _minimal_config(nssmf=1, nfmf_per_nssmf=3)
        topo = build_topology(config)
        nfmfs = [c for c in topo.components if c.kind is ComponentKind.NFMF]
        assert len(nfmfs) == 3
        nssmf = ComponentId(ComponentKind.NSSMF, 0)
        for nfmf in nfmfs:
            neighbors = topo.neighbors(nfmf)
            assert neighbors == [nssmf]

    def test_link_on_an_undeclared_interface_rejected(self):
        topo = _bare_sim().topology
        with pytest.raises(UnknownInterface):
            topo.link(ComponentId(ComponentKind.NSSMF, 0),
                      ComponentId(ComponentKind.NSSMF_TERMINATION, 0), InterfaceName.R1)

    def test_duplicate_component_rejected(self):
        topo = Topology({})
        topo.add_component(ComponentId(ComponentKind.NSSMF, 0))
        with pytest.raises(DuplicateComponent):
            topo.add_component(ComponentId(ComponentKind.NSSMF, 0))


class TestSend:
    def test_latency_is_additive(self):
        sim = _bare_sim(latency=2)
        run_until(sim, 5)
        msg = sim.send(ComponentId(ComponentKind.NSSMF, 0),
                       ComponentId(ComponentKind.NSSMF_TERMINATION, 0),
                       PayloadKind.RAW_DATA, 100)
        assert msg.send_tick == 5
        assert msg.deliver_tick == 7
        run_until(sim, 7)
        delivers = sim.log.of_type("deliver")
        assert len(delivers) == 1 and delivers[0].tick == 7

    def test_send_to_failed_component_logs_component_down(self):
        sim = _bare_sim()
        dst = ComponentId(ComponentKind.NSSMF_TERMINATION, 0)
        sim.fail_component(dst, -1)
        sim.send(ComponentId(ComponentKind.NSSMF, 0), dst, PayloadKind.RAW_DATA, 10)
        run_until(sim, 10)
        assert len(sim.log.of_type("component_down")) == 1
        assert len(sim.log.of_type("deliver")) == 0

    def test_heartbeats_pass_through_failed_components(self):
        sim = _bare_sim()
        dst = ComponentId(ComponentKind.NSSMF_TERMINATION, 0)
        sim.fail_component(dst, -1)
        sim.send(ComponentId(ComponentKind.NSSMF, 0), dst, PayloadKind.HEARTBEAT, 8)
        run_until(sim, 10)
        assert len(sim.log.of_type("deliver")) == 1

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
        events = run_until(sim, 0)
        assert events == []

    def test_processes_only_due_events(self):
        sim = _bare_sim(latency=0)
        fired = []
        sim.schedule(3, lambda: fired.append(3))
        sim.schedule(7, lambda: fired.append(7))
        run_until(sim, 5)
        assert fired == [3]
        assert sim.clock == 5
        run_until(sim, 7)
        assert fired == [3, 7]


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
        sim.run_to_completion(max_tick=20)  # the tick-12 action is still queued
        assert fired == [5, 12]


def _cell(bytes: int, messages: int) -> dict[str, int]:
    return {"bytes": bytes, "messages": messages}


class TestSignalingTable:
    """``signaling_table`` folded from the log of a bare simulation."""

    A = ComponentId(ComponentKind.NSSMF, 0)
    B = ComponentId(ComponentKind.NSSMF_TERMINATION, 0)

    def test_directions_and_payload_kinds_count_payload_plus_overhead(self):
        sim = _bare_sim(latency=1, overhead=24)
        # delivered in the reverse of the table's sorted key order
        sim.send(self.B, self.A, PayloadKind.RAW_DATA, 10)
        for size in (100, 250):
            sim.send(self.A, self.B, PayloadKind.CONTROL, size)
        run_until(sim, 5)
        entry = sim.signaling_table()["NSSMF_NonRTRIC"]
        assert entry == {
            "bytes": 432, "messages": 3,
            "directions": {"NSSMF->NssmfTermination": _cell(398, 2),
                           "NssmfTermination->NSSMF": _cell(34, 1)},
            "by_kind": {"Control": _cell(398, 2), "RawData": _cell(34, 1)},
        }
        assert list(entry["directions"]) == ["NSSMF->NssmfTermination", "NssmfTermination->NSSMF"]
        assert list(entry["by_kind"]) == ["Control", "RawData"]

    def test_every_interface_in_topology_order_and_untouched_ones_read_zero(self):
        topo = Topology({name: InterfaceSpec(name, 0, 0)
                         for name in (InterfaceName.R1, InterfaceName.NSSMF_NONRTRIC)})
        topo.add_component(self.A)
        topo.add_component(self.B)
        topo.link(self.A, self.B, InterfaceName.NSSMF_NONRTRIC)
        sim = Simulation(topo)
        empty = {"bytes": 0, "messages": 0, "directions": {}, "by_kind": {}}
        assert sim.signaling_table() == {"R1": empty, "NSSMF_NonRTRIC": empty}
        sim.send(self.A, self.B, PayloadKind.REPORT, 7)
        run_until(sim, 0)
        table = sim.signaling_table()
        assert list(table) == ["R1", "NSSMF_NonRTRIC"]
        assert table["R1"] == empty
        assert table["NSSMF_NonRTRIC"] == {
            "bytes": 7, "messages": 1, "directions": {"NSSMF->NssmfTermination": _cell(7, 1)},
            "by_kind": {"Report": _cell(7, 1)}}

    def test_drops_are_not_counted_and_heartbeats_into_a_failed_component_are(self):
        sim = _bare_sim(latency=1, overhead=24)
        sim.fail_component(self.B, -1)
        sim.send(self.A, self.B, PayloadKind.RAW_DATA, 1000)
        sim.send(self.A, self.B, PayloadKind.HEARTBEAT, 8)
        run_until(sim, 1)
        sim.send(self.A, self.B, PayloadKind.RAW_DATA, 500)  # still in flight
        assert [e.type for e in sim.log.entries if e.type != "send"] == [
            "component_down", "deliver"]
        assert sim.signaling_table() == {"NSSMF_NonRTRIC": {
            "bytes": 32, "messages": 1,
            "directions": {"NSSMF->NssmfTermination": _cell(32, 1)},
            "by_kind": {"Heartbeat": _cell(32, 1)},
        }}


class TestDeterminism:
    def test_identical_runs_produce_identical_logs(self):

        config_a = config_from_dict(scenario_b_dict(n_per_source=60))
        config_b = config_from_dict(scenario_b_dict(n_per_source=60))
        log_a = checked_run(config_a).sim.log.to_jsonl()
        log_b = checked_run(config_b).sim.log.to_jsonl()
        assert log_a == log_b

    def test_log_order_respects_tick_then_seq(self):

        config = config_from_dict(scenario_b_dict(n_per_source=60))
        log = checked_run(config).sim.log.entries
        keys = [(e.tick, e.seq) for e in log]
        assert keys == sorted(keys)

    def test_causality_deliver_not_before_send(self):

        config = config_from_dict(scenario_b_dict(n_per_source=60))
        log = checked_run(config).sim.log.entries
        sends = {e.detail["msg_id"]: e.tick for e in log if e.type == "send"}
        for e in log:
            if e.type == "deliver":
                assert e.tick >= sends[e.detail["msg_id"]]

    def test_routing_soundness_all_messages_on_allowed_pairs(self):
        from smosim.topology import allowed_on

        config = config_from_dict(scenario_b_dict(n_per_source=60))
        log = checked_run(config).sim.log.entries
        seen = 0
        for e in log:
            if e.type in ("send", "deliver"):
                src = ComponentId.parse(e.src)
                dst = ComponentId.parse(e.dst)
                assert allowed_on(InterfaceName(e.interface), src.kind, dst.kind)
                seen += 1
        assert seen > 0


class TestAdjacency:
    def test_neighbours_and_interfaces_are_one_symmetric_record(self):
        topo = _rich_topology()
        assert len(topo.components) >= 17
        linked = 0
        for a in topo.components:
            for b in topo.components:
                try:
                    interface = topo.wire(a, b).interface
                except UndeclaredRoute:
                    assert b not in topo.neighbors(a) and a not in topo.neighbors(b)
                    continue
                linked += 1
                assert b in topo.neighbors(a) and a in topo.neighbors(b)
                assert topo.wire(b, a).interface is interface
        assert linked > 0

    def test_neighbours_are_sorted(self):
        topo = _rich_topology()
        for c in topo.components:
            assert topo.neighbors(c) == sorted(topo.neighbors(c))


class TestComponentId:
    def test_text_order_and_fields_are_those_of_the_dataclass_and_equality_is_identity(self):
        a = ComponentId(ComponentKind.NFMF, 3)
        same = ComponentId.parse("NFMF#3")
        assert str(a) == f"{a}" == "NFMF#3"
        # interned: one object per (kind, index), compared and hashed as that object
        assert a is same and a == same and not (a != same)
        assert hash(a) == hash(same) == object.__hash__(a)
        assert a != ComponentId(ComponentKind.NFMF, 4)
        assert a != ComponentId(ComponentKind.NSSMF, 3)
        assert len({a, same, ComponentId(ComponentKind.NFMF, 4)}) == 2
        ids = [ComponentId(ComponentKind.NSSMF, 1), ComponentId(ComponentKind.NFMF, 2),
               ComponentId(ComponentKind.NSSMF, 0), a]
        assert sorted(ids) == sorted(ids, key=lambda c: (c.kind, c.index))
        assert [f.name for f in dataclasses.fields(ComponentId)] == ["kind", "index"]
        assert dataclasses.asdict(a) == {"kind": ComponentKind.NFMF, "index": 3}
        assert repr(a) == "ComponentId(kind=<ComponentKind.NFMF: 'NFMF'>, index=3)"

    def test_every_way_of_making_an_id_returns_the_interned_one_and_it_stays_frozen(self):
        a = ComponentId(ComponentKind.NFMF, 3)
        b = dataclasses.replace(a, index=4)
        assert str(b) == "NFMF#4" and b is ComponentId(ComponentKind.NFMF, 4)
        assert b is ComponentId.parse("NFMF#4") is ComponentId(kind=ComponentKind.NFMF, index=4)
        assert dataclasses.replace(b, index=3) is a
        assert ComponentId(ComponentKind.NFMF, 3) is a is ComponentId.parse("NFMF#3")
        assert copy.copy(a) is a and copy.deepcopy(a) is a
        assert copy.deepcopy({"ids": [a, b]})["ids"][1] is b
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(a, protocol)) is a
        assert ComponentId(ComponentKind.NSSMF) is ComponentId.parse("NSSMF") \
            is ComponentId(ComponentKind.NSSMF, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.index = 5  # type: ignore[misc]
        assert a.index == 3 and str(a) == "NFMF#3"

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_a_run_holds_only_interned_ids(self, name, tmp_path):
        result = run_case(name, tmp_path)
        config, topo = result.driver.config, result.driver.topology
        placed = [s.owner for s in config.sources] + list(config.deploy.targets)
        linked = [n for c in topo.components for n in topo.neighbors(c)]
        ids = placed + list(topo.components) + linked + list(result.sim.handlers)
        assert len(ids) > len(topo.components)
        for c in ids:
            assert c is ComponentId(c.kind, c.index), c


def _reference_line(e: Event) -> str:
    return json.dumps({"tick": e.tick, "seq": e.seq, "event_type": e.type, "src": e.src,
                       "dst": e.dst, "interface": e.interface,
                       "payload_kind": e.payload_kind, "bytes": e.bytes,
                       "detail": e.detail}, separators=(",", ":"))


_ints = st.one_of(st.integers(min_value=0, max_value=1 << 40),
                  st.integers(min_value=(1 << 63) - 2, max_value=1 << 80),
                  st.integers(max_value=-1))
# an event's tick, seq and bytes: what the log's int64 columns hold, both ends included
_int64s = st.one_of(st.integers(min_value=0, max_value=1 << 40),
                    st.integers(min_value=(1 << 63) - 2, max_value=(1 << 63) - 1),
                    st.integers(min_value=-(1 << 63), max_value=-1),
                    st.sampled_from([-(1 << 63), (1 << 63) - 1]))
_texts = st.one_of(
    st.none(), st.text(max_size=12),
    st.sampled_from(['say "hi"', "back\\slash\\", "ctl\x00\x1f\x7f\n\t", "ünï©ødé ☃ 𝄞",
                     "NSSMF#0", "", "msg_id"]))
_leaves = st.one_of(st.none(), st.booleans(), _ints, st.floats(), _texts)
_json_values = st.recursive(
    _leaves, lambda inner: st.one_of(st.lists(inner, max_size=3),
                                     st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
_details = st.one_of(
    st.sampled_from([{"msg_id": True}, {"msg_id": False}, {"msg_id": 1.0},
                     {"msg_id": 2 ** 70}, {"msg_id": -3}, {"msg_id": None}, {},
                     {"msg_id": float("nan")}, {"msg_id": [1, {"x": math.inf}]},
                     {"status": "completed"}, {"msg_id": 4, "extra": 1}, {"window": [3, 9]}]),
    st.builds(lambda v: {"msg_id": v}, _ints),
    st.dictionaries(st.text(max_size=8), _json_values, max_size=4),
)
_events = st.builds(Event, tick=_int64s, seq=_int64s, type=st.text(max_size=12), src=_texts,
                    dst=_texts, interface=_texts, payload_kind=_texts, bytes=_int64s,
                    detail=_details)


@st.composite
def _events_sharing_keys(draw) -> list[Event]:
    """Events that reuse a few (type, src, dst, interface, payload_kind) keys,
    each with its own tick, seq, bytes and detail."""
    keys = draw(st.lists(st.tuples(st.text(max_size=12), _texts, _texts, _texts, _texts),
                         min_size=1, max_size=3))
    return [Event(draw(_int64s), draw(_int64s), *draw(st.sampled_from(keys)), draw(_int64s),
                  draw(_details)) for _ in range(draw(st.integers(1, 8)))]


@st.composite
def _log_events(draw) -> list[Event]:
    """Events over a few shared heads, each with a message's ``{"msg_id": n}``
    detail or another one; the ids include 0 and negative ones, and the other
    details ``{}``."""
    heads = draw(st.lists(st.tuples(st.text(max_size=12), _texts, _texts, _texts, _texts),
                          min_size=1, max_size=3))
    events = []
    for _ in range(draw(st.integers(0, 10))):
        fields = (draw(_int64s), draw(_int64s), *draw(st.sampled_from(heads)), draw(_int64s))
        if draw(st.booleans()):
            events.append(Event(*fields, {"msg_id": draw(st.sampled_from([0, -1]) | _ints)}))
        else:
            events.append(Event(*fields, draw(st.sampled_from([{}, {"msg_id": 0}]) | _details)))
    return events


def _jsonl(events) -> str:
    return "".join(_reference_line(e) + "\n" for e in events)


class TestEventRendering:
    @settings(max_examples=200, deadline=None)
    @given(_log_events())
    def test_a_log_reads_back_and_renders_the_events_appended_to_it(self, events):
        log = EventLog()
        for e in events:
            log.append(e)
        entries, n = log.entries, len(events)
        assert len(entries) == n
        assert [entries[i] for i in range(n)] == events
        assert [entries[i] for i in range(-n, 0)] == events
        assert entries[1:-1] == events[1:-1] and entries[::-2] == events[::-2]
        assert list(entries) == events and entries == events and entries == EventLog(events).entries
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                entries[bad]
        assert log.to_jsonl() == _jsonl(events)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_events, max_size=4))
    def test_lines_equal_json_dumps_of_the_nine_keys(self, events):
        log = EventLog()
        for e in events:
            log.append(e)
        assert log.to_jsonl() == _jsonl(events)

    @settings(max_examples=200, deadline=None)
    @given(_events_sharing_keys())
    def test_from_json_inverts_the_line_on_repeated_keys(self, events):
        lines = _jsonl(events)
        for e, line in zip(events, lines.splitlines()):
            back = Event.from_json(line)
            assert _reference_line(back) == line
            assert (back.tick, back.seq, back.type, back.src, back.dst, back.interface,
                    back.payload_kind, back.bytes) == (e.tick, e.seq, e.type, e.src, e.dst,
                                                       e.interface, e.payload_kind, e.bytes)
            if "NaN" not in line:  # NaN != NaN, so only the text can match then
                assert back == e
        assert EventLog(map(Event.from_json, lines.splitlines())).to_jsonl() == lines

    def test_from_json_rejects_a_line_that_is_not_an_event(self):
        line = _reference_line(Event(1, 2, "send", "NSSMF#0"))
        assert Event.from_json(line) == Event(1, 2, "send", "NSSMF#0")
        # numbers an int64 column cannot hold, or that are no int
        odd_numbers = [line.replace(f'"{key}":{value}', f'"{key}":{odd}')
                       for key, value in (("tick", 1), ("seq", 2), ("bytes", 0))
                       for odd in ("1.5", '"5"', "true", "null", 2 ** 63, -2 ** 63 - 1)]
        for bad in ('{"tick":1}', line.replace('"seq"', '"sequence"'), "[1, 2]", "5",
                    line.replace('"detail":{}', '"detail":null'),
                    line.replace('"detail":{}', '"detail":[7]'),
                    line.replace('"event_type":"send"', '"event_type":5'),
                    line.replace('"src":"NSSMF#0"', '"src":[1]'),
                    line.replace('"dst":null', '"dst":{}'), *odd_numbers):
            with pytest.raises(ValueError):
                Event.from_json(bad)
        for edge in (2 ** 63 - 1, -2 ** 63):
            for key, value in (("tick", 1), ("seq", 2), ("bytes", 0)):
                event = Event.from_json(line.replace(f'"{key}":{value}', f'"{key}":{edge}'))
                assert getattr(event, key) == edge
                assert EventLog([event]).to_jsonl() == _reference_line(event) + "\n"

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_a_golden_log_renders_as_its_events_lines(self, name, tmp_path):
        log = run_case(name, tmp_path).sim.log
        text = log.to_jsonl()
        rebuilt = EventLog(map(Event.from_json, text.splitlines()))
        assert _jsonl(log.entries) == _jsonl(rebuilt.entries) == rebuilt.to_jsonl() == text

    def test_simulation_events_render_like_json_dumps(self):
        sim = _bare_sim(latency=2, overhead=24)
        a = ComponentId(ComponentKind.NSSMF, 0)
        b = ComponentId(ComponentKind.NSSMF_TERMINATION, 0)
        sim.send(a, b, PayloadKind.RAW_DATA, 10)
        sim.log_event("custom", src=a, detail={"note": "héllo", "x": [1.5, math.nan]})
        run_until(sim, 5)
        sim.fail_component(b, 5)
        sim.send(a, b, PayloadKind.REPORT, 2)
        run_until(sim, 10)
        assert [e.type for e in sim.log.entries] == [
            "send", "custom", "deliver", "send", "component_down"]
        assert sim.log.to_jsonl() == _jsonl(sim.log.entries)
        first = sim.log.entries[0]
        assert (first.src, first.dst, first.interface, first.payload_kind, first.bytes) == (
            "NSSMF#0", "NssmfTermination#0", "NSSMF_NonRTRIC", "RawData", 34)


class TestLogMemory:
    def test_a_message_event_costs_a_row_not_an_object(self):
        sim = _bare_sim(latency=1, overhead=24)
        a = ComponentId(ComponentKind.NSSMF, 0)
        b = ComponentId(ComponentKind.NSSMF_TERMINATION, 0)
        sim.send(a, b, PayloadKind.RAW_DATA, 1)  # the heads of both hops are in the log
        run_until(sim, 1)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(50):
                for size in range(120):
                    sim.send(a, b, PayloadKind.RAW_DATA, size)
                run_until(sim, sim.clock + 1)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        events = len(sim.log.entries) - 2
        assert events == 12_000
        assert grown < 64 * events, f"{grown / events:.0f} bytes per event"


_MESSAGE_EVENTS = ("send", "deliver", "component_down")


class TestMessageIdSlot:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_event_of_a_run_round_trips_and_message_events_own_no_dict(self, name,
                                                                             tmp_path):
        log = run_case(name, tmp_path).sim.log
        entries = list(log.entries)
        messages = [e for e in entries if e.type in _MESSAGE_EVENTS]
        assert messages
        for e in entries:
            assert Event.from_json(_reference_line(e)) == e
        for e in messages:
            assert list(e.detail) == ["msg_id"] and type(e.detail["msg_id"]) is int
        # a message's row keeps its id in a column; only the other rows keep a dict
        assert sorted(log._details) == [row for row, e in enumerate(entries)
                                        if e.type not in _MESSAGE_EVENTS]

    def test_a_simulation_fills_the_slot_of_each_message_event(self):
        sim = _bare_sim(latency=1)
        a = ComponentId(ComponentKind.NSSMF, 0)
        b = ComponentId(ComponentKind.NSSMF_TERMINATION, 0)
        sim.send(a, b, PayloadKind.RAW_DATA, 10)
        run_until(sim, 1)
        sim.fail_component(b, 1)
        sim.send(a, b, PayloadKind.REPORT, 2)
        run_until(sim, 3)
        assert [(e.type, e.detail) for e in sim.log.entries] == [
            ("send", {"msg_id": 1}), ("deliver", {"msg_id": 1}), ("send", {"msg_id": 2}),
            ("component_down", {"msg_id": 2})]
        assert not sim.log._details
        # each read builds its own event and dict, so a change to one reaches no other
        entries = sim.log.entries
        entries[0].detail["msg_id"] = 9
        assert entries[0].detail == {"msg_id": 1} and entries[0].detail is not entries[0].detail
