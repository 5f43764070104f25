"""SMO component graph and the deterministic simulated-time event loop.

Every exchange between management components is an :class:`InterfaceMessage`
pushed through :class:`Simulation`. Time is integer ticks; ties at one tick
resolve by the global sequence number assigned at scheduling time, so a run
is a pure function of (config, seed).
"""

# annotations stay objects: the config parser reads ComponentId's field types
import heapq
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, TYPE_CHECKING

from .errors import (ComponentDown, DuplicateComponent, TickLimitExceeded, UndeclaredRoute,
                     UnknownInterface)

if TYPE_CHECKING:
    from .config import ScenarioConfig


class ComponentKind(str, Enum):
    NSSMF = "NSSMF"
    NFMF = "NFMF"
    NFVO = "NFVO"
    VNFM = "VNFM"
    VIM = "VIM"
    WIM = "WIM"
    CISM = "CISM"
    CIR = "CIR"
    CCM = "CCM"
    MDA_SYSTEM_3GPP = "MdaSystem3GPP"
    MDA_SYSTEM_NFV = "MdaSystemNFV"
    NON_RT_RIC = "NonRtRic"
    AIML_FUNCTION = "AimlFunction"
    NSSMF_TERMINATION = "NssmfTermination"
    NFVO_TERMINATION = "NfvoTermination"
    EXTERNAL_AIML_TERMINATION = "ExternalAimlTermination"
    EXTERNAL_PROVIDER = "ExternalProvider"
    RAPP = "RApp"


@dataclass(frozen=True, order=True)
class ComponentId:
    """A single component instance: kind plus a small disambiguating index."""

    kind: ComponentKind
    index: int = 0

    def __str__(self) -> str:
        return f"{self.kind.value}#{self.index}"

    @staticmethod
    def parse(text: str) -> "ComponentId":
        kind, _, idx = text.partition("#")
        return ComponentId(ComponentKind(kind), int(idx or 0))


class InterfaceName(str, Enum):
    NSSMF_NONRTRIC = "NSSMF_NonRTRIC"
    NFVO_NONRTRIC = "NFVO_NonRTRIC"
    R1 = "R1"
    SMO_INTERNAL = "SmoInternal"
    NONRTRIC_INTERNAL = "NonRtRicInternal"
    EXTERNAL_AIML = "ExternalAiml"


class PayloadKind(str, Enum):
    RAW_DATA = "RawData"
    CLEANSED_DATA = "CleansedData"
    MODEL_ARTIFACT = "ModelArtifact"
    REPORT = "Report"
    CONTROL = "Control"
    HEARTBEAT = "Heartbeat"
    CHECKPOINT = "Checkpoint"


# Which ordered (src kind, dst kind) pairs each interface may carry. The far
# (managed-system) side is listed first; the reverse direction is implied.
_ROUTE_ALLOW: dict[InterfaceName, tuple[tuple[ComponentKind, ComponentKind], ...]] = {
    InterfaceName.NSSMF_NONRTRIC: (
        (ComponentKind.NSSMF, ComponentKind.NSSMF_TERMINATION),
        (ComponentKind.MDA_SYSTEM_3GPP, ComponentKind.NSSMF_TERMINATION),
    ),
    InterfaceName.NFVO_NONRTRIC: (
        (ComponentKind.NFVO, ComponentKind.NFVO_TERMINATION),
        (ComponentKind.MDA_SYSTEM_NFV, ComponentKind.NFVO_TERMINATION),
    ),
    InterfaceName.R1: (
        (ComponentKind.RAPP, ComponentKind.NON_RT_RIC),
        (ComponentKind.RAPP, ComponentKind.AIML_FUNCTION),
    ),
    InterfaceName.SMO_INTERNAL: (
        (ComponentKind.NFMF, ComponentKind.NSSMF),
        (ComponentKind.MDA_SYSTEM_3GPP, ComponentKind.NSSMF),
        (ComponentKind.VNFM, ComponentKind.NFVO),
        (ComponentKind.VIM, ComponentKind.NFVO),
        (ComponentKind.WIM, ComponentKind.NFVO),
        (ComponentKind.CISM, ComponentKind.NFVO),
        (ComponentKind.CIR, ComponentKind.NFVO),
        (ComponentKind.CCM, ComponentKind.NFVO),
        (ComponentKind.MDA_SYSTEM_NFV, ComponentKind.NFVO),
        (ComponentKind.NSSMF_TERMINATION, ComponentKind.AIML_FUNCTION),
        (ComponentKind.NFVO_TERMINATION, ComponentKind.AIML_FUNCTION),
    ),
    InterfaceName.NONRTRIC_INTERNAL: (
        (ComponentKind.NON_RT_RIC, ComponentKind.AIML_FUNCTION),
        (ComponentKind.EXTERNAL_AIML_TERMINATION, ComponentKind.AIML_FUNCTION),
        (ComponentKind.AIML_FUNCTION, ComponentKind.AIML_FUNCTION),
    ),
    InterfaceName.EXTERNAL_AIML: (
        (ComponentKind.EXTERNAL_PROVIDER, ComponentKind.EXTERNAL_AIML_TERMINATION),
    ),
}


def allowed_on(interface: InterfaceName, src: ComponentKind, dst: ComponentKind) -> bool:
    pairs = _ROUTE_ALLOW[interface]
    return (src, dst) in pairs or (dst, src) in pairs


@dataclass(frozen=True)
class InterfaceSpec:
    """Latency and fixed per-message overhead of one named interface."""

    name: InterfaceName
    latency: int = 0
    overhead_bytes: int = 24

    def __post_init__(self) -> None:
        if self.latency < 0 or self.overhead_bytes < 0:
            raise ValueError("interface latency/overhead must be >= 0")


@dataclass
class InterfaceMessage:
    msg_id: int
    src: ComponentId
    dst: ComponentId
    interface: InterfaceName
    payload_kind: PayloadKind
    payload_bytes: int
    send_tick: int
    deliver_tick: int
    payload: Any = None
    # routing hint consumed by termination forwarding, never serialized
    final_dst: ComponentId | None = None
    meta: dict[str, Any] = field(default_factory=dict)


@dataclass
class Event:
    """One structured event-log entry; serialized with a stable field order."""

    tick: int
    seq: int
    type: str
    src: str | None = None
    dst: str | None = None
    interface: str | None = None
    payload_kind: str | None = None
    bytes: int = 0
    detail: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        entry = {
            "tick": self.tick,
            "seq": self.seq,
            "event_type": self.type,
            "src": self.src,
            "dst": self.dst,
            "interface": self.interface,
            "payload_kind": self.payload_kind,
            "bytes": self.bytes,
            "detail": self.detail,
        }
        return json.dumps(entry, separators=(",", ":"))


class EventLog:
    """Append-only, totally ordered by (tick, seq)."""

    def __init__(self) -> None:
        self.entries: list[Event] = []

    def append(self, event: Event) -> None:
        self.entries.append(event)

    def to_jsonl(self) -> str:
        return "".join(e.to_json() + "\n" for e in self.entries)

    def of_type(self, *types: str) -> list[Event]:
        wanted = set(types)
        return [e for e in self.entries if e.type in wanted]


@dataclass
class _ComponentState:
    cid: ComponentId
    attached_to: ComponentId | None = None
    failed_since: int | None = None  # failure effective strictly after this tick

    def alive_at(self, tick: int) -> bool:
        return self.failed_since is None or tick <= self.failed_since


@dataclass
class MeterCell:
    bytes: int = 0
    messages: int = 0


class Topology:
    """Validated component graph plus undirected links labeled by interface."""

    def __init__(self, interfaces: dict[InterfaceName, InterfaceSpec]):
        self.components: dict[ComponentId, _ComponentState] = {}
        self.interfaces = interfaces
        self._links: dict[tuple[ComponentId, ComponentId], InterfaceName] = {}

    def add_component(self, cid: ComponentId, attached_to: ComponentId | None = None) -> None:
        if cid in self.components:
            raise DuplicateComponent(str(cid))
        self.components[cid] = _ComponentState(cid, attached_to=attached_to)

    def link(self, a: ComponentId, b: ComponentId, interface: InterfaceName) -> None:
        if a not in self.components or b not in self.components:
            raise UndeclaredRoute(f"link endpoint missing: {a} -- {b}")
        if interface not in self.interfaces:
            raise UnknownInterface(interface.value)
        if not allowed_on(interface, a.kind, b.kind):
            raise UndeclaredRoute(
                f"{interface.value} may not connect {a.kind.value} and {b.kind.value}"
            )
        self._links[(a, b)] = interface
        self._links[(b, a)] = interface

    def interface_between(self, src: ComponentId, dst: ComponentId) -> InterfaceName:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise UndeclaredRoute(f"no declared interface between {src} and {dst}") from None

    def neighbors(self, cid: ComponentId) -> list[ComponentId]:
        return sorted({b for (a, b) in self._links if a == cid})

    def instances(self, kind: ComponentKind) -> list[ComponentId]:
        return sorted(c for c in self.components if c.kind == kind)

    def termination_for(self, far: ComponentId) -> ComponentId:
        """Termination adapter through which a far-side component reaches the RIC."""
        if far.kind in (ComponentKind.NSSMF, ComponentKind.MDA_SYSTEM_3GPP, ComponentKind.NFMF):
            candidates = self.instances(ComponentKind.NSSMF_TERMINATION)
        elif far.kind in (ComponentKind.NFVO, ComponentKind.MDA_SYSTEM_NFV):
            candidates = self.instances(ComponentKind.NFVO_TERMINATION)
        elif far.kind == ComponentKind.EXTERNAL_PROVIDER:
            candidates = self.instances(ComponentKind.EXTERNAL_AIML_TERMINATION)
        else:
            candidates = []
        if not candidates:
            raise UndeclaredRoute(f"no termination serves {far}")
        return candidates[0]


def build_topology(config: "ScenarioConfig") -> Topology:
    """Instantiate the component graph a scenario config declares.

    Terminations are created automatically for every declared far-side
    management system and attached to the single NonRtRic instance.
    """
    interfaces = {spec.name: spec for spec in config.interface_specs()}
    topo = Topology(interfaces)
    counts = config.topology

    ric = ComponentId(ComponentKind.NON_RT_RIC, 0)
    topo.add_component(ric)
    aimls = [ComponentId(ComponentKind.AIML_FUNCTION, i) for i in range(counts.aiml_instances)]
    for a in aimls:
        topo.add_component(a, attached_to=ric)

    def _add_many(kind: ComponentKind, n: int) -> list[ComponentId]:
        ids = [ComponentId(kind, i) for i in range(n)]
        for c in ids:
            topo.add_component(c)
        return ids

    nssmfs = _add_many(ComponentKind.NSSMF, counts.nssmf)
    nfvos = _add_many(ComponentKind.NFVO, counts.nfvo)
    mda3 = _add_many(ComponentKind.MDA_SYSTEM_3GPP, counts.mda_3gpp)
    mdan = _add_many(ComponentKind.MDA_SYSTEM_NFV, counts.mda_nfv)
    rapps = _add_many(ComponentKind.RAPP, counts.rapps)
    nfmfs: list[ComponentId] = []
    for s_idx, nssmf in enumerate(nssmfs):
        for j in range(counts.nfmf_per_nssmf):
            nfmf = ComponentId(ComponentKind.NFMF, s_idx * counts.nfmf_per_nssmf + j)
            topo.add_component(nfmf)
            nfmfs.append(nfmf)
            topo.link(nfmf, nssmf, InterfaceName.SMO_INTERNAL)
    for kind, n in (
        (ComponentKind.VNFM, counts.vnfm),
        (ComponentKind.VIM, counts.vim),
        (ComponentKind.WIM, counts.wim),
        (ComponentKind.CISM, counts.cism),
        (ComponentKind.CIR, counts.cir),
        (ComponentKind.CCM, counts.ccm),
    ):
        for c in _add_many(kind, n):
            if not nfvos:
                raise UndeclaredRoute(f"{kind.value} declared without an NFVO")
            topo.link(c, nfvos[0], InterfaceName.SMO_INTERNAL)

    need_nssmf_term = bool(nssmfs or mda3)
    need_nfvo_term = bool(nfvos or mdan)
    if need_nssmf_term:
        term = ComponentId(ComponentKind.NSSMF_TERMINATION, 0)
        topo.add_component(term, attached_to=ric)
        for c in nssmfs + mda3:
            topo.link(c, term, InterfaceName.NSSMF_NONRTRIC)
        for a in aimls:
            topo.link(term, a, InterfaceName.SMO_INTERNAL)
    if need_nfvo_term:
        term = ComponentId(ComponentKind.NFVO_TERMINATION, 0)
        topo.add_component(term, attached_to=ric)
        for c in nfvos + mdan:
            topo.link(c, term, InterfaceName.NFVO_NONRTRIC)
        for a in aimls:
            topo.link(term, a, InterfaceName.SMO_INTERNAL)
    if counts.external_provider:
        term = ComponentId(ComponentKind.EXTERNAL_AIML_TERMINATION, 0)
        provider = ComponentId(ComponentKind.EXTERNAL_PROVIDER, 0)
        topo.add_component(term, attached_to=ric)
        topo.add_component(provider)
        topo.link(provider, term, InterfaceName.EXTERNAL_AIML)
        for a in aimls:
            topo.link(term, a, InterfaceName.NONRTRIC_INTERNAL)

    for mda, nssmf in zip(mda3, nssmfs):
        topo.link(mda, nssmf, InterfaceName.SMO_INTERNAL)
    for mda, nfvo in zip(mdan, nfvos):
        topo.link(mda, nfvo, InterfaceName.SMO_INTERNAL)
    for a in aimls:
        topo.link(ric, a, InterfaceName.NONRTRIC_INTERNAL)
        for r in rapps:
            topo.link(r, a, InterfaceName.R1)
    for r in rapps:
        topo.link(r, ric, InterfaceName.R1)
    for i, a in enumerate(aimls):
        for b in aimls[i + 1:]:
            topo.link(a, b, InterfaceName.NONRTRIC_INTERNAL)

    for extra in counts.extra_links:
        topo.link(extra.src, extra.dst, extra.interface)
    return topo


class Simulation:
    """Single-threaded event loop: heap of (tick, seq) actions plus metering."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.clock = 0
        self.log = EventLog()
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self._msg_counter = 0
        self._record_counter = 0
        self.stopped = False
        self.handlers: dict[ComponentId, Callable[[Simulation, InterfaceMessage], None]] = {}
        # meters[interface][f"{src}->{dst}" kind pair] and by payload kind
        self.meters: dict[str, dict[str, MeterCell]] = {
            name.value: {} for name in topology.interfaces
        }
        self.meters_by_kind: dict[str, dict[str, MeterCell]] = {
            name.value: {} for name in topology.interfaces
        }

    # -- scheduling ----------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def schedule(self, tick: int, action: Callable[[], None]) -> None:
        if tick < self.clock:
            raise ValueError(f"cannot schedule event in the past ({tick} < {self.clock})")
        heapq.heappush(self._heap, (tick, self._next_seq(), action))

    def log_event(self, type: str, *, src: ComponentId | None = None,
                  dst: ComponentId | None = None, interface: InterfaceName | None = None,
                  payload_kind: PayloadKind | None = None, bytes: int = 0,
                  detail: dict[str, Any] | None = None) -> Event:
        event = Event(
            tick=self.clock,
            seq=self._next_seq(),
            type=type,
            src=str(src) if src else None,
            dst=str(dst) if dst else None,
            interface=interface.value if interface else None,
            payload_kind=payload_kind.value if payload_kind else None,
            bytes=bytes,
            detail=detail or {},
        )
        self.log.append(event)
        return event

    def next_record_ids(self, n: int) -> range:
        start = self._record_counter
        self._record_counter += n
        return range(start, start + n)

    # -- component state -------------------------------------------------------

    def state_of(self, cid: ComponentId) -> _ComponentState:
        try:
            return self.topology.components[cid]
        except KeyError:
            raise UndeclaredRoute(f"unknown component {cid}") from None

    def alive(self, cid: ComponentId) -> bool:
        return self.state_of(cid).alive_at(self.clock)

    def fail_component(self, cid: ComponentId, tick: int) -> None:
        """Mark cid failed; it still completes activity at `tick` itself."""
        self.state_of(cid).failed_since = tick

    # -- messaging ---------------------------------------------------------------

    def send(self, src: ComponentId, dst: ComponentId, payload_kind: PayloadKind,
             payload_bytes: int, payload: Any = None,
             final_dst: ComponentId | None = None,
             meta: dict[str, Any] | None = None) -> InterfaceMessage:
        """Emit a message on the declared interface between src and dst.

        Delivery is scheduled at send tick + interface latency; metering and
        handler dispatch happen at delivery. A failed destination silently
        drops everything but heartbeats (logged as a component_down event).
        """
        interface = self.topology.interface_between(src, dst)
        spec = self.topology.interfaces[interface]
        self._msg_counter += 1
        msg = InterfaceMessage(
            msg_id=self._msg_counter,
            src=src,
            dst=dst,
            interface=interface,
            payload_kind=payload_kind,
            payload_bytes=int(payload_bytes),
            send_tick=self.clock,
            deliver_tick=self.clock + spec.latency,
            payload=payload,
            final_dst=final_dst,
            meta=meta or {},
        )
        self.log_event(
            "send", src=src, dst=dst, interface=interface,
            payload_kind=payload_kind, bytes=msg.payload_bytes + spec.overhead_bytes,
            detail={"msg_id": msg.msg_id},
        )
        self.schedule(msg.deliver_tick, lambda: self._deliver(msg))
        return msg

    def _deliver(self, msg: InterfaceMessage) -> None:
        spec = self.topology.interfaces[msg.interface]
        total = msg.payload_bytes + spec.overhead_bytes
        if not self.alive(msg.dst) and msg.payload_kind is not PayloadKind.HEARTBEAT:
            self.log_event(
                "component_down", src=msg.src, dst=msg.dst, interface=msg.interface,
                payload_kind=msg.payload_kind, bytes=total, detail={"msg_id": msg.msg_id},
            )
            return
        direction = f"{msg.src.kind.value}->{msg.dst.kind.value}"
        cell = self.meters[msg.interface.value].setdefault(direction, MeterCell())
        cell.bytes += total
        cell.messages += 1
        kind_cell = self.meters_by_kind[msg.interface.value].setdefault(
            msg.payload_kind.value, MeterCell())
        kind_cell.bytes += total
        kind_cell.messages += 1
        self.log_event(
            "deliver", src=msg.src, dst=msg.dst, interface=msg.interface,
            payload_kind=msg.payload_kind, bytes=total, detail={"msg_id": msg.msg_id},
        )
        handler = self.handlers.get(msg.dst)
        if handler is not None and self.alive(msg.dst):
            handler(self, msg)

    def meter(self, interface: InterfaceName | str) -> dict[str, Any]:
        """Cumulative delivered traffic on one interface, per direction."""
        name = interface.value if isinstance(interface, InterfaceName) else interface
        if name not in self.meters:
            raise UnknownInterface(name)
        directions = {
            d: {"bytes": cell.bytes, "messages": cell.messages}
            for d, cell in sorted(self.meters[name].items())
        }
        return {
            "bytes": sum(c["bytes"] for c in directions.values()),
            "messages": sum(c["messages"] for c in directions.values()),
            "directions": directions,
        }

    def signaling_table(self) -> dict[str, Any]:
        """Full per-interface meter table plus per-payload-kind byte totals."""
        table: dict[str, Any] = {}
        for name in self.meters:
            entry = self.meter(name)
            entry["by_kind"] = {
                kind: {"bytes": cell.bytes, "messages": cell.messages}
                for kind, cell in sorted(self.meters_by_kind[name].items())
            }
            table[name] = entry
        return table

    # -- time ---------------------------------------------------------------------

    def run_until(self, t: int) -> list[Event]:
        """Process all events with tick <= t in (tick, seq) order; clock = t."""
        if t < self.clock:
            raise ValueError(f"run_until({t}) is in the past (clock={self.clock})")
        start = len(self.log.entries)
        while self._heap and self._heap[0][0] <= t:
            tick, _seq, action = heapq.heappop(self._heap)
            self.clock = tick
            action()
        self.clock = t
        return self.log.entries[start:]

    def stop(self) -> None:
        """Make :meth:`run_to_completion` return once the running action returns.

        It runs none of the actions left on the heap, so nothing is logged or
        metered after the stop and the clock stays at the stopping tick.
        """
        self.stopped = True

    def run_to_completion(self, max_tick: int = 10_000_000) -> None:
        while self._heap and not self.stopped:
            tick = self._heap[0][0]
            if tick > max_tick:
                raise TickLimitExceeded(f"simulation exceeded max_tick={max_tick}")
            _t, _seq, action = heapq.heappop(self._heap)
            self.clock = tick
            action()

    def pending(self) -> bool:
        return bool(self._heap)


def total_delivered_bytes(log: EventLog) -> int:
    return sum(e.bytes for e in log.entries if e.type == "deliver")
