"""SMO component graph and the deterministic simulated-time event loop.

Every exchange between management components is an :class:`InterfaceMessage`
pushed through :class:`Simulation`. Time is integer ticks; ties at one tick
resolve by the global sequence number assigned at scheduling time, so a run
is a pure function of (config, seed). The event log is the only record of
traffic: :func:`signaling_table` folds the per-interface byte and message
totals from its ``deliver`` events, for ``scenarios.report_from`` on a run's
log and for :meth:`Simulation.signaling_table` on a live one.

A hop is kept cheap by doing its lookups once, ahead of the run:

- :class:`ComponentId` objects are interned, one per ``(kind, index)``, so
  ids compare and hash by identity.
- :meth:`Topology.link` stores one :class:`Wire` per link, with the
  interface, its latency and overhead and the interface's event text; a
  send and its delivery read only that record.
- Every event is built by one method from texts already rendered, and
  :meth:`Event.to_json` memoises the JSON text of an event's five
  vocabulary fields per combination.
- A ``send``, ``deliver`` or ``component_down`` event keeps its message id
  in :attr:`Event.msg_id` and no detail dict of its own; its ``detail`` is
  built only when read.

Nothing here depends on id hashes for order: containers of ids that are
iterated are dicts in insertion order, or are sorted by ``(kind, index)``.
"""

# annotations stay objects: the config parser reads ComponentId's field types
import json
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, NamedTuple, TYPE_CHECKING

from .errors import DuplicateComponent, TickLimitExceeded, UndeclaredRoute, UnknownInterface

if TYPE_CHECKING:
    from .config import ScenarioConfig, TopologyCounts


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


# the one ComponentId of each (kind, index): ids are few, bounded by the configs read
_INTERNED: dict[tuple[ComponentKind, int], "ComponentId"] = {}


@dataclass(frozen=True, order=True, init=False)
class ComponentId:
    """A single component instance: kind plus a small disambiguating index.

    Ids are interned: ``ComponentId(kind, index)``, :meth:`parse`,
    ``dataclasses.replace``, ``copy``, ``deepcopy`` and unpickling all return
    the one object held for ``(kind, index)``. Equality and hashing are
    therefore ``object``'s, by identity, and a dict lookup or ``!=`` on the
    message path runs no Python code. Ordering stays by ``(kind, index)``.
    """

    kind: ComponentKind
    index: int = 0

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, kind: ComponentKind, index: int = 0) -> "ComponentId":
        cid = _INTERNED.get((kind, index))
        if cid is None:
            index = operator.index(index)  # True would otherwise intern the text "...#True"
            cid = object.__new__(cls)
            object.__setattr__(cid, "kind", kind)
            object.__setattr__(cid, "index", index)
            # every event formats ids, so the text is built once
            object.__setattr__(cid, "_text", f"{kind.value}#{index}")
            _INTERNED[kind, index] = cid
        return cid

    def __reduce__(self) -> tuple[type, tuple[ComponentKind, int]]:
        return ComponentId, (self.kind, self.index)

    def __str__(self) -> str:
        return self._text

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


class Wire(NamedTuple):
    """What a message needs of the link it crosses, read once per hop."""

    interface: InterfaceName
    latency: int
    overhead_bytes: int
    text: str  # the interface name as events store it


@dataclass(slots=True)
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


# json.dumps(entry, separators=(",", ":")) without building an encoder per event
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))

# the text an event stores for each interface and payload kind, and for None
_ENUM_TEXT: dict[Enum | None, str | None] = {
    None: None, **{m: m.value for enum in (InterfaceName, PayloadKind) for m in enum}}


class _FieldsText(dict):
    """Memo of the JSON text of an event's five str-or-None fields, per combination.

    Those hold event types, component ids, interface and payload kind names,
    so the memo is bounded by the topology and the event vocabulary.
    """

    def __missing__(self, key: tuple[str | None, ...]) -> str:
        text = self[key] = _FIELDS % tuple(map(_COMPACT_JSON.encode, key))
        return text


_FIELDS_TEXT = _FieldsText()
_FIELDS = '"event_type":%s,"src":%s,"dst":%s,"interface":%s,"payload_kind":%s'
_KEYS = ["tick", "seq", "event_type", "src", "dst", "interface", "payload_kind", "bytes",
         "detail"]
_LINE = '{"tick":%d,"seq":%d,%s,"bytes":%d,"detail":%s}'
_MSG_LINE = '{"tick":%d,"seq":%d,%s,"bytes":%d,"detail":{"msg_id":%d}}'


def _sole_msg_id(detail: dict[str, Any]) -> int | None:
    """``n`` if ``detail`` is exactly ``{"msg_id": n}`` with ``n`` an int, else None."""
    if len(detail) == 1:
        msg_id = detail.get("msg_id")
        if type(msg_id) is int:
            return msg_id
    return None


@dataclass(slots=True, init=False)
class Event:
    """One structured event-log entry.

    :meth:`to_json` writes exactly ``json.dumps(entry, separators=(",", ":"))``
    of the dict with the nine keys ``tick``, ``seq``, ``event_type``, ``src``,
    ``dst``, ``interface``, ``payload_kind``, ``bytes`` and ``detail``, in that
    order: compact separators, non-ASCII text escaped, NaN and infinities
    written as ``NaN``/``Infinity``. ``tick``, ``seq`` and ``bytes`` are ints.

    A detail that is exactly ``{"msg_id": n}``, with ``n`` an int, is kept as
    ``msg_id`` alone, whether it is given as ``msg_id=n`` or as that dict:
    ``detail`` then builds a new ``{"msg_id": n}`` on each read. So the two
    forms render and compare alike, and a message event owns no dict.
    """

    tick: int
    seq: int
    type: str
    src: str | None
    dst: str | None
    interface: str | None
    payload_kind: str | None
    bytes: int
    msg_id: int | None
    _detail: dict[str, Any] | None  # None when msg_id stands for the detail

    def __init__(self, tick: int, seq: int, type: str, src: str | None = None,
                 dst: str | None = None, interface: str | None = None,
                 payload_kind: str | None = None, bytes: int = 0,
                 detail: dict[str, Any] | None = None, *, msg_id: int | None = None):
        self.tick = tick
        self.seq = seq
        self.type = type
        self.src = src
        self.dst = dst
        self.interface = interface
        self.payload_kind = payload_kind
        self.bytes = bytes
        if detail is not None:
            if msg_id is not None:
                raise TypeError("an event takes a detail or a msg_id, not both")
            msg_id = _sole_msg_id(detail)
        elif msg_id is None:
            detail = {}
        self.msg_id = msg_id
        self._detail = None if msg_id is not None else detail

    @property
    def detail(self) -> dict[str, Any]:
        detail = self._detail
        return {"msg_id": self.msg_id} if detail is None else detail

    def to_json(self) -> str:
        fields = _FIELDS_TEXT[self.type, self.src, self.dst, self.interface, self.payload_kind]
        detail = self._detail
        if detail is None:
            return _MSG_LINE % (self.tick, self.seq, fields, self.bytes, self.msg_id)
        return _LINE % (self.tick, self.seq, fields, self.bytes, _COMPACT_JSON.encode(detail))

    @staticmethod
    def from_json(line: str) -> "Event":
        """The event whose :meth:`to_json` is ``line``."""
        entry = json.loads(line)
        if type(entry) is not dict or list(entry) != _KEYS:
            raise ValueError(f"not an event line: {line[:80]!r}")
        return Event(*entry.values())


class EventLog:
    """Append-only, totally ordered by (tick, seq)."""

    def __init__(self) -> None:
        self.entries: list[Event] = []

    def to_jsonl(self) -> str:
        """Each event's :meth:`Event.to_json` line, newline-terminated, rendered inline."""
        fields, msg_line, line = _FIELDS_TEXT, _MSG_LINE + "\n", _LINE + "\n"
        encode = _COMPACT_JSON.encode
        return "".join([
            msg_line % (e.tick, e.seq, fields[e.type, e.src, e.dst, e.interface, e.payload_kind],
                        e.bytes, e.msg_id) if e._detail is None else
            line % (e.tick, e.seq, fields[e.type, e.src, e.dst, e.interface, e.payload_kind],
                    e.bytes, encode(e._detail))
            for e in self.entries])

    def of_type(self, *types: str) -> list[Event]:
        wanted = set(types)
        return [e for e in self.entries if e.type in wanted]


@dataclass
class _ComponentState:
    failed_since: int | None = None  # failure effective strictly after this tick

    def alive_at(self, tick: int) -> bool:
        return self.failed_since is None or tick <= self.failed_since


class Topology:
    """Validated component graph plus undirected links labeled by interface.

    ``components`` holds each component's liveness in the order added, in a
    built graph that of its section's :func:`census`, which is the census.
    ``_links`` is the only record of the links, one ``neighbour -> wire`` map
    per component, filled both ways by :meth:`link` with one :class:`Wire` each.
    """

    def __init__(self, interfaces: dict[InterfaceName, InterfaceSpec]):
        self.components: dict[ComponentId, _ComponentState] = {}
        self.interfaces = interfaces
        self._links: dict[ComponentId, dict[ComponentId, Wire]] = {}

    def add_component(self, cid: ComponentId) -> None:
        if cid in self.components:
            raise DuplicateComponent(str(cid))
        self.components[cid] = _ComponentState()

    def link(self, a: ComponentId, b: ComponentId, interface: InterfaceName) -> None:
        if a not in self.components or b not in self.components:
            raise UndeclaredRoute(f"link endpoint missing: {a} -- {b}")
        if interface not in self.interfaces:
            raise UnknownInterface(interface.value)
        if not allowed_on(interface, a.kind, b.kind):
            raise UndeclaredRoute(
                f"{interface.value} may not connect {a.kind.value} and {b.kind.value}"
            )
        spec = self.interfaces[interface]
        wire = Wire(interface, spec.latency, spec.overhead_bytes, interface.value)
        self._links.setdefault(a, {})[b] = wire
        self._links.setdefault(b, {})[a] = wire

    def wire(self, src: ComponentId, dst: ComponentId) -> Wire:
        try:
            return self._links[src][dst]
        except KeyError:
            raise UndeclaredRoute(f"no declared interface between {src} and {dst}") from None

    def neighbors(self, cid: ComponentId) -> list[ComponentId]:
        return sorted(self._links.get(cid, ()))


# attached to the first NFVO
_NFVO_ATTACHED = (ComponentKind.VNFM, ComponentKind.VIM, ComponentKind.WIM, ComponentKind.CISM,
                  ComponentKind.CIR, ComponentKind.CCM)


def census(counts: "TopologyCounts") -> dict[ComponentKind, list[ComponentId]]:
    """The census of a topology section: the components of each kind that
    :func:`build_topology` adds, in the order it adds them, with no link made.

    It counts one termination for the declared far-side management systems
    of each side, and the external provider with its termination.
    ``config_from_dict`` checks every component a config places against it.
    """
    k = ComponentKind
    sizes = {k.NON_RT_RIC: 1, k.AIML_FUNCTION: counts.aiml_instances, k.NSSMF: counts.nssmf,
             k.NFVO: counts.nfvo, k.MDA_SYSTEM_3GPP: counts.mda_3gpp,
             k.MDA_SYSTEM_NFV: counts.mda_nfv, k.RAPP: counts.rapps,
             k.NFMF: counts.nssmf * counts.nfmf_per_nssmf,
             k.VNFM: counts.vnfm, k.VIM: counts.vim, k.WIM: counts.wim, k.CISM: counts.cism,
             k.CIR: counts.cir, k.CCM: counts.ccm,
             k.NSSMF_TERMINATION: int(bool(counts.nssmf or counts.mda_3gpp)),
             k.NFVO_TERMINATION: int(bool(counts.nfvo or counts.mda_nfv)),
             k.EXTERNAL_AIML_TERMINATION: int(counts.external_provider),
             k.EXTERNAL_PROVIDER: int(counts.external_provider)}
    return {kind: [ComponentId(kind, i) for i in range(n)] for kind, n in sizes.items()}


def build_topology(config: "ScenarioConfig") -> Topology:
    """Instantiate the component graph a scenario config declares: add the
    :func:`census` of its topology section, in census order, then link it.

    A termination links the far-side management systems of its side to
    every AI/ML instance. The census, not this built graph, is what
    ``config_from_dict`` checks placed components against.
    """
    topo = Topology({spec.name: spec for spec in config.interface_specs()})
    counts = config.topology
    ids = census(counts)
    for kind_ids in ids.values():
        for c in kind_ids:
            topo.add_component(c)
    k = ComponentKind
    [ric] = ids[k.NON_RT_RIC]
    aimls, nssmfs, nfvos = ids[k.AIML_FUNCTION], ids[k.NSSMF], ids[k.NFVO]
    mda3, mdan, rapps = ids[k.MDA_SYSTEM_3GPP], ids[k.MDA_SYSTEM_NFV], ids[k.RAPP]
    for nfmf in ids[k.NFMF]:
        topo.link(nfmf, nssmfs[nfmf.index // counts.nfmf_per_nssmf], InterfaceName.SMO_INTERNAL)
    for kind in _NFVO_ATTACHED:
        for c in ids[kind]:
            if not nfvos:
                raise UndeclaredRoute(f"{kind.value} declared without an NFVO")
            topo.link(c, nfvos[0], InterfaceName.SMO_INTERNAL)
    for kind, side, interface in (
            (k.NSSMF_TERMINATION, nssmfs + mda3, InterfaceName.NSSMF_NONRTRIC),
            (k.NFVO_TERMINATION, nfvos + mdan, InterfaceName.NFVO_NONRTRIC)):
        for term in ids[kind]:
            for c in side:
                topo.link(c, term, interface)
            for a in aimls:
                topo.link(term, a, InterfaceName.SMO_INTERNAL)
    for term, provider in zip(ids[k.EXTERNAL_AIML_TERMINATION], ids[k.EXTERNAL_PROVIDER]):
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
    """Single-threaded event loop: a heap of (tick, seq) actions and the event log."""

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

    # -- scheduling ----------------------------------------------------------

    def schedule(self, tick: int, action: Callable[[], None]) -> None:
        if tick < self.clock:
            raise ValueError(f"cannot schedule event in the past ({tick} < {self.clock})")
        self._seq += 1
        heappush(self._heap, (tick, self._seq, action))

    def log_event(self, type: str, *, src: ComponentId | None = None,
                  dst: ComponentId | None = None, interface: InterfaceName | None = None,
                  payload_kind: PayloadKind | None = None, bytes: int = 0,
                  detail: dict[str, Any] | None = None) -> Event:
        return self._event(type, None if src is None else src._text,
                           None if dst is None else dst._text, _ENUM_TEXT[interface],
                           _ENUM_TEXT[payload_kind], bytes, detail)

    def _event(self, type: str, src: str | None, dst: str | None, interface: str | None,
               payload_kind: str | None, bytes: int, detail: dict[str, Any] | None,
               msg_id: int | None = None) -> Event:
        """Log an event at the clock from its texts, with a detail or a message
        id; every event is made here."""
        self._seq = seq = self._seq + 1
        event = Event(self.clock, seq, type, src, dst, interface, payload_kind, bytes, detail,
                      msg_id=msg_id)
        self.log.entries.append(event)
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
        """Emit a message over the link between src and dst.

        The link's :class:`Wire` gives the interface, the latency and the
        per-message overhead, and the same record goes with the message to
        its delivery. Delivery is scheduled at send tick + latency; the
        ``deliver`` event and handler dispatch happen then. A failed
        destination silently drops everything but heartbeats (logged as a
        component_down event).
        """
        wire = self.topology.wire(src, dst)
        self._msg_counter = msg_id = self._msg_counter + 1
        clock = self.clock
        msg = InterfaceMessage(msg_id, src, dst, wire.interface, payload_kind,
                               int(payload_bytes), clock, clock + wire.latency, payload,
                               final_dst, meta or {})
        self._event("send", src._text, dst._text, wire.text, _ENUM_TEXT[payload_kind],
                    msg.payload_bytes + wire.overhead_bytes, None, msg_id)
        self._seq += 1  # schedule() without its check: latency >= 0, so never in the past
        heappush(self._heap, (msg.deliver_tick, self._seq, partial(self._deliver, msg, wire)))
        return msg

    def _deliver(self, msg: InterfaceMessage, wire: Wire) -> None:
        dst = msg.dst
        alive = self.topology.components[dst].alive_at(self.clock)  # linked, so declared
        kind = msg.payload_kind
        self._event("deliver" if alive or kind is PayloadKind.HEARTBEAT else "component_down",
                    msg.src._text, dst._text, wire.text, _ENUM_TEXT[kind],
                    msg.payload_bytes + wire.overhead_bytes, None, msg.msg_id)
        if alive:
            handler = self.handlers.get(dst)
            if handler is not None:
                handler(self, msg)

    def signaling_table(self) -> dict[str, Any]:
        """:func:`signaling_table` of this simulation's interfaces and log."""
        return signaling_table(self.topology.interfaces, self.log.entries)

    # -- time ---------------------------------------------------------------------

    def run_until(self, t: int) -> list[Event]:
        """Process all events with tick <= t in (tick, seq) order; clock = t."""
        if t < self.clock:
            raise ValueError(f"run_until({t}) is in the past (clock={self.clock})")
        start = len(self.log.entries)
        while self._heap and self._heap[0][0] <= t:
            tick, _seq, action = heappop(self._heap)
            self.clock = tick
            action()
        self.clock = t
        return self.log.entries[start:]

    def stop(self) -> None:
        """Make :meth:`run_to_completion` return once the running action returns.

        It runs none of the actions left on the heap, so nothing is logged
        after the stop and the clock stays at the stopping tick.
        """
        self.stopped = True

    def run_to_completion(self, max_tick: int = 10_000_000) -> None:
        heap = self._heap
        while heap and not self.stopped:
            tick = heap[0][0]
            if tick > max_tick:
                raise TickLimitExceeded(f"simulation exceeded max_tick={max_tick}")
            action = heappop(heap)[2]
            self.clock = tick
            action()

    def pending(self) -> bool:
        return bool(self._heap)


def signaling_table(interfaces: Iterable[InterfaceName],
                    events: Iterable[Event]) -> dict[str, Any]:
    """Delivered traffic per interface, folded from the ``deliver`` events.

    Every interface named appears, in the order given, with its ``bytes``
    (payload plus overhead) and ``messages``, and the same two per
    ``"<src kind>-><dst kind>"`` direction and per payload kind, each map
    sorted. A ``component_down`` drop was never delivered, so it is not
    counted; a heartbeat delivered into a failed component is.
    """
    # one cell per (interface, src, dst, payload kind) first: few distinct keys
    cells: dict[tuple[str, str, str, str], list[int]] = {}
    for e in events:
        if e.type == "deliver":
            cell = cells.setdefault((e.interface, e.src, e.dst, e.payload_kind), [0, 0])
            cell[0] += e.bytes
            cell[1] += 1
    table = {name.value: {"bytes": 0, "messages": 0, "directions": {}, "by_kind": {}}
             for name in interfaces}
    for (interface, src, dst, payload_kind), (total, count) in cells.items():
        entry = table[interface]
        directions, kinds = entry["directions"], entry["by_kind"]
        direction = f"{src.partition('#')[0]}->{dst.partition('#')[0]}"
        for sums in (entry, directions.setdefault(direction, {"bytes": 0, "messages": 0}),
                     kinds.setdefault(payload_kind, {"bytes": 0, "messages": 0})):
            sums["bytes"] += total
            sums["messages"] += count
    for entry in table.values():
        entry["directions"] = dict(sorted(entry["directions"].items()))
        entry["by_kind"] = dict(sorted(entry["by_kind"].items()))
    return table
