"""SMO component graph and the deterministic simulated-time event loop.

Every exchange between management components is an :class:`InterfaceMessage`
pushed through :class:`Simulation`. Time is integer ticks; ties at one tick
resolve by the global sequence number assigned at scheduling time, so a run
is a pure function of (config, seed). The event log is the only record of
traffic: :func:`signaling_table` folds the per-interface byte and message
totals from its ``deliver`` rows, for ``scenarios.report_from`` on a run's
log and for :meth:`Simulation.signaling_table` on a live one.

A hop is kept cheap by doing its lookups once, not once per message:

- :class:`ComponentId` objects are interned, one per ``(kind, index)``, so
  ids compare and hash by identity.
- :meth:`Topology.link` stores one :class:`Wire` per link, with the
  interface, its latency and overhead and the interface's event text.
- :class:`EventLog` keeps one row of typed columns per event, and builds no
  :class:`Event` while the run goes. A row's ``(type, src, dst, interface,
  payload_kind)`` is a code into the log's head table, which renders each
  head's JSON text once.
- The first :meth:`Simulation.send` from one component to another with one
  payload kind caches a :class:`_Hop`: the link's wire, latency and
  overhead, the destination's state, and the head codes of the ``send``,
  ``deliver`` and ``component_down`` rows. Every later message over that hop
  appends its rows straight into the log's columns, with only its message
  id, read back as ``{"msg_id": n}``, and goes on the heap as a plain
  ``(tick, seq, message, hop)`` entry.

Nothing here depends on id hashes for order: containers of ids that are
iterated are dicts in insertion order, or are sorted by ``(kind, index)``.
"""

# annotations stay objects: the config parser reads ComponentId's field types
import json
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Iterator, NamedTuple, TYPE_CHECKING

import numpy as np

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

# the text an event stores for each payload kind
_KIND_TEXT: dict[PayloadKind, str] = {kind: kind.value for kind in PayloadKind}

_FIELDS = '"event_type":%s,"src":%s,"dst":%s,"interface":%s,"payload_kind":%s'
_NUMBERS = ("tick", "seq", "bytes")
_HEAD_TEXTS = ("src", "dst", "interface", "payload_kind")
_INT64 = range(-2 ** 63, 2 ** 63)
_KEYS = ["tick", "seq", "event_type", "src", "dst", "interface", "payload_kind", "bytes",
         "detail"]
_LINE = '{"tick":%d,"seq":%d,%s,"bytes":%d,"detail":%s}'
_MSG_LINE = '{"tick":%d,"seq":%d,%s,"bytes":%d,"detail":{"msg_id":%d}}'
# the events of a message's hops, whose detail is its msg_id alone
_MESSAGE_TYPES = frozenset({"send", "deliver", "component_down"})

_Head = tuple[str, str | None, str | None, str | None, str | None]


def _fields_text(head: _Head) -> str:
    """The JSON text of an event's type, src, dst, interface and payload kind."""
    return _FIELDS % tuple(map(_COMPACT_JSON.encode, head))


@dataclass(slots=True)
class Event:
    """One event-log entry: the nine keys of its ``events.jsonl`` line, in order,
    ``type`` standing for ``event_type``. :meth:`EventLog.to_jsonl` writes it as
    ``json.dumps(entry, separators=(",", ":"))`` of them: non-ASCII text escaped,
    NaN and infinities as ``NaN``/``Infinity``. ``detail`` is always a dict."""

    tick: int
    seq: int
    type: str
    src: str | None = None
    dst: str | None = None
    interface: str | None = None
    payload_kind: str | None = None
    bytes: int = 0
    detail: dict[str, Any] = field(default_factory=dict)

    @staticmethod
    def from_json(line: str) -> "Event":
        """The event whose ``events.jsonl`` line is ``line``: its nine keys in order,
        ``tick``, ``seq`` and ``bytes`` ints (not bools) that an int64 holds, the
        type a text, the other four texts or null, and ``detail`` an object."""
        entry = json.loads(line)
        if type(entry) is not dict or list(entry) != _KEYS or type(entry["detail"]) is not dict \
                or any(type(entry[k]) is not int or entry[k] not in _INT64 for k in _NUMBERS) \
                or type(entry["event_type"]) is not str \
                or any(type(entry[k]) not in (str, type(None)) for k in _HEAD_TEXTS):
            raise ValueError(f"not an event line: {line[:80]!r}")
        return Event(*entry.values())


class EventLog:
    """Append-only, totally ordered by (tick, seq): one row per event.

    A row is five int64 ``array`` columns, ``tick``, ``seq``, a head code,
    ``bytes`` and ``msg_id``: a run's clock stops at ``max_ticks``, its sizes
    are bounded by ``config.MAX_BYTES``, and :meth:`Event.from_json` loads no
    line whose numbers an int64 cannot hold. The head code indexes the head
    table, one entry per distinct ``(type, src, dst, interface,
    payload_kind)`` with its JSON text rendered once; :meth:`code` gives it.
    Rows come by two paths. A fact (every row of a rebuilt log, too) goes
    through :meth:`add`, and keeps its detail dict in a sparse ``{row:
    detail}`` map. A message's ``send``, ``deliver`` or ``component_down``
    row is appended to the columns by :class:`Simulation`, with head codes it
    resolved once per hop; its detail is ``{"msg_id": msg_id}``. A head may
    so have no row. :attr:`entries` reads the rows as :class:`Event` objects,
    built only when read.
    """

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self._cols = (array("q"), array("q"), array("q"), array("q"), array("q"))
        self._heads: list[_Head] = []
        self._texts: list[str] = []  # the JSON text of each head
        self._code_of: dict[_Head, int] = {}
        self._details: dict[int, dict[str, Any]] = {}
        self.entries = _Entries(self)
        for e in events:
            self.append(e)

    def code(self, head: _Head) -> int:
        """The code of ``head`` in the head table, added with its JSON text if new."""
        code = self._code_of.get(head)
        if code is None:
            code = self._code_of[head] = len(self._heads)
            self._heads.append(head)
            self._texts.append(_fields_text(head))
        return code

    def add(self, tick: int, seq: int, type: str, src: str | None, dst: str | None,
            interface: str | None, payload_kind: str | None, bytes: int,
            detail: dict[str, Any] | None) -> None:
        """Append a fact's row with its detail, ``{}`` for None."""
        ticks, seqs, codes, sizes, ids = self._cols
        self._details[len(ticks)] = {} if detail is None else detail
        ticks.append(tick)
        seqs.append(seq)
        codes.append(self.code((type, src, dst, interface, payload_kind)))
        sizes.append(bytes)
        ids.append(0)

    def append(self, event: Event) -> None:
        """Append ``event``'s row with its detail, as a rebuilt log does."""
        self.add(event.tick, event.seq, event.type, event.src, event.dst, event.interface,
                 event.payload_kind, event.bytes, event.detail)

    def _event(self, row: int) -> Event:
        detail = self._details.get(row)
        ticks, seqs, codes, sizes, ids = self._cols
        return Event(ticks[row], seqs[row], *self._heads[codes[row]], sizes[row],
                     {"msg_id": ids[row]} if detail is None else detail)

    def _where(self, keep: Callable[[str], bool]) -> list[Event]:
        """The events whose type ``keep`` accepts, built from their rows only."""
        wanted = {code for code, head in enumerate(self._heads) if keep(head[0])}
        return [self._event(row) for row, code in enumerate(self._cols[2]) if code in wanted]

    def of_type(self, *types: str) -> list[Event]:
        return self._where(set(types).__contains__)

    def non_messages(self) -> list[Event]:
        """Every event but a message's ``send``, ``deliver`` or ``component_down``."""
        return self._where(lambda type: type not in _MESSAGE_TYPES)

    def totals(self, type: str) -> dict[_Head, list[int]]:
        """``[bytes summed, events]`` of the events of ``type``, per head with a
        row. Both are summed over the columns in int64, exact while a head's
        bytes add up inside it, as every run's do (``config.MAX_BYTES``)."""
        codes = np.frombuffer(self._cols[2], np.int64)
        counts = np.bincount(codes, minlength=len(self._heads))
        sums = np.zeros(len(self._heads), np.int64)
        np.add.at(sums, codes, np.frombuffer(self._cols[3], np.int64))
        return {head: [int(sums[code]), int(counts[code])]
                for code, head in enumerate(self._heads) if head[0] == type and counts[code]}

    def to_jsonl(self) -> str:
        """Each event's ``events.jsonl`` line, newline-terminated, rendered from the
        columns: the JSON of its nine keys, as :class:`Event` gives them."""
        texts, details, encode = self._texts, self._details, _COMPACT_JSON.encode
        msg_line, line = _MSG_LINE + "\n", _LINE + "\n"
        return "".join([
            msg_line % (tick, seq, texts[code], size, msg_id) if row not in details else
            line % (tick, seq, texts[code], size, encode(details[row]))
            for row, (tick, seq, code, size, msg_id) in enumerate(zip(*self._cols))])


class _Entries(Sequence):
    """A read-only view of a log's rows as :class:`Event` objects: ``len``, an
    index (negative too), a slice (a list), iteration and ``==`` with a list.
    Each read builds new events."""

    __slots__ = ("_log",)

    def __init__(self, log: EventLog) -> None:
        self._log = log

    def __len__(self) -> int:
        return len(self._log._cols[0])

    def __getitem__(self, index: int | slice) -> Event | list[Event]:
        rows = range(len(self))[index]
        if isinstance(rows, int):
            return self._log._event(rows)
        return [self._log._event(row) for row in rows]

    def __iter__(self) -> Iterator[Event]:
        return map(self._log._event, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, _Entries)):
            return list(self) == list(other)
        return NotImplemented



@dataclass
class _ComponentState:
    failed_since: int | None = None  # failure effective strictly after this tick

    def alive_at(self, tick: int) -> bool:
        return self.failed_since is None or tick <= self.failed_since


class _Hop(NamedTuple):
    """What each message from one component to another with one payload kind
    needs, resolved at the first such send: the link, the destination's state
    and the log's head codes of the message's rows."""

    wire: Wire
    latency: int
    overhead_bytes: int
    dst_state: _ComponentState
    send: int
    deliver: int
    down: int  # a drop's component_down; a heartbeat's deliver, as it is never dropped


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
        self._rows = self.log._cols  # a message's rows are appended here, not through add
        # (tick, seq, action, None), or a delivery's (tick, seq, message, hop)
        self._heap: list[tuple[int, int, Any, _Hop | None]] = []
        self._hops: dict[tuple[ComponentId, ComponentId, PayloadKind], _Hop] = {}
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
        heappush(self._heap, (tick, self._seq, action, None))

    def log_event(self, type: str, *, src: ComponentId | None = None,
                  detail: dict[str, Any] | None = None) -> None:
        """Log a fact that is no message's hop, at the clock."""
        self._event(type, None if src is None else src._text, detail)

    def _event(self, type: str, src: str | None, detail: dict[str, Any] | None) -> None:
        """Log a fact at the clock: its type, its source's text and its detail."""
        self._seq = seq = self._seq + 1
        self.log.add(self.clock, seq, type, src, None, None, None, 0, detail)

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

        The first send from src to dst with ``payload_kind`` resolves the
        link's :class:`Wire` (raising :class:`UndeclaredRoute` if there is
        none, and caching nothing) and the log's head codes of the hop's
        rows, and caches them as a :class:`_Hop`; every send over the hop
        reads only that record. The ``send`` row goes straight into the
        log's columns, and the delivery onto the heap at send tick + latency
        as ``(tick, seq, message, hop)``; the ``deliver`` row and handler
        dispatch happen then. A failed destination silently drops
        everything but heartbeats (logged as a component_down event).
        """
        hop = self._hops.get((src, dst, payload_kind))
        if hop is None:
            hop = self._hop(src, dst, payload_kind)
        self._msg_counter = msg_id = self._msg_counter + 1
        clock = self.clock
        msg = InterfaceMessage(msg_id, src, dst, hop.wire.interface, payload_kind,
                               int(payload_bytes), clock, clock + hop.latency, payload,
                               final_dst, meta or {})
        self._seq = seq = self._seq + 2  # the send's row, then its delivery's heap entry
        ticks, seqs, codes, sizes, ids = self._rows
        ticks.append(clock)
        seqs.append(seq - 1)
        codes.append(hop.send)
        sizes.append(msg.payload_bytes + hop.overhead_bytes)
        ids.append(msg_id)
        # schedule() without its check: latency >= 0, so never in the past
        heappush(self._heap, (msg.deliver_tick, seq, msg, hop))
        return msg

    def _hop(self, src: ComponentId, dst: ComponentId, payload_kind: PayloadKind) -> _Hop:
        wire = self.topology.wire(src, dst)
        code = self.log.code
        texts = (src._text, dst._text, wire.text, _KIND_TEXT[payload_kind])
        deliver = code(("deliver", *texts))
        hop = self._hops[src, dst, payload_kind] = _Hop(
            wire, wire.latency, wire.overhead_bytes, self.topology.components[dst],
            code(("send", *texts)), deliver,
            deliver if payload_kind is PayloadKind.HEARTBEAT else code(("component_down", *texts)))
        return hop

    def _deliver(self, msg: InterfaceMessage, hop: _Hop) -> None:
        clock = self.clock
        alive = hop.dst_state.alive_at(clock)
        self._seq = seq = self._seq + 1
        ticks, seqs, codes, sizes, ids = self._rows
        ticks.append(clock)
        seqs.append(seq)
        codes.append(hop.deliver if alive else hop.down)
        sizes.append(msg.payload_bytes + hop.overhead_bytes)
        ids.append(msg.msg_id)
        if alive:
            handler = self.handlers.get(msg.dst)
            if handler is not None:
                handler(self, msg)

    def signaling_table(self) -> dict[str, Any]:
        """:func:`signaling_table` of this simulation's interfaces and log."""
        return signaling_table(self.topology.interfaces, self.log)

    # -- time ---------------------------------------------------------------------

    def stop(self) -> None:
        """Make :meth:`run_to_completion` return once the running action returns.

        It runs none of the actions left on the heap, so nothing is logged
        after the stop and the clock stays at the stopping tick.
        """
        self.stopped = True

    def run_to_completion(self, max_tick: int = 10_000_000) -> None:
        heap, deliver = self._heap, self._deliver
        while heap and not self.stopped:
            tick = heap[0][0]
            if tick > max_tick:
                raise TickLimitExceeded(f"simulation exceeded max_tick={max_tick}")
            _, _, what, hop = heappop(heap)
            self.clock = tick
            if hop is None:
                what()
            else:
                deliver(what, hop)


def signaling_table(interfaces: Iterable[InterfaceName], log: EventLog) -> dict[str, Any]:
    """Delivered traffic per interface, folded from the ``deliver`` rows of ``log``.

    Every interface named appears, in the order given, with its ``bytes``
    (payload plus overhead) and ``messages``, and the same two per
    ``"<src kind>-><dst kind>"`` direction and per payload kind, each map
    sorted. A ``component_down`` drop was never delivered, so it is not
    counted; a heartbeat delivered into a failed component is.
    """
    table = {name.value: {"bytes": 0, "messages": 0, "directions": {}, "by_kind": {}}
             for name in interfaces}
    for (_, src, dst, interface, payload_kind), (total, count) in log.totals("deliver").items():
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
