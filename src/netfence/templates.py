"""The ready-to-use invariant template library.

Fifteen templates plus the SystemBoundary meta template.  Each template
is a declaration: its strategy, its unique secure default attribute
`bottom`, how to validate and decode attribute values, and, exactly
when it is Phi-structured, its per-edge predicate `phi`.  Each meaning
is declared once: an enumerated template lists its attribute values in
`values`, a reach-bound template (CommWith, NotCommWith, Dependability,
DependabilityNonRefl) bounds each host's reachable set in `reach_bound`,
which its whole-graph check and its incremental ReachClosure both read,
and policy.decode_names decodes every JSON list of host names or labels
(a policy's nodes too).

Attribute encodings (each class declares its bottom):
  BLPBasic               int security level
  BLPTrusted             (level, trust) via BlpAttr
  CommPartners           "DontCare" | "Care" | Master(acl)
  CommWith               tuple of reachable hosts
  NotCommWith            HostSet (supports symbolic UNIV)
  Dependability          int cap on reachable hosts
  DependabilityNonRefl   same, self-loops not counted
  DomainHierarchy        DomAttr(path leaf-first, trust), bottom below all
  NoRefl                 "Refl" | "NoRefl"
  NonInterference        "Interfering" | "Unrelated"
  PolEnforcePoint        role string
  Sink                   "Sink" | "SinkPool" | "Unassigned"
  Subnets                ("Subnet", n) | ("BorderRouter", n) |
                         ("BorderRouterPrime", n) | "InboundRouter" |
                         "Unassigned"
  SubnetsInGW            "Member" | "InboundGateway" | "Unassigned"
  TaintingSimple         frozenset of label strings
  Tainting               TaintsSpec(taints, untaints), untaints subseteq taints
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import AttrTypeMismatch, IllformedSpec, IllformedTaints, NoDefault, load_json
from .invariants import ConfiguredInvariant
from .policy import (AttrMap, PolicyGraph, Strategy, adjacency, decode_names, reachable,
                     undirected_adjacency)


# -- attribute value types ---------------------------------------------------


@dataclass(frozen=True)
class BlpAttr:
    level: int
    trust: bool = False


@dataclass(frozen=True)
class Master:
    acl: tuple

    def __init__(self, acl):
        object.__setattr__(self, "acl", tuple(acl))


@dataclass(frozen=True)
class HostSet:
    """Host set with a symbolic complement so UNIV stays representable."""

    members: frozenset
    complemented: bool = False

    def __contains__(self, host):
        return (host in self.members) != self.complemented

    @classmethod
    def univ(cls):
        return cls(frozenset(), True)


@dataclass(frozen=True)
class DomAttr:
    """Domain-hierarchy position: label path ordered leaf-first, plus a
    trust count that lets the host act that many levels higher."""

    path: Optional[tuple]  # None is the distinguished bottom, below everything
    trust: int = 0

    def __post_init__(self):
        # trust cannot lift the unassigned bottom; normalizing keeps the
        # default attribute unique
        if self.path is None and self.trust:
            object.__setattr__(self, "trust", 0)


def dom_below(a, b):
    """a is below or at b; b must be a suffix of a.  Bottom is below all."""
    if a is None:
        return True
    if b is None:
        return False
    return len(a) >= len(b) and a[len(a) - len(b):] == b


def dom_chop(path, trust):
    if path is None:
        return None
    return path[min(trust, len(path)):]


def parse_domain(text):
    """Leaf-first dotted notation: 'br.e.cc' is below 'e.cc' is below 'cc'."""
    text = text.strip()
    if not text:
        return None
    return tuple(text.split("."))


@dataclass(frozen=True)
class TaintsSpec:
    taints: frozenset
    untaints: frozenset

    def __post_init__(self):
        if not self.untaints <= self.taints:
            raise IllformedTaints(
                f"untaints {sorted(self.untaints)} not a subset of taints {sorted(self.taints)}"
            )

    @classmethod
    def of(cls, taints, untaints=()):
        """Normalizing constructor: X -- Y is stored as (X u Y) -- Y."""
        t, u = frozenset(taints), frozenset(untaints)
        return cls(t | u, u)


# -- incremental states -----------------------------------------------------
#
# Each keeps a graph that grows by edges over a fixed node set, with the
# interface of invariants.GraphState.  holds_with only inspects what the
# new edges change, so it assumes the invariant holds on the edges added
# so far; an add that breaks it marks the state broken, which every later
# holds_with reports (these templates are monotone: more edges never
# repair them).


def _bits(m):
    """The indices of the set bits of the int m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


class ReachClosure:
    """Transitive closure of a growing edge set, as int bitsets over hosts
    (Italiano, TCS 1986), checked against per-host reach bounds:
    bounds[v] = (counted, limit) lets v reach at most `limit` hosts of the
    host set `counted`.

    Each host keeps the hosts it reaches and the hosts that reach it.
    Adding (u, x) lets u and every host that reaches u reach x and
    everything x reaches: at most O(V) bitset operations per edge, and as
    many as there are hosts on either side."""

    def __init__(self, nodes, bounds):
        order = sorted(nodes)
        self.index = {v: i for i, v in enumerate(order)}
        self.reach = [0] * len(order)
        self.reached_by = [0] * len(order)
        self.counted = [sum(1 << i for i, a in enumerate(order) if a in bounds[v][0])
                        for v in order]
        self.limit = [bounds[v][1] for v in order]
        self.broken = False

    def _grow(self, reach, reached_by, edges) -> bool:
        """Add `edges` to the closure rows `reach` and `reached_by` in
        place; whether every row of `reach` that grew stays within its
        bound."""
        ok = True
        counted, limit = self.counted, self.limit
        for u, x in edges:
            u, x = self.index[u], self.index[x]
            sources, grow = reached_by[u] | 1 << u, 1 << x | reach[x]
            for w in _bits(sources):
                row = reach[w]
                if grow & ~row:
                    row |= grow
                    reach[w] = row
                    ok = ok and (row & counted[w]).bit_count() <= limit[w]
            for y in _bits(grow):
                reached_by[y] |= sources
        return ok

    def holds_with(self, edges) -> bool:
        return not self.broken and self._grow(list(self.reach), list(self.reached_by), edges)

    def add(self, edges):
        if not self._grow(self.reach, self.reached_by, edges):
            self.broken = True


def _root(parent, v):
    while parent[v] != v:
        parent[v] = parent[parent[v]]  # path halving
        v = parent[v]
    return v


class Components:
    """Undirected components of a growing edge set (union-find), where no
    component may hold two of the `marked` hosts."""

    def __init__(self, nodes, marked):
        self.parent = {v: v for v in nodes}
        self.marked = set(marked)  # roots whose component holds a marked host
        self.broken = False

    @staticmethod
    def _merge(parent, marked, edges) -> bool:
        ok = True
        for s, r in edges:
            a, b = _root(parent, s), _root(parent, r)
            if a == b:
                continue
            if a in marked:
                ok = ok and b not in marked
                marked.add(b)
            parent[a] = b
        return ok

    def holds_with(self, edges) -> bool:
        return not self.broken and self._merge(dict(self.parent), set(self.marked), edges)

    def add(self, edges):
        if not self._merge(self.parent, self.marked, edges):
            self.broken = True


# -- template definitions ----------------------------------------------------


class Template:
    """An invariant template: its secure default attribute `bottom` and,
    if Phi-structured, phi(attr_s, s, attr_r, r), which decides each edge
    (reflexive ones skipped when `norefl`).  Only a template without phi
    builds an eval_fn (make_eval) to decide whole graphs.  Phi must not
    read the host names s and r beyond testing s == r, so that for s != r
    it depends on the two attributes only; a template whose phi reads
    them sets `phi_reads_names`, and synthesis.ClassRows then
    decides its edges host by host instead of per class of equal
    attributes."""

    template_id: str
    strategy: Strategy
    bottom: object
    values = ()  # the attribute values of an enumerated template
    phi = None
    phi_reads_names = False
    norefl = False
    has_default = True

    @property
    def phi_structured(self) -> bool:
        return self.phi is not None

    def default(self):
        return self.bottom

    def validate_attr(self, value):
        if value not in self.values:
            raise AttrTypeMismatch(f"{self.template_id}: cannot use attribute {value!r}")

    def decode_attr(self, value):
        """Decode a JSON-level attribute value."""
        return value

    def attr_pool(self, hosts):
        """Small, representative attribute values for bounded model checks."""
        return list(self.values)

    def make_eval(self, attr_map):
        """The whole-graph check of a template without phi; None for a
        Phi-structured one, which ConfiguredInvariant decides by phi."""
        return None

    def make_incremental(self, attr_map):
        """The factory of ConfiguredInvariant.incremental, or None when
        the template has no incremental state."""
        return None

    def instantiate(self, attrs) -> ConfiguredInvariant:
        partial = dict(attrs.partial) if isinstance(attrs, AttrMap) else dict(attrs)
        for host, value in partial.items():
            self.validate_attr(value)
        amap = AttrMap(partial, self.default())
        return ConfiguredInvariant(
            template_id=self.template_id,
            strategy=self.strategy,
            eval_fn=self.make_eval(amap),
            attr_map=amap,
            phi=self.phi,
            norefl=self.norefl,
            incremental=self.make_incremental(amap),
            phi_reads_names=self.phi_reads_names,
        )


class ReachBound(Template):
    """A template that bounds, per host v, how many hosts of a set v may
    reach; reach_bound(attr, v) gives (that HostSet, the bound).  It is
    the template's one definition: both the whole-graph check and the
    incremental ReachClosure read it."""

    def make_eval(self, attr_map):
        def eval_fn(graph):
            adj = adjacency(graph.edges)
            for v in graph.nodes:
                counted, limit = self.reach_bound(attr_map(v), v)
                if sum(a in counted for a in reachable(adj, v)) > limit:
                    return False
            return True

        return eval_fn

    def make_incremental(self, attr_map):
        def state(nodes):
            return ReachClosure(nodes, {v: self.reach_bound(attr_map(v), v) for v in nodes})

        return state


class BLPBasic(Template):
    template_id = "BLPBasic"
    strategy = Strategy.IFS
    bottom = 0

    def validate_attr(self, value):
        if not isinstance(value, int) or value < 0:
            raise AttrTypeMismatch(f"BLPBasic level must be a natural number, got {value!r}")

    def attr_pool(self, hosts):
        return [0, 1, 2]

    def phi(self, attr_s, s, attr_r, r):
        return attr_s <= attr_r


class BLPTrusted(Template):
    template_id = "BLPTrusted"
    strategy = Strategy.IFS
    bottom = BlpAttr(0, False)

    def validate_attr(self, value):
        if not isinstance(value, BlpAttr) or value.level < 0:
            raise AttrTypeMismatch(f"BLPTrusted needs BlpAttr(level, trust), got {value!r}")

    def decode_attr(self, value):
        return BlpAttr(int(value["level"]), bool(value.get("trust", False)))

    def attr_pool(self, hosts):
        return [BlpAttr(l, t) for l in (0, 1, 2) for t in (False, True)]

    def phi(self, attr_s, s, attr_r, r):
        return attr_r.trust or attr_s.level <= attr_r.level


class CommPartners(Template):
    template_id = "CommPartners"
    strategy = Strategy.ACS
    bottom = "DontCare"
    phi_reads_names = True  # s in attr_r.acl
    norefl = True

    def validate_attr(self, value):
        if value in ("DontCare", "Care") or isinstance(value, Master):
            return
        raise AttrTypeMismatch(f"CommPartners attribute {value!r}")

    def decode_attr(self, value):
        if isinstance(value, dict) and "master" in value:
            return Master(decode_names(value["master"]))
        return value

    def attr_pool(self, hosts):
        hosts = sorted(hosts)
        return (
            ["DontCare", "Care", Master(())]
            + [Master((h,)) for h in hosts]
            + [Master(tuple(hosts))]
        )

    def phi(self, attr_s, s, attr_r, r):
        if isinstance(attr_r, Master):
            # DontCare senders never gain access through a stale ACL entry.
            return attr_s != "DontCare" and s in attr_r.acl
        return True


class CommWith(ReachBound):
    template_id = "CommWith"
    strategy = Strategy.ACS
    bottom = ()

    def validate_attr(self, value):
        if not isinstance(value, (tuple, list)):
            raise AttrTypeMismatch(f"CommWith needs a host list, got {value!r}")

    def decode_attr(self, value):
        return decode_names(value)

    def attr_pool(self, hosts):
        hosts = sorted(hosts)
        pool = [()]
        pool += [(h,) for h in hosts]
        pool.append(tuple(hosts))
        return pool

    def reach_bound(self, attr, v):
        return HostSet(frozenset(attr), complemented=True), 0


class NotCommWith(ReachBound):
    template_id = "NotCommWith"
    strategy = Strategy.ACS
    bottom = HostSet.univ()

    def validate_attr(self, value):
        if not isinstance(value, HostSet):
            raise AttrTypeMismatch(f"NotCommWith needs a HostSet, got {value!r}")

    def decode_attr(self, value):
        if isinstance(value, dict) and "all_but" in value:
            return HostSet(frozenset(decode_names(value["all_but"])), complemented=True)
        return HostSet(frozenset(decode_names(value)))

    def attr_pool(self, hosts):
        hosts = sorted(hosts)
        pool = [HostSet.univ(), HostSet(frozenset())]
        pool += [HostSet(frozenset({h})) for h in hosts]
        pool += [HostSet(frozenset({h}), complemented=True) for h in hosts]
        return pool

    def reach_bound(self, attr, v):
        return attr, 0


class Dependability(ReachBound):
    template_id = "Dependability"
    strategy = Strategy.ACS
    bottom = 0
    count_self = True

    def validate_attr(self, value):
        if not isinstance(value, int) or value < 0:
            raise AttrTypeMismatch(f"Dependability level must be a natural number, got {value!r}")

    def attr_pool(self, hosts):
        return [0, 1, 2, 3]

    def reach_bound(self, attr, v):
        return HostSet(frozenset() if self.count_self else frozenset({v}), True), attr


class DependabilityNonRefl(Dependability):
    template_id = "DependabilityNonRefl"
    count_self = False


class DomainHierarchy(Template):
    template_id = "DomainHierarchy"
    strategy = Strategy.ACS
    bottom = DomAttr(None, 0)

    def validate_attr(self, value):
        if not isinstance(value, DomAttr) or value.trust < 0:
            raise AttrTypeMismatch(f"DomainHierarchy needs DomAttr(path, trust), got {value!r}")

    def decode_attr(self, value):
        return DomAttr(parse_domain(value["level"]), int(value.get("trust", 0)))

    def attr_pool(self, hosts):
        paths = [None, ("cc",), ("e", "cc"), ("br", "e", "cc")]
        return [DomAttr(p, t) for p in paths for t in (0, 1)]

    def phi(self, attr_s, s, attr_r, r):
        return dom_below(attr_r.path, dom_chop(attr_s.path, attr_s.trust))


class NoRefl(Template):
    template_id = "NoRefl"
    values = ("Refl", "NoRefl")
    strategy = Strategy.ACS  # sender equals receiver here, so either reading works
    bottom = "NoRefl"

    def phi(self, attr_s, s, attr_r, r):
        return s != r or attr_s == "Refl"


class NonInterference(Template):
    template_id = "NonInterference"
    values = ("Interfering", "Unrelated")
    strategy = Strategy.IFS
    bottom = "Interfering"

    def make_eval(self, attr_map):
        def eval_fn(graph):
            adj = undirected_adjacency(graph.edges)
            for v in graph.nodes:
                if attr_map(v) != "Interfering":
                    continue
                for other in reachable(adj, v) - {v}:
                    if attr_map(other) == "Interfering":
                        return False
            return True

        return eval_fn

    def make_incremental(self, attr_map):
        def state(nodes):
            return Components(nodes, [v for v in nodes if attr_map(v) == "Interfering"])

        return state


class PolEnforcePoint(Template):
    template_id = "PolEnforcePoint"
    values = ("PolEnforcePoint", "PolEnforcePointIN", "DomainMember", "AccessibleMember",
              "Unassigned")
    strategy = Strategy.ACS
    bottom = "Unassigned"
    norefl = True

    def phi(self, attr_s, s, attr_r, r):
        if attr_s in ("PolEnforcePoint", "PolEnforcePointIN"):
            return True
        if attr_s == "DomainMember":
            return attr_r != "DomainMember"
        if attr_s == "AccessibleMember":
            return attr_r != "DomainMember"
        # Unassigned: the outside world
        return attr_r in ("Unassigned", "PolEnforcePointIN", "AccessibleMember")


class Sink(Template):
    template_id = "Sink"
    values = ("Sink", "SinkPool", "Unassigned")
    strategy = Strategy.IFS
    bottom = "Unassigned"
    norefl = True

    def phi(self, attr_s, s, attr_r, r):
        if attr_s == "Sink":
            return False
        if attr_s == "SinkPool":
            return attr_r in ("SinkPool", "Sink")
        return True


class Subnets(Template):
    template_id = "Subnets"
    strategy = Strategy.ACS
    bottom = "Unassigned"

    def validate_attr(self, value):
        if value in ("Unassigned", "InboundRouter"):
            return
        if (
            isinstance(value, tuple)
            and len(value) == 2
            and value[0] in ("Subnet", "BorderRouter", "BorderRouterPrime")
            and isinstance(value[1], int)
        ):
            return
        raise AttrTypeMismatch(f"Subnets attribute {value!r}")

    def decode_attr(self, value):
        if isinstance(value, dict):
            if "subnet" in value:
                return ("Subnet", int(value["subnet"]))
            if "border_router" in value:
                return ("BorderRouter", int(value["border_router"]))
            if "border_router_prime" in value:
                return ("BorderRouterPrime", int(value["border_router_prime"]))
        return value

    def attr_pool(self, hosts):
        return [
            ("Subnet", 1),
            ("Subnet", 2),
            ("BorderRouter", 1),
            ("BorderRouter", 2),
            "Unassigned",
        ]

    def phi(self, attr_s, s, attr_r, r):
        skind = attr_s[0] if isinstance(attr_s, tuple) else attr_s
        rkind = attr_r[0] if isinstance(attr_r, tuple) else attr_r
        if rkind == "InboundRouter":
            return True
        if skind == "Subnet":
            if rkind in ("Subnet", "BorderRouter", "BorderRouterPrime"):
                return attr_s[1] == attr_r[1]
            return True  # Unassigned receiver
        if skind == "BorderRouter":
            return rkind != "Subnet"
        if skind == "BorderRouterPrime":
            if rkind == "Subnet":
                return attr_s[1] == attr_r[1]
            return True
        if skind == "InboundRouter":
            return rkind != "Subnet"
        # Unassigned sender must not set up connections into the structure
        return rkind == "Unassigned"


class SubnetsInGW(Template):
    template_id = "SubnetsInGW"
    values = ("Member", "InboundGateway", "Unassigned")
    strategy = Strategy.ACS
    bottom = "Unassigned"

    def phi(self, attr_s, s, attr_r, r):
        if attr_s in ("Member", "InboundGateway"):
            return True
        return attr_r != "Member"


class TaintingSimple(Template):
    template_id = "TaintingSimple"
    strategy = Strategy.IFS
    bottom = frozenset()

    def validate_attr(self, value):
        if not isinstance(value, frozenset):
            raise AttrTypeMismatch(f"TaintingSimple needs a frozenset of labels, got {value!r}")

    def decode_attr(self, value):
        return frozenset(decode_names(value))

    def attr_pool(self, hosts):
        return [frozenset(), frozenset({"x"}), frozenset({"y"}), frozenset({"x", "y"})]

    def phi(self, attr_s, s, attr_r, r):
        return attr_s <= attr_r


class Tainting(Template):
    template_id = "Tainting"
    strategy = Strategy.IFS
    bottom = TaintsSpec.of((), ())

    def validate_attr(self, value):
        if not isinstance(value, TaintsSpec):
            raise AttrTypeMismatch(f"Tainting needs a TaintsSpec, got {value!r}")

    def decode_attr(self, value):
        return TaintsSpec.of(decode_names(value.get("taints", ())),
                             decode_names(value.get("untaints", ())))

    def attr_pool(self, hosts):
        labels = [frozenset(), frozenset({"x"}), frozenset({"y"}), frozenset({"x", "y"})]
        pool = {TaintsSpec.of(t, u) for t in labels for u in labels}
        return sorted(pool, key=lambda ts: (sorted(ts.taints), sorted(ts.untaints)))

    def phi(self, attr_s, s, attr_r, r):
        return (attr_s.taints - attr_s.untaints) <= attr_r.taints


class SystemBoundary(Template):
    """Meta template: expands to one access-control and one information-flow
    invariant which jointly wall off the internal components."""

    template_id = "SystemBoundary"
    strategy = Strategy.ACS
    has_default = False

    def default(self):
        raise NoDefault("SystemBoundary is a meta template without a default attribute")

    def instantiate(self, attrs):
        raise NoDefault("use system_boundary_expand for the meta template")


TEMPLATES = {
    t.template_id: t
    for t in (
        BLPBasic(),
        BLPTrusted(),
        CommPartners(),
        CommWith(),
        NotCommWith(),
        Dependability(),
        DependabilityNonRefl(),
        DomainHierarchy(),
        NoRefl(),
        NonInterference(),
        PolEnforcePoint(),
        Sink(),
        Subnets(),
        SubnetsInGW(),
        TaintingSimple(),
        Tainting(),
        SystemBoundary(),
    )
}

LIBRARY_IDS = [t for t in TEMPLATES if t != "SystemBoundary"]


def instantiate(template_id, attrs) -> ConfiguredInvariant:
    return TEMPLATES[template_id].instantiate(attrs)


def dependability_autolevels(graph: PolicyGraph, refl=True) -> AttrMap:
    """Assign each host the size of its reachable set; always a valid
    configuration for the (non-)reflexive dependability template."""
    levels = {}
    adj = adjacency(graph.edges)
    for v in graph.nodes:
        reach = reachable(adj, v)
        if not refl:
            reach -= {v}
        levels[v] = len(reach)
    return AttrMap(levels, 0)


def system_boundary_expand(spec) -> list:
    """Translate a boundary description into its two member invariants.

    spec keys: "internal", "passive", "active" (lists of hosts; boundary
    hosts that are both passive and active may appear in both lists).
    """
    internal, passive, active = (decode_names(spec.get(k, ()))
                                 for k in ("internal", "passive", "active"))
    if not internal and not passive and not active:
        return []
    acs_attrs = {}
    ifs_attrs = {}
    for h in internal:
        acs_attrs[h] = "Member"
        ifs_attrs[h] = BlpAttr(1, False)
    for h in active:
        acs_attrs[h] = "Member"
        ifs_attrs[h] = BlpAttr(0, True)
    for h in passive:
        acs_attrs[h] = "InboundGateway"
        ifs_attrs[h] = BlpAttr(0, True)
    return [
        TEMPLATES["SubnetsInGW"].instantiate(acs_attrs),
        TEMPLATES["BLPTrusted"].instantiate(ifs_attrs),
    ]


def load_invariants(text) -> list:
    """Parse the JSON invariant specification file.

    Format: [{"template": "BLPTrusted",
              "attrs": {"SensorSink": {"level": 2, "trust": true}}}, ...]
    SystemBoundary entries carry "internal"/"passive"/"active" lists
    instead of "attrs" and expand to two invariants.
    """
    entries = load_json(text, "invariant specification")
    if not isinstance(entries, list):
        raise IllformedSpec("invariant specification: expected a JSON list of entries")
    out = []
    for i, entry in enumerate(entries):
        tid = entry.get("template") if isinstance(entry, dict) else None
        template = TEMPLATES.get(tid) if isinstance(tid, str) else None
        if template is None:
            raise IllformedSpec(f"invariant entry {i}: unknown template {tid!r}")
        try:
            if tid == "SystemBoundary":
                out.extend(system_boundary_expand(entry))
                continue
            attrs = {h: template.decode_attr(v) for h, v in entry.get("attrs", {}).items()}
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise IllformedSpec(f"invariant entry {i} ({tid}): malformed ({exc!r})") from None
        out.append(template.instantiate(attrs))
    return out
