"""Generic security-invariant machinery.

A configured invariant is a predicate over policy graphs together with a
strategy tag.  A Phi-structured invariant is decided by its per-edge
predicate phi alone (in holds, phi_failing_edges, set_offending_flows)
and has a unique offending-flow set computable in linear time; any
other is decided by its whole-graph check eval_fn and falls back to
bounded brute force.

Synthesis uses the Phi structure incrementally: generate_valid_topology3
takes the phi-failing edges as the offending set without minimalizing,
and the stateful filters check each candidate backflow on the edges it
adds alone (phi_failing_edges over those edges).  set_offending_flows
takes a Phi invariant's verdict from its phi-failing edges without a
separate `holds` pass, and all_hold reads every verdict off
set_offending_flows.  synthesis.ClassRows, the maximum policy, checks
every phi once per ordered pair of classes of hosts with equal
attributes, plus once per host for the reflexive edge (a spec with a
non-Phi invariant it evaluates by definition, one host per class); given
its class ids, all_hold checks every phi once per class pair that holds
an edge of the graph, plus once per reflexive edge.

The non-Phi library templates (CommWith, NotCommWith, Dependability,
DependabilityNonRefl, NonInterference) carry an incremental state
instead: a transitive closure or union-find over a node set that starts
with no edges, which tests "does the invariant still hold with these
edges added?" in O(V) per edge.  generate_valid_topology3 and filter_ifs
grow their graphs on it edge by edge.  Verdicts on a given graph (holds,
all_hold, set_offending_flows) still evaluate the whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Callable, Optional

from .errors import TooLargeForBruteForce, json_block, json_pairs, json_string
from .policy import AttrMap, PolicyGraph, Strategy

# set_offending_flows enumerates the edge subsets of a non-Phi invariant's
# graph only up to this many edges
BRUTE_FORCE_BOUND = 16


@dataclass(frozen=True)
class ConfiguredInvariant:
    """A security invariant with its scenario knowledge already applied.

    If `phi` is set, the invariant is Phi-structured: it holds on a graph
    exactly when phi(attr_s, s, attr_r, r) holds on every edge (skipping
    reflexive edges when `norefl`), and eval_fn is not read.  Unless
    `phi_reads_names` is set, phi(attr_s, s, attr_r, r) for s != r must
    depend on the two attributes only, not on the host names; the
    default, True, makes no such promise.  Only an invariant without phi
    needs eval_fn, which decides whether a graph satisfies it.  If
    `incremental` is set, incremental(nodes) is a fresh state over
    `nodes` with no edges (see GraphState for the interface), which must
    agree with eval_fn on every graph it has grown.
    """

    template_id: str
    strategy: Strategy
    eval_fn: Optional[Callable[[PolicyGraph], bool]]
    attr_map: AttrMap
    phi: Optional[Callable] = None
    norefl: bool = False
    incremental: Optional[Callable] = None
    phi_reads_names: bool = True

    def holds(self, graph: PolicyGraph) -> bool:
        if self.phi is not None:
            return not phi_failing_edges(self, graph.edges)
        return self.eval_fn(graph)

    def state(self, nodes):
        """A fresh incremental state over `nodes` with no edges: the
        template's own when it has one, GraphState otherwise."""
        if self.incremental is not None:
            return self.incremental(nodes)
        return GraphState(self, nodes)

    def __repr__(self):
        return f"<{self.template_id} {self.strategy.value}>"


class GraphState:
    """The definitional incremental state of any invariant: it keeps the
    edges added so far and evaluates the invariant on the whole graph.

    holds_with(edges) tells, without changing the state, whether the
    invariant holds on the edges added so far plus `edges`; add(edges)
    commits them."""

    def __init__(self, inv: ConfiguredInvariant, nodes):
        self.inv = inv
        self.nodes = frozenset(nodes)
        self.edges = frozenset()

    def holds_with(self, edges) -> bool:
        return self.inv.holds(PolicyGraph(self.nodes, self.edges | frozenset(edges)))

    def add(self, edges):
        self.edges |= frozenset(edges)


def phi_failing_edges(inv: ConfiguredInvariant, edges) -> set:
    """The edges among `edges` on which a Phi-structured invariant's phi
    fails.  Over a graph's edges this is the unique offending-flow set, or
    empty exactly when the invariant holds; over a few added edges it
    checks them alone."""
    phi, norefl = inv.phi, inv.norefl
    attr, default = inv.attr_map.partial.get, inv.attr_map.default
    fails = set()
    for s, r in edges:
        if norefl and s == r:
            continue
        if not phi(attr(s, default), s, attr(r, default), r):
            fails.add((s, r))
    return fails


def _phi_offending(fails) -> frozenset:
    """A Phi-structured invariant's offending-flow set: one member, its
    phi-failing edges `fails`, or none when there are none."""
    return frozenset({frozenset(fails)}) if fails else frozenset()


def _powerset(items):
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def set_offending_flows(inv: ConfiguredInvariant, graph: PolicyGraph) -> frozenset:
    """All minimal edge sets whose removal repairs the invariant.

    Returns a frozenset of frozensets, empty exactly when the invariant
    holds (every template holds on a graph without edges).  Phi-structured
    invariants have a unique member (all edges failing phi); the general
    definition enumerates subsets and is refused beyond the brute-force
    bound.
    """
    if inv.phi is not None:
        return _phi_offending(phi_failing_edges(inv, graph.edges))
    if inv.holds(graph):
        return frozenset()
    edges = graph.sorted_edges()
    if len(edges) > BRUTE_FORCE_BOUND:
        raise TooLargeForBruteForce(
            f"{inv.template_id}: {len(edges)} edges exceed bound {BRUTE_FORCE_BOUND}"
            " of the offending-flow enumeration"
        )
    out = []
    for subset in _powerset(edges):
        f = frozenset(subset)
        rest = graph.delete_edges(f)
        if not inv.holds(rest):
            continue
        if all(not inv.holds(PolicyGraph(graph.nodes, rest.edges | {e})) for e in f):
            out.append(f)
    return frozenset(out)


def all_phi(invariants) -> bool:
    """Whether every invariant is Phi-structured."""
    return all(inv.phi is not None for inv in invariants)


def get_ifs(invariants):
    return [m for m in invariants if m.strategy is Strategy.IFS]


def get_acs(invariants):
    return [m for m in invariants if m.strategy is Strategy.ACS]


@dataclass
class InvariantVerdict:
    template_id: str
    strategy: Strategy
    holds: bool
    offending: Optional[frozenset] = None  # None when not computable


@dataclass
class ComplianceReport:
    verdicts: list = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(v.holds for v in self.verdicts)

    def to_json(self):
        """The text of json.dumps(..., indent=2) of the overall verdict and
        each invariant's template, strategy, verdict and offending flows:
        null when not computed, else each offending set as its sorted
        [src, dst] pairs, the sets in that order."""
        return json_block([
            '"overall": ' + _json_bool(self.overall),
            '"invariants": ' + json_block([_verdict_json(v) for v in self.verdicts], 1),
        ], 0, "{}")


def _json_bool(value: bool) -> str:
    return "true" if value else "false"


def _verdict_json(v: InvariantVerdict) -> str:
    """One verdict of ComplianceReport.to_json, at nesting depth 2."""
    offending = "null"
    if v.offending is not None:
        offending = json_block([json_pairs(f, 4) for f in sorted(map(sorted, v.offending))], 3)
    return json_block([
        '"template": ' + json_string(v.template_id),
        '"strategy": ' + json_string(v.strategy.value),
        '"holds": ' + _json_bool(v.holds),
        '"offending": ' + offending,
    ], 2, "{}")


def all_hold(invariants, graph: PolicyGraph, class_of=None) -> ComplianceReport:
    """Evaluate every invariant; the report's overall verdict is the
    conjunction.  An invariant holds exactly when set_offending_flows
    finds no offending flow.  That refuses to enumerate only after `holds`
    returned False, so past the brute-force bound the verdict is False and
    the offending flows are not computed (None).

    phi_failing_edges decides each Phi invariant on the first edge of
    every group of edges: each reflexive edge alone, and the edges between
    two classes of `class_of`, an integer class id per host under which
    every phi gives one verdict on all pairs of distinct hosts of two
    classes (synthesis.ClassRows.class_of); without it, each edge alone."""
    groups = {}
    for e in graph.edges:
        s, r = e
        # a reflexive edge is its own group: phi may read the host's name
        key = s if s == r else e if class_of is None else (class_of[s], class_of[r])
        groups.setdefault(key, []).append(e)
    firsts = [g[0] for g in groups.values()]
    report = ComplianceReport()
    for inv in invariants:
        if inv.phi is not None:
            failing = phi_failing_edges(inv, firsts)
            offending = _phi_offending([e for g in groups.values() if g[0] in failing for e in g])
        else:
            try:
                offending = set_offending_flows(inv, graph)
            except TooLargeForBruteForce:
                offending = None
        ok = offending == frozenset()
        report.verdicts.append(InvariantVerdict(inv.template_id, inv.strategy, ok,
                                                offending or None))
    return report
