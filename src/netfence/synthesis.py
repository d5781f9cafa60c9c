"""Automated policy construction and policy/requirement diffing."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import PreconditionViolated
from .invariants import (ConfiguredInvariant, all_hold, all_phi, phi_failing_edges,
                         set_offending_flows)
from .policy import EdgeRows, PolicyGraph, dot_text


def generate_valid_topology(invariants, graph: PolicyGraph) -> PolicyGraph:
    """Remove every offending flow of every invariant, computed on the
    starting graph.  Sound for monotonic invariants; started from the
    allow-all graph with Phi-structured invariants the result is the
    unique maximum policy.

    Non-Phi invariants go first, in their given order, so one past its
    brute-force bound raises TooLargeForBruteForce before any Phi work;
    the removed set is a union, so the order does not change it."""
    removed = set()
    for inv in sorted(invariants, key=lambda m: m.phi is not None):
        for flow_set in set_offending_flows(inv, graph):
            removed |= flow_set
    return graph.delete_edges(removed)


class ClassRows(EdgeRows):
    """The maximum policy of the invariants over `nodes`, by definition
    generate_valid_topology(invariants, PolicyGraph.of(nodes).allow_all()),
    as the receiver rows of classes of hosts.

    When every invariant is Phi-structured, hosts are in one class when
    they have equal attributes in every invariant, and also the same name
    where an invariant's phi reads names (ConfiguredInvariant.phi_reads_names),
    so every phi gives one verdict on all pairs of distinct hosts drawn
    from two classes.  Each phi is called at most once per ordered pair of
    classes, on distinct representatives (the first members in sorted
    order, or the first two for a class paired with itself), and once per
    host for its reflexive edge unless the invariant is `norefl`.
    Otherwise each host is its own class and the definition is evaluated,
    raising TooLargeForBruteForce past the brute-force bound.  A class
    keeps one sorted row of receivers; a host's row is its class's, with
    its own name added or taken out by its reflexive verdict.  `class_of`
    maps each host to its class's integer id; with `reach` (per class, the
    ids its hosts may reach) and `refl` (per host) it decides an edge in O(1)."""

    def __init__(self, invariants, nodes):
        order = sorted(nodes)
        if not all_phi(invariants):
            edges = generate_valid_topology(invariants, PolicyGraph.of(order).allow_all()).edges
            members = [[h] for h in order]
            self.reach = [{c for c, r in enumerate(order) if (h, r) in edges} for h in order]
            self.refl = {h: (h, h) in edges for h in order}
        else:
            keyed = {}
            for h in order:
                key = tuple(h if inv.phi_reads_names else inv.attr_map(h) for inv in invariants)
                keyed.setdefault(key, []).append(h)
            members = list(keyed.values())
            # (id, representative, attributes, members) of each class
            classes = [(c, hosts[0], [inv.attr_map(hosts[0]) for inv in invariants], hosts)
                       for c, hosts in enumerate(members)]
            self.reach = []  # per class, the ids of the classes its hosts may reach
            for c, s, attrs_s, hosts in classes:
                # narrowed phi by phi; c itself is represented by its second member
                targets = [t for t in classes if t[0] != c]
                if len(hosts) > 1:
                    targets.append((c, hosts[1], attrs_s))
                for i, inv in enumerate(invariants):
                    phi, a_s = inv.phi, attrs_s[i]
                    targets = [t for t in targets if phi(a_s, s, t[2][i], t[1])]
                self.reach.append({t[0] for t in targets})
            refl = [(i, inv.phi) for i, inv in enumerate(invariants) if not inv.norefl]
            self.refl = {h: all(phi(attrs[i], h, attrs[i], h) for i, phi in refl)
                         for _, _, attrs, hosts in classes for h in hosts}
            for c, s, _, hosts in classes:  # a lone host's row holds it by its reflexive verdict
                if len(hosts) == 1 and self.refl[s]:
                    self.reach[c].add(c)
        self.class_of = {h: c for c, hosts in enumerate(members) for h in hosts}
        self.class_rows = [sorted(chain.from_iterable(members[d] for d in reach))
                           for reach in self.reach]
        size = sum(len(row) * len(hosts) for row, hosts in zip(self.class_rows, members))
        size += sum(self.refl[h] - (c in self.reach[c]) for h, c in self.class_of.items())
        # not EdgeRows.__init__: self.row stored on self would be a reference cycle
        self.sources, self.size = order, size

    def row(self, h):
        c = self.class_of.get(h)
        if c is None:
            return []
        row = self.class_rows[c]
        if (c in self.reach[c]) == self.refl[h]:
            return row
        return sorted([*row, h]) if self.refl[h] else [r for r in row if r != h]

    def __contains__(self, edge):
        s, r = edge
        if s == r:
            return self.refl.get(s, False)
        c = self.class_of.get(s)
        return c is not None and self.class_of.get(r) in self.reach[c]


def minimalize_offending_overapprox(
    inv: ConfiguredInvariant, fs, keeps, graph: PolicyGraph
):
    """Shrink the over-approximation `fs` to one member of the offending-flow
    set, without ever enumerating the whole set.

    `fs` must be a distinct list of edges of the graph whose removal
    (together with `keeps`) repairs the invariant; the initial call uses
    keeps=[].  Edges listed first are preferred for removal testing, so the
    caller controls which member is found by ordering `fs`.
    """
    if inv.holds(graph):
        raise PreconditionViolated(f"{inv.template_id} already holds; nothing to minimalize")
    fs = list(fs)
    if len(set(fs)) != len(fs):
        raise PreconditionViolated("fs must be distinct")
    if not set(fs) <= graph.edges:
        raise PreconditionViolated("fs must be a subset of the graph's edges")
    keeps = list(keeps)
    if not inv.holds(graph.delete_edges(set(fs) | set(keeps))):
        raise PreconditionViolated("removing fs and keeps must repair the invariant")
    while fs:
        f = fs.pop(0)
        if inv.holds(graph.delete_edges(set(fs) | set(keeps))):
            continue  # removing the rest suffices, f bears no responsibility
        keeps.insert(0, f)
    return keeps


def insertion_member(inv: ConfiguredInvariant, graph: PolicyGraph) -> list:
    """minimalize_offending_overapprox(inv, graph.sorted_edges(), [], graph),
    by greedy insertion.

    With every edge in `fs` and no keeps, minimalize's step i tests the
    edges it has dropped so far plus f_i, so f_i is kept exactly when
    adding it to that growing graph breaks the invariant.  The graph grows
    on the invariant's incremental state, one holds_with per edge.  Like
    minimalize, this expects the invariant to fail on `graph` and raises
    PreconditionViolated when it fails on the graph without edges."""
    state = inv.state(graph.nodes)
    if not state.holds_with(()):
        raise PreconditionViolated("removing fs and keeps must repair the invariant")
    keeps = []
    for f in graph.sorted_edges():
        if state.holds_with((f,)):
            state.add((f,))
        else:
            keeps.append(f)
    keeps.reverse()  # minimalize lists the last kept edge first
    return keeps


def generate_valid_topology3(invariants, graph: PolicyGraph) -> PolicyGraph:
    """Epsilon-choice construction: per violated invariant, remove only one
    member of its offending-flow set, the one minimalize finds from the
    sorted edges.  Never brute forces, so it also handles
    non-Phi-structured invariants; the result is a superset of
    generate_valid_topology's.

    A Phi-structured invariant's offending-flow set has one member, its
    phi-failing edges, and minimalize provably returns exactly those; they
    are taken directly, in one pass over the edges.  Any other violated
    invariant's member comes from insertion_member: for the library
    templates O(V) bitset or union-find work per edge, after one `holds`
    on the whole graph."""
    removed = set()
    for inv in invariants:
        if inv.phi is not None:
            removed |= phi_failing_edges(inv, graph.edges)
        elif not inv.holds(graph):
            removed |= set(insertion_member(inv, graph))
    return graph.delete_edges(removed)


@dataclass(frozen=True)
class DiffReport:
    """How a manual policy relates to what the invariants require.
    `absent` is EdgeRows (the maximum's rows without the manual edges), so
    that the V² absent flows are never held edge by edge."""

    kept: frozenset       # in the policy and allowed
    violating: frozenset  # in the policy but forbidden
    absent: EdgeRows      # allowed by the maximum policy but not specified

    def to_dot(self, graph: PolicyGraph) -> str:
        """The diff over the manual policy `graph`'s nodes: every kept,
        violating (dashed red) and absent (dashed gray) edge, the absent
        ones written from their rows."""
        styled = [(self.kept, None), (self.violating, "style=dashed, color=red")]
        return dot_text(graph.nodes, styled, self.absent.row, "style=dashed, color=gray")


def policy_diff(manual: PolicyGraph, invariants, maximum=None, report=None) -> DiffReport:
    """Compare a manual policy with the invariants.  `maximum` is
    ClassRows(invariants, manual.nodes), and `report` is all_hold(invariants,
    manual, maximum.class_of), each when the caller already has it; they
    are computed otherwise."""
    if maximum is None:
        maximum = ClassRows(invariants, manual.nodes)
    if report is None:
        report = all_hold(invariants, manual, maximum.class_of)
    violating = set()
    for inv, verdict in zip(invariants, report.verdicts):
        offending = verdict.offending
        if offending is None and not verdict.holds:
            offending = set_offending_flows(inv, manual)  # raises past the brute-force bound
        for flow_set in offending or ():
            violating |= flow_set
    return DiffReport(frozenset(manual.edges - violating), frozenset(violating),
                      maximum.without(manual.edges))
