"""Automated policy construction and policy/requirement diffing."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, permutations, product

from .errors import PreconditionViolated
from .invariants import ConfiguredInvariant, all_hold, phi_failing_edges, set_offending_flows
from .policy import PolicyGraph


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


def maximum_policy(invariants, nodes) -> PolicyGraph:
    """The most permissive policy over `nodes` that satisfies the
    invariants, by definition
    generate_valid_topology(invariants, PolicyGraph.of(nodes).allow_all()).

    When every invariant is Phi-structured that is the set of host pairs
    on which every phi holds, computed over classes of hosts without
    building the allow-all graph.  Hosts are in one class when they have
    equal attributes in every invariant, and also the same name where an
    invariant's phi reads names (ConfiguredInvariant.phi_reads_names), so
    every phi gives one verdict on all pairs of distinct hosts drawn from
    two classes.  Each phi is called at most once per ordered pair of
    classes, on distinct representatives (the first members in sorted
    order, or the first two for a class paired with itself), and once
    per host for its reflexive edge unless the invariant is `norefl`.
    Otherwise the definition is evaluated, and a non-Phi invariant past
    its brute-force bound raises TooLargeForBruteForce."""
    if any(inv.phi is None for inv in invariants):
        return generate_valid_topology(invariants, PolicyGraph.of(nodes).allow_all())
    nodes = frozenset(nodes)
    members = {}
    for h in sorted(nodes):
        key = tuple(h if inv.phi_reads_names else inv.attr_map(h) for inv in invariants)
        members.setdefault(key, []).append(h)
    classes = [(hosts, hosts[0], [inv.attr_map(hosts[0]) for inv in invariants])
               for hosts in members.values()]
    blocks = []  # iterables of edges
    for cs, s, attrs_s in classes:
        # the classes that s may reach, narrowed phi by phi, as (members,
        # representative, attributes); cs itself is represented by its
        # second member
        targets = [c for c in classes if c[0] is not cs]
        if len(cs) > 1:
            targets.append((cs, cs[1], attrs_s))
        for i, inv in enumerate(invariants):
            phi, a_s = inv.phi, attrs_s[i]
            targets = [t for t in targets if phi(a_s, s, t[2][i], t[1])]
        if targets and targets[-1][0] is cs:
            blocks.append(permutations(cs, 2))
            targets.pop()
        blocks.append(product(cs, [r for cr, _, _ in targets for r in cr]))
    refl = [(i, inv.phi) for i, inv in enumerate(invariants) if not inv.norefl]
    blocks.append([(h, h) for hosts, _, attrs in classes for h in hosts
                   if all(phi(attrs[i], h, attrs[i], h) for i, phi in refl)])
    return PolicyGraph(nodes, frozenset(chain.from_iterable(blocks)))


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
    """How a manual policy relates to what the invariants require."""

    kept: frozenset       # in the policy and allowed
    violating: frozenset  # in the policy but forbidden
    absent: frozenset     # allowed by the maximum policy but not specified

    def to_dot(self, graph: PolicyGraph) -> str:
        """The diff over the manual policy `graph`'s nodes: every kept,
        violating (dashed red) and absent (dashed gray) edge."""
        return PolicyGraph(graph.nodes, self.kept).to_dot([
            (self.violating, "style=dashed, color=red"),
            (self.absent, "style=dashed, color=gray"),
        ])


def policy_diff(manual: PolicyGraph, invariants, maximum=None, report=None) -> DiffReport:
    """Compare a manual policy with the invariants.  `maximum` is the
    maximum policy over the manual policy's hosts and `report` is
    all_hold(invariants, manual), each when the caller already has it;
    they are computed otherwise."""
    if report is None:
        report = all_hold(invariants, manual)
    violating = set()
    for inv, verdict in zip(invariants, report.verdicts):
        offending = verdict.offending
        if offending is None and not verdict.holds:
            offending = set_offending_flows(inv, manual)  # raises past the brute-force bound
        for flow_set in offending or ():
            violating |= flow_set
    if maximum is None:
        maximum = maximum_policy(invariants, manual.nodes)
    absent = maximum.edges - manual.edges
    kept = manual.edges - violating
    return DiffReport(frozenset(kept), frozenset(violating), frozenset(absent))
