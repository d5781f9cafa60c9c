"""Stateful policies: which flows may carry connection-state back-traffic.

A stateful policy upgrades some policy flows so that reply packets in the
opposite direction are allowed.  Upgrading is safe when the induced
directed policy still satisfies all information-flow invariants and any
access-control violations are confined to the newly added backflows.
"""

from __future__ import annotations

import json
from collections.abc import Set
from dataclasses import dataclass

from .invariants import get_acs, get_ifs, phi_failing_edges, set_offending_flows
from .policy import PolicyGraph, backflows, policy_json


@dataclass(frozen=True)
class StatefulPolicy:
    nodes: frozenset
    flows: Set            # E_tau, any set of edges (as PolicyGraph.edges)
    stateful: frozenset   # E_sigma, subset of flows

    @classmethod
    def of(cls, nodes, flows, stateful):
        t = cls(frozenset(nodes), frozenset(flows), frozenset(stateful))
        t.validate()
        return t

    def validate(self):
        if not self.stateful <= self.flows:
            raise ValueError("stateful flows must be a subset of the flows")
        for s, r in self.flows:
            if s not in self.nodes or r not in self.nodes:
                raise ValueError(f"flow ({s}, {r}) references unknown nodes")

    def to_json(self):
        return policy_json(self.nodes, flows=self.flows, stateful=self.stateful)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls.of(
            data["nodes"],
            [tuple(e) for e in data["flows"]],
            [tuple(e) for e in data["stateful"]],
        )

    def to_dot(self):
        return PolicyGraph(self.nodes, self.flows).to_dot([(self.stateful, "style=dashed")])


def alpha(t: StatefulPolicy) -> PolicyGraph:
    """The directed policy induced by a stateful policy: flows plus the
    backflows of the stateful subset."""
    return PolicyGraph(t.nodes, t.flows | t.stateful | frozenset(backflows(t.stateful)))


@dataclass
class ComplianceVerdict:
    ifs_ok: bool
    acs_ok: bool
    ifs_failures: list
    acs_excess: frozenset  # ACS offending edges not explained by new backflows

    @property
    def ok(self):
        return self.ifs_ok and self.acs_ok


def compliance_check(t: StatefulPolicy, invariants) -> ComplianceVerdict:
    """Check the two stateful-compliance conditions.

    (1) every IFS invariant holds on alpha(T); (2, efficient form) the
    union of all ACS offending flows on alpha(T) is confined to the newly
    added backflows, i.e. backflows(E_sigma) minus E_tau.  The second
    check is linear and provably implies the exponential all-subsets
    condition, which lives in the test suite only.
    """
    a = alpha(t)
    ifs_failures = [m.template_id for m in get_ifs(invariants) if not m.holds(a)]
    tolerated = frozenset(backflows(t.stateful)) - t.flows
    offending = set()
    for m in get_acs(invariants):
        for flow_set in set_offending_flows(m, a):
            offending |= flow_set
    excess = frozenset(offending) - tolerated
    return ComplianceVerdict(not ifs_failures, not excess, ifs_failures, excess)


def _split_phi(invariants):
    """(Phi-structured, other) invariants, each in their given order."""
    phi = [m for m in invariants if m.phi is not None]
    return phi, [m for m in invariants if m.phi is None]


def filter_ifs(graph: PolicyGraph, invariants, order) -> list:
    """Greedily accumulate the edges whose backflows keep every IFS
    invariant satisfied.  Edges listed first in `order` are preferred.

    Each candidate e adds two edges to the policy accepted so far: e and
    its backflow.  Every accepted candidate satisfied the Phi-structured
    invariants, so those are checked on the two edges alone.  Each other
    invariant keeps an incremental state (ConfiguredInvariant.state)
    seeded with the graph's edges; the two edges are tested on it and
    committed when the candidate is accepted."""
    phi, other = _split_phi(get_ifs(invariants))
    if any(phi_failing_edges(m, graph.edges) for m in phi):
        return []  # every candidate contains the failing base edges
    states = [m.state(graph.nodes) for m in other]
    for state in states:
        state.add(graph.edges)
    acc = []
    seen = set()
    for e in order:
        if e in seen:
            continue  # only the first occurrence of an edge counts
        seen.add(e)
        s, r = e
        added = (e, (r, s))
        if any(phi_failing_edges(m, added) for m in phi):
            continue
        if not all(state.holds_with(added) for state in states):
            continue
        for state in states:
            state.add(added)
        acc.append(e)
    return acc


def filter_acs(graph: PolicyGraph, invariants, order) -> list:
    """Keep an edge when it is not already bidirectional and every ACS
    offending-flow set of the candidate policy stays within the added
    backflows.

    A Phi-structured invariant's offending flows on the candidate are the
    failing edges of the policy accepted so far, all tolerated, plus those
    among the two edges alpha adds: the backflow, always tolerated, and e,
    tolerated only as a backflow of the selection.  A failing edge of the
    graph itself is never tolerated (its backflow is already bidirectional
    and so never selected).  The other invariants are evaluated on the
    whole candidate policy once those checks pass."""
    phi, other = _split_phi(get_acs(invariants))
    if any(phi_failing_edges(m, graph.edges) for m in phi):
        return []
    already_bidirectional = backflows(graph.edges)
    tolerated = set()  # backflows of the selection
    acc = []
    seen = set()
    for e in order:
        if e in seen or e in already_bidirectional:
            continue
        seen.add(e)
        s, r = e
        if s != r and e not in tolerated and any(phi_failing_edges(m, (e,)) for m in phi):
            continue
        if other:
            selected = frozenset(acc) | {e}
            candidate = alpha(StatefulPolicy(graph.nodes, graph.edges, selected))
            allowed = tolerated | {(r, s)}
            if not all(flow_set <= allowed
                       for m in other for flow_set in set_offending_flows(m, candidate)):
                continue
        acc.append(e)
        tolerated.add((r, s))
    return acc


def generate_stateful(graph: PolicyGraph, invariants, order=None) -> StatefulPolicy:
    """Compute a maximal compliant stateful policy from a valid directed
    policy: filter_acs over filter_ifs's output.

    Both filters check Phi-structured invariants incrementally, on the two
    edges each candidate adds, in time linear in the graph plus the order.
    filter_ifs checks the non-Phi IFS invariant NonInterference on a
    union-find of the accepted policy, so it is incremental too.  Only
    the non-Phi ACS invariants (CommWith, NotCommWith, Dependability) are
    evaluated on every candidate's whole policy, through their brute-force
    offending flows in filter_acs."""
    if order is None:
        order = graph.sorted_edges()
    selected = filter_acs(graph, invariants, filter_ifs(graph, invariants, order))
    return StatefulPolicy(graph.nodes, graph.edges, frozenset(selected))
