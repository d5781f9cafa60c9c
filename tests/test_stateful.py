import random
from itertools import combinations

import pytest

import scenarios as sc
from checkers import random_graph, random_library_invariants, random_order
from netfence.errors import TooLargeForBruteForce
from netfence.invariants import get_acs, get_ifs, set_offending_flows
from netfence.policy import PolicyGraph, backflows
from netfence.stateful import (
    StatefulPolicy,
    alpha,
    compliance_check,
    filter_acs,
    filter_ifs,
    generate_stateful,
)
from netfence.synthesis import generate_valid_topology3
from netfence.templates import HostSet, Master, instantiate


# The filters by definition: every candidate's whole alpha policy is
# evaluated against every invariant.  The library filters check
# Phi-structured invariants incrementally and must return the same lists.


def definitional_filter_ifs(graph, invariants, order):
    ifs = get_ifs(invariants)
    acc = []
    seen = set()
    for e in order:
        if e in seen:
            continue
        seen.add(e)
        candidate = alpha(StatefulPolicy(graph.nodes, graph.edges, frozenset(acc) | {e}))
        if all(m.holds(candidate) for m in ifs):
            acc.append(e)
    return acc


def definitional_filter_acs(graph, invariants, order):
    acs = get_acs(invariants)
    already_bidirectional = backflows(graph.edges)
    acc = []
    seen = set()
    for e in order:
        if e in seen or e in already_bidirectional:
            continue
        seen.add(e)
        selected = frozenset(acc) | {e}
        candidate = alpha(StatefulPolicy(graph.nodes, graph.edges, selected))
        tolerated = backflows(selected)
        ok = True
        for m in acs:
            for flow_set in set_offending_flows(m, candidate):
                if not flow_set <= tolerated:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            acc.append(e)
    return acc


def building_automation():
    """Master controller B drives door lock A and log server C; A must not
    transitively tamper with C."""
    g = PolicyGraph.of({"A", "B", "C"}, {("B", "A"), ("B", "C")})
    inv = instantiate(
        "NotCommWith",
        {"A": HostSet(frozenset({"C"})),
         "B": HostSet(frozenset()),
         "C": HostSet(frozenset())},
    )
    return g, [inv]


class TestBasics:
    def test_alpha_definition(self):
        t = StatefulPolicy.of({"a", "b"}, {("a", "b")}, {("a", "b")})
        assert alpha(t).edges == {("a", "b"), ("b", "a")}

    def test_alpha_without_stateful_flows(self):
        t = StatefulPolicy.of({"a", "b"}, {("a", "b")}, set())
        assert alpha(t).edges == {("a", "b")}

    def test_trivial_policy_roundtrips(self):
        g = PolicyGraph.of({"a", "b"}, {("a", "b")})
        t = StatefulPolicy.of(g.nodes, g.edges, set())
        assert alpha(t) == g

    def test_stateful_must_be_subset(self):
        with pytest.raises(ValueError):
            StatefulPolicy.of({"a", "b"}, set(), {("a", "b")})

    def test_json_roundtrip(self):
        t = StatefulPolicy.of({"a", "b"}, {("a", "b")}, {("a", "b")})
        assert StatefulPolicy.from_json(t.to_json()) == t


class TestCompliance:
    def test_building_automation_bad_upgrade(self):
        g, invs = building_automation()
        t = StatefulPolicy.of(g.nodes, g.edges, {("B", "A")})
        offending = set()
        for m in get_acs(invs):
            offending |= set_offending_flows(m, alpha(t))
        assert offending == {frozenset({("B", "C")}), frozenset({("A", "B")})}
        verdict = compliance_check(t, invs)
        assert not verdict.ok and not verdict.acs_ok

    def test_building_automation_good_upgrade(self):
        g, invs = building_automation()
        verdict = compliance_check(StatefulPolicy.of(g.nodes, g.edges, {("B", "C")}), invs)
        assert verdict.ok

    def test_no_stateful_flows_pass_on_valid_policy(self):
        g, invs = building_automation()
        verdict = compliance_check(StatefulPolicy.of(g.nodes, g.edges, set()), invs)
        assert verdict.ok

    def test_only_newly_added_backflows_are_tolerated(self):
        """An offending flow that is a backflow of a stateful edge but also
        a plain policy flow is not excused: the criterion only tolerates
        backflows that E_tau does not already contain."""
        g = PolicyGraph.of({"A", "B", "C"}, {("A", "B"), ("B", "A"), ("B", "C")})
        inv = instantiate(
            "NotCommWith",
            {"C": HostSet(frozenset({"A"})),
             "A": HostSet(frozenset()),
             "B": HostSet(frozenset())},
        )
        assert inv.holds(g)
        t = StatefulPolicy.of(g.nodes, g.edges, {("A", "B"), ("B", "C")})
        verdict = compliance_check(t, [inv])
        assert not verdict.ok
        assert ("B", "A") in verdict.acs_excess

    def test_efficient_criterion_implies_all_subsets(self):
        """Formula (4) really rules out side effects of every backflow
        subset, checked by brute force on small stateful-flow sets; and the
        all-subsets condition implies the singleton condition."""
        rng = random.Random(21)
        hosts = ["a", "b", "c", "d"]
        checked = 0
        while checked < 25:
            edges = {(s, r) for s in hosts for r in hosts
                     if s != r and rng.random() < 0.35}
            g = PolicyGraph.of(hosts, edges)
            invs = [
                instantiate(
                    "SubnetsInGW",
                    {h: rng.choice(["Member", "InboundGateway", "Unassigned"])
                     for h in hosts},
                )
            ]
            if not all(m.holds(g) for m in invs):
                continue
            sigma = {e for e in edges if rng.random() < 0.6}
            if len(sigma) > 6:
                continue
            t = StatefulPolicy.of(g.nodes, g.edges, sigma)
            if not compliance_check(t, invs).ok:
                continue
            checked += 1
            back = sorted(backflows(sigma))
            for k in range(len(back) + 1):
                for combo in combinations(back, k):
                    x = set(combo)
                    candidate = PolicyGraph(g.nodes, g.edges | frozenset(x))
                    for m in get_acs(invs):
                        for f in set_offending_flows(m, candidate):
                            assert f <= x  # (2); with |x| = 1 this is (3)


class TestFilters:
    def test_filter_ifs_university_excludes_printer_flows(self):
        g = sc.university_policy()
        invs = sc.university_invariants()
        selected = filter_ifs(g, invs, g.sorted_edges())
        printer_flows = {e for e in g.edges if e[1] == "printer"}
        assert set(selected) == g.edges - printer_flows

    def test_filter_ifs_without_ifs_invariants_keeps_order(self):
        g = PolicyGraph.of({"a", "b"}, {("a", "b")})
        acs_only = [instantiate("CommPartners", {})]
        assert filter_ifs(g, acs_only, g.sorted_edges()) == g.sorted_edges()

    def test_filter_ifs_empty_order(self):
        g = sc.university_policy()
        assert filter_ifs(g, sc.university_invariants(), []) == []

    def test_filter_acs_building_automation(self):
        g, invs = building_automation()
        assert filter_acs(g, invs, [("B", "A"), ("B", "C")]) == [("B", "C")]

    def test_filter_acs_skips_bidirectional_edges(self):
        g = PolicyGraph.of({"a", "b"}, {("a", "b"), ("b", "a")})
        selected = filter_acs(g, [], g.sorted_edges())
        assert selected == []

    def test_filter_acs_local_invariants_select_all_unidirectional(self):
        g = sc.university_policy()
        acs = [m for m in sc.university_invariants() if m.strategy.value == "ACS"]
        selected = filter_acs(g, acs, g.sorted_edges())
        assert set(selected) == g.edges - backflows(g.edges)

    def test_duplicates_in_order_are_ignored(self):
        g = sc.university_policy()
        invs = sc.university_invariants()
        order = g.sorted_edges()
        doubled = [e for e in order for _ in range(2)]
        assert filter_ifs(g, invs, doubled) == filter_ifs(g, invs, order)
        assert filter_acs(g, invs, doubled) == filter_acs(g, invs, order)


class TestGenerate:
    def test_cabin_network(self):
        g = sc.cabin_policy()
        invs = sc.cabin_invariants()
        assert all(m.holds(g) for m in invs)
        t = generate_stateful(g, invs)
        assert t.stateful == sc.CABIN_STATEFUL

    def test_factory_before_repair(self):
        g = sc.factory_policy()
        invs = sc.factory_invariants(repaired=False)
        t = generate_stateful(g, invs)
        assert t.stateful == {("Webcam", "SensorSink"), ("SensorSink", "Statistics")}

    def test_factory_repaired(self):
        t = generate_stateful(sc.factory_policy(), sc.factory_invariants(repaired=True))
        assert t.stateful == sc.FACTORY_STATEFUL

    def test_result_is_compliant(self):
        for g, invs in [
            (sc.cabin_policy(), sc.cabin_invariants()),
            (sc.factory_policy(), sc.factory_invariants()),
            (sc.university_policy(), sc.university_invariants()),
        ]:
            t = generate_stateful(g, invs)
            assert compliance_check(t, invs).ok

    def test_chain_and_intersect_agree(self):
        for g, invs in [
            (sc.cabin_policy(), sc.cabin_invariants()),
            (sc.factory_policy(), sc.factory_invariants()),
            (sc.university_policy(), sc.university_invariants()),
        ]:
            order = g.sorted_edges()
            acs_sel = set(filter_acs(g, invs, order))
            intersected = {e for e in filter_ifs(g, invs, order) if e in acs_sel}
            assert generate_stateful(g, invs).stateful == intersected

    def test_no_ifs_local_acs_upgrades_everything(self):
        """Without IFS invariants and with side-effect-free ACS invariants,
        the stateful implementation covers the whole graph."""
        hosts = ["s1", "s2", "srv", "ext"]
        edges = {("s1", "srv"), ("s2", "srv"), ("s1", "s2"), ("ext", "srv")}
        g = PolicyGraph.of(hosts, edges)
        invs = [
            instantiate(
                "CommPartners",
                {"srv": Master(("s1", "s2", "ext")),
                 "s1": "Care", "s2": "Care", "ext": "Care"},
            )
        ]
        assert all(m.holds(g) for m in invs)
        t = generate_stateful(g, invs)
        assert alpha(t).edges == g.edges | backflows(g.edges)


class TestIncrementalFilters:
    """The incremental filters against the definitional ones on random
    graphs of up to six nodes, random orders with repeated edges and
    edges outside the graph, and Phi, non-Phi and mixed invariant sets
    drawn from the template library."""

    @pytest.mark.parametrize("kind", ["phi", "nonphi", "mixed"])
    def test_filters_equal_definitional(self, kind):
        rng = random.Random(f"filters-{kind}")
        # non-Phi ACS offending flows are brute forced: keep those graphs small
        max_edges, foreign = (12, 4) if kind == "phi" else (4, 1)
        compared = nonempty = 0
        for case in range(150):
            graph = random_graph(rng, max_edges)
            invs = random_library_invariants(rng, graph.sorted_nodes(), kind)
            if case % 2:
                graph = generate_valid_topology3(invs, graph)  # a valid policy
            order = random_order(rng, graph, foreign)
            for new, definitional in ((filter_ifs, definitional_filter_ifs),
                                      (filter_acs, definitional_filter_acs)):
                try:
                    expected = definitional(graph, invs, order)
                except TooLargeForBruteForce:
                    continue
                assert new(graph, invs, order) == expected, (new.__name__, graph, invs, order)
                compared += 1
                nonempty += bool(expected)
        assert compared >= 250 and nonempty >= 50

    def test_filter_ifs_equals_definitional_on_noninterference(self):
        """NonInterference, the non-Phi IFS template, is checked on a
        union-find of the accepted policy; alone and next to other
        invariants, on graphs up to the allow-all graph."""
        rng = random.Random("filter-ifs-noninterference")
        nonempty = shorter = 0
        for case in range(300):
            graph = random_graph(rng, 36)
            hosts = graph.sorted_nodes()
            invs = [instantiate("NonInterference", {h: rng.choice(["Interfering", "Unrelated"])
                                                    for h in hosts if rng.random() < 0.8})]
            if case % 3:
                invs += random_library_invariants(rng, hosts, "mixed")
            if case % 2:
                graph = generate_valid_topology3(invs, graph)  # a valid policy
            order = random_order(rng, graph, 4)
            expected = definitional_filter_ifs(graph, invs, order)
            assert filter_ifs(graph, invs, order) == expected, (graph, invs, order)
            nonempty += bool(expected)
            shorter += 0 < len(expected) < len(set(order))
        assert nonempty >= 100 and shorter >= 30

    def test_added_edge_is_tolerated_only_as_a_backflow(self):
        """A candidate edge that fails a Phi ACS invariant is kept only when
        it is the backflow of an edge selected before it."""
        g = PolicyGraph.of({"a", "b"}, set())
        inv = instantiate("SubnetsInGW", {"b": "Member"})  # a -> b fails
        for order, expected in (([("b", "a"), ("a", "b")], [("b", "a"), ("a", "b")]),
                                ([("a", "b"), ("b", "a")], [("b", "a")])):
            assert definitional_filter_acs(g, [inv], order) == expected
            assert filter_acs(g, [inv], order) == expected

    def test_failing_graph_edge_is_never_tolerated(self):
        g = PolicyGraph.of({"a", "b", "c"}, {("a", "b"), ("c", "a")})
        inv = instantiate("SubnetsInGW", {"b": "Member"})  # a -> b fails
        order = [("b", "a"), ("a", "c"), ("c", "b"), ("b", "c"), ("a", "a")]
        assert definitional_filter_acs(g, [inv], order) == []
        assert filter_acs(g, [inv], order) == []
