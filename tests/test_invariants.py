import random
from itertools import chain, combinations

import pytest

from checkers import offenders, random_graph, random_library_invariants, random_order
from netfence.errors import TooLargeForBruteForce
from netfence.invariants import (
    BRUTE_FORCE_BOUND,
    ConfiguredInvariant,
    all_hold,
    phi_failing_edges,
    set_offending_flows,
)
from netfence.policy import AttrMap, PolicyGraph, Strategy, succ_tran
from netfence.synthesis import policy_diff
from netfence.templates import TEMPLATES


def blp(attrs):
    return TEMPLATES["BLPBasic"].instantiate(attrs)


def transitive_ban(src, dst, nodes):
    """'src must not transitively access dst' as a configured invariant."""

    def eval_fn(graph):
        return dst not in succ_tran(graph, src)

    return ConfiguredInvariant(
        template_id=f"ban-{src}-{dst}",
        strategy=Strategy.ACS,
        eval_fn=eval_fn,
        attr_map=AttrMap({}, None),
    )


def powerset(xs):
    return chain.from_iterable(combinations(xs, k) for k in range(len(xs) + 1))


def brute_force_offending(inv, graph):
    out = set()
    if inv.holds(graph):
        return frozenset()
    for subset in powerset(sorted(graph.edges)):
        f = frozenset(subset)
        rest = graph.delete_edges(f)
        if not inv.holds(rest):
            continue
        if all(not inv.holds(PolicyGraph(graph.nodes, rest.edges | {e})) for e in f):
            out.add(f)
    return frozenset(out)


def definitional_set_offending_flows(inv, graph):
    """set_offending_flows as it read before Phi invariants skipped the
    whole-graph check: `holds` first, then the phi-failing edges or the
    brute force."""
    if inv.holds(graph):
        return frozenset()
    if inv.phi is not None:
        return frozenset({frozenset(phi_failing_edges(inv, graph.edges))})
    return brute_force_offending(inv, graph)


class TestPhiFailingEdges:
    """A Phi invariant's verdict and offending flows come from its failing
    edges alone; on random graphs of up to six nodes they equal the
    holds-first definition."""

    def test_equal_per_edge_attribute_lookups(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(200):
            graph = random_graph(rng, 20)
            edges = random_order(rng, graph, 4)
            for inv in random_library_invariants(rng, graph.sorted_nodes(), "phi"):
                expected = {
                    (s, r) for s, r in edges
                    if not (inv.norefl and s == r)
                    and not inv.phi(inv.attr_map(s), s, inv.attr_map(r), r)
                }
                assert phi_failing_edges(inv, edges) == expected
                checked += bool(expected)
        assert checked >= 100

    def test_offending_flows_and_reports_equal_definition(self):
        rng = random.Random(32)
        violated = 0
        for _ in range(200):
            graph = random_graph(rng, 20)
            invs = random_library_invariants(rng, graph.sorted_nodes(), "phi")
            report = all_hold(invs, graph)
            for inv, verdict in zip(invs, report.verdicts):
                expected = definitional_set_offending_flows(inv, graph)
                assert set_offending_flows(inv, graph) == expected
                assert verdict.holds == inv.holds(graph) == (not expected)
                assert verdict.offending == (expected or None)
                violated += not verdict.holds
        assert violated >= 100


class TestOffendingFlows:
    def test_transitive_example_two_candidates(self):
        g = PolicyGraph.of({"v1", "v2", "v3"}, {("v1", "v2"), ("v2", "v3")})
        inv = transitive_ban("v1", "v3", g.nodes)
        assert set_offending_flows(inv, g) == frozenset(
            {frozenset({("v1", "v2")}), frozenset({("v2", "v3")})}
        )

    def test_satisfied_invariant_has_no_offending_flows(self):
        g = PolicyGraph.of({"db1", "web"}, {("web", "db1")})
        inv = blp({"db1": 1})
        assert inv.holds(g)
        assert set_offending_flows(inv, g) == frozenset()

    def test_blp_leak_edge(self):
        g = PolicyGraph.of({"db1", "web"}, {("db1", "web")})
        inv = blp({"db1": 1})
        assert set_offending_flows(inv, g) == frozenset({frozenset({("db1", "web")})})

    def test_too_large_for_brute_force(self):
        nodes = {f"n{i}" for i in range(6)}
        edges = {(a, b) for a in nodes for b in nodes if a != b}
        g = PolicyGraph.of(nodes, edges)
        inv = transitive_ban("n0", "n1", nodes)
        assert len(edges) > BRUTE_FORCE_BOUND
        with pytest.raises(TooLargeForBruteForce):
            set_offending_flows(inv, g)

    def test_phi_fast_path_equals_brute_force(self):
        """On small graphs the Phi shortcut and the definition agree."""
        rng = random.Random(3)
        hosts = ["a", "b", "c"]
        for _ in range(80):
            edges = {
                (s, r)
                for s in hosts
                for r in hosts
                if rng.random() < 0.4
            }
            if len(edges) > 6:
                edges = set(sorted(edges)[:6])
            g = PolicyGraph.of(hosts, edges)
            inv = blp({h: rng.randrange(3) for h in hosts})
            assert set_offending_flows(inv, g) == brute_force_offending(inv, g)

    def test_narrowed_upper_bound(self):
        """Offending flows of a shrunk graph stay within the shrunk bound."""
        rng = random.Random(5)
        hosts = ["a", "b", "c"]
        for _ in range(60):
            edges = {(s, r) for s in hosts for r in hosts if rng.random() < 0.4}
            g = PolicyGraph.of(hosts, edges)
            inv = blp({h: rng.randrange(3) for h in hosts})
            union = frozenset()
            for f in set_offending_flows(inv, g):
                union |= f
            removed = {e for e in edges if rng.random() < 0.5}
            g2 = g.delete_edges(removed)
            union2 = frozenset()
            for f in set_offending_flows(inv, g2):
                union2 |= f
            assert union2 <= union - removed


class TestOffenders:
    def test_acs_blames_senders(self):
        assert offenders({("a", "b")}, Strategy.ACS) == {"a"}

    def test_ifs_blames_receivers(self):
        assert offenders({("a", "b")}, Strategy.IFS) == {"b"}

    def test_duplicate_receiver_collapses(self):
        assert offenders({("a", "b"), ("c", "b")}, Strategy.IFS) == {"b"}

    def test_offenders_nonempty_when_violated(self):
        rng = random.Random(11)
        hosts = ["a", "b", "c"]
        for _ in range(60):
            edges = {(s, r) for s in hosts for r in hosts if rng.random() < 0.5}
            g = PolicyGraph.of(hosts, edges)
            inv = blp({h: rng.randrange(3) for h in hosts})
            if inv.holds(g):
                continue
            for f in set_offending_flows(inv, g):
                assert offenders(f, inv.strategy)


class TestMonotonicity:
    def test_random_phi_invariants_are_monotonic(self):
        rng = random.Random(17)
        hosts = ["a", "b", "c", "d"]
        for _ in range(40):
            inv = blp({h: rng.randrange(3) for h in hosts})
            edges = {(s, r) for s in hosts for r in hosts if rng.random() < 0.4}
            g = PolicyGraph.of(hosts, edges)
            if not inv.holds(g):
                continue
            for _ in range(10):
                sub = {e for e in edges if rng.random() < 0.6}
                assert inv.holds(PolicyGraph(g.nodes, frozenset(sub)))

    def test_no_edges_validity(self):
        rng = random.Random(23)
        hosts = ["a", "b", "c"]
        g0 = PolicyGraph.of(hosts, set())
        for template in TEMPLATES.values():
            if not template.has_default:
                continue
            pool = template.attr_pool(hosts)
            for _ in range(10):
                attrs = {h: rng.choice(pool) for h in hosts}
                inv = template.instantiate(attrs)
                assert inv.holds(g0), template.template_id


class TestReports:
    def test_empty_conjunction_is_true(self):
        g = PolicyGraph.of({"a"}, set())
        assert all_hold([], g).overall

    def test_violated_invariant_reported_with_flows(self):
        g = PolicyGraph.of({"db1", "web"}, {("db1", "web")})
        report = all_hold([blp({"db1": 1})], g)
        assert not report.overall
        assert report.verdicts[0].offending == frozenset({frozenset({("db1", "web")})})

    def test_two_holding_invariants(self):
        g = PolicyGraph.of({"a", "b"}, {("a", "b")})
        report = all_hold([blp({}), blp({"b": 1})], g)
        assert report.overall
        assert all(v.holds for v in report.verdicts)

    def test_json_and_dot_outputs(self):
        g = PolicyGraph.of({"db1", "web"}, {("db1", "web")})
        invariants = [blp({"db1": 1})]
        report = all_hold(invariants, g)
        assert '"holds": false' in report.to_json()
        dot = policy_diff(g, invariants, report=report).to_dot(g)
        assert '"db1" -> "web" [style=dashed, color=red]' in dot
