import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

import scenarios as sc
from checkers import (
    HOSTS6,
    NON_PHI_IDS,
    PHI_IDS,
    comm_with_spec,
    random_graph,
    random_library_invariants,
    random_order,
    sorting_dot,
)
from conftest import DATA
from netfence import cli
from netfence.errors import PreconditionViolated, TooLargeForBruteForce
from netfence.invariants import (
    ComplianceReport,
    ConfiguredInvariant,
    GraphState,
    InvariantVerdict,
    all_hold,
    phi_failing_edges,
    set_offending_flows,
)
from netfence.policy import AttrMap, PolicyGraph, Strategy
from netfence.serializer import binding_from_json, emit_iptables
from netfence.stateful import StatefulPolicy, generate_stateful
from netfence.synthesis import (
    ClassRows,
    generate_valid_topology,
    generate_valid_topology3,
    insertion_member,
    minimalize_offending_overapprox,
    policy_diff,
)
from netfence.templates import TEMPLATES, instantiate, load_invariants


def definitional_generate_valid_topology3(invariants, graph):
    """Epsilon-choice construction by definition: minimalize every violated
    invariant's offending flows on the whole graph."""
    removed = set()
    for inv in invariants:
        if inv.holds(graph):
            continue
        removed |= set(minimalize_offending_overapprox(inv, graph.sorted_edges(), [], graph))
    return graph.delete_edges(removed)


def blp(attrs):
    return instantiate("BLPBasic", attrs)


def random_phi_invariants(rng, hosts):
    out = [blp({h: rng.randrange(3) for h in hosts})]
    if rng.random() < 0.5:
        out.append(
            instantiate(
                "SubnetsInGW",
                {h: rng.choice(["Member", "InboundGateway", "Unassigned"]) for h in hosts},
            )
        )
    if rng.random() < 0.5:
        out.append(
            instantiate(
                "Sink",
                {h: rng.choice(["Sink", "SinkPool", "Unassigned"]) for h in hosts},
            )
        )
    return out


class TestGenerateValidTopology:
    def test_blp_removes_only_outgoing_leaks(self):
        hosts = {"db1", "h1", "h2"}
        g = PolicyGraph.of(hosts).allow_all()
        result = generate_valid_topology([blp({"db1": 1})], g)
        removed = g.edges - result.edges
        assert removed == {("db1", "h1"), ("db1", "h2")}

    def test_contradictory_invariants_yield_deny_all(self):
        hosts = {"a", "b"}
        g = PolicyGraph.of(hosts).allow_all()
        contradictory = [
            instantiate("NoRefl", {}),          # forbids reflexive flows
            instantiate("CommPartners", {"a": Master0(), "b": Master0()}),
        ]
        result = generate_valid_topology(contradictory, g)
        assert result.edges == frozenset()

    def test_empty_invariants_keep_graph(self):
        g = PolicyGraph.of({"a", "b"}, {("a", "b")})
        assert generate_valid_topology([], g) == g

    def test_soundness_random(self):
        rng = random.Random(4)
        hosts = ["a", "b", "c", "d"]
        for _ in range(40):
            invs = random_phi_invariants(rng, hosts)
            result = generate_valid_topology(invs, PolicyGraph.of(hosts).allow_all())
            assert all(m.holds(result) for m in invs)

    def test_maximality_for_phi_structured(self):
        rng = random.Random(6)
        hosts = ["a", "b", "c"]
        for _ in range(25):
            invs = random_phi_invariants(rng, hosts)
            full = PolicyGraph.of(hosts).allow_all()
            result = generate_valid_topology(invs, full)
            for e in sorted(full.edges - result.edges):
                bigger = PolicyGraph(result.nodes, result.edges | {e})
                assert not all(m.holds(bigger) for m in invs)

    def test_valid_manual_policy_is_subset_of_maximum(self):
        manual = sc.factory_policy()
        invs = sc.factory_invariants()
        maximum = generate_valid_topology(invs, manual.allow_all())
        assert manual.edges <= maximum.edges


def Master0():
    from netfence.templates import Master

    return Master(())


class TestMinimalize:
    def test_matches_phi_fast_path(self):
        rng = random.Random(8)
        hosts = ["a", "b", "c"]
        for _ in range(40):
            inv = blp({h: rng.randrange(3) for h in hosts})
            edges = {(s, r) for s in hosts for r in hosts if rng.random() < 0.5}
            g = PolicyGraph.of(hosts, edges)
            if inv.holds(g):
                continue
            found = minimalize_offending_overapprox(inv, g.sorted_edges(), [], g)
            (unique,) = set_offending_flows(inv, g)
            assert frozenset(found) == unique

    def test_noninterference_example(self):
        g = PolicyGraph.of(
            {"v1", "v2", "v3", "v4"},
            {("v1", "v2"), ("v1", "v3"), ("v2", "v3"), ("v3", "v4")},
        )
        inv = instantiate(
            "NonInterference",
            {"v1": "Interfering", "v4": "Interfering",
             "v2": "Unrelated", "v3": "Unrelated"},
        )
        found = frozenset(minimalize_offending_overapprox(inv, g.sorted_edges(), [], g))
        assert found in {
            frozenset({("v1", "v2"), ("v1", "v3")}),
            frozenset({("v1", "v3"), ("v2", "v3")}),
            frozenset({("v3", "v4")}),
        }
        # and it is one member of the definitional offending-flow set
        assert found in set_offending_flows(inv, g)

    def test_error_when_invariant_holds(self):
        g = PolicyGraph.of({"a", "b"}, {("a", "b")})
        with pytest.raises(PreconditionViolated):
            minimalize_offending_overapprox(blp({}), g.sorted_edges(), [], g)

    def test_edge_order_steers_choice(self):
        g = PolicyGraph.of({"v1", "v2", "v3"}, {("v1", "v2"), ("v2", "v3")})
        from test_invariants import transitive_ban

        inv = transitive_ban("v1", "v3", g.nodes)
        first = minimalize_offending_overapprox(
            inv, [("v1", "v2"), ("v2", "v3")], [], g
        )
        second = minimalize_offending_overapprox(
            inv, [("v2", "v3"), ("v1", "v2")], [], g
        )
        assert first != second


class TestGenerateValidTopology3:
    def test_equals_generate_on_phi_instances(self):
        rng = random.Random(10)
        hosts = ["a", "b", "c"]
        for _ in range(30):
            invs = random_phi_invariants(rng, hosts)
            full = PolicyGraph.of(hosts).allow_all()
            assert generate_valid_topology3(invs, full) == generate_valid_topology(
                invs, full
            )

    def test_factory_with_noninterference_terminates_and_is_valid(self):
        invs = sc.factory_invariants() + [sc.factory_noninterference()]
        full = sc.factory_policy().allow_all()
        result = generate_valid_topology3(invs, full)
        assert all(m.holds(result) for m in invs)

    def test_empty_invariants(self):
        g = PolicyGraph.of({"a"}, {("a", "a")})
        assert generate_valid_topology3([], g) == g

    def test_superset_of_generate(self):
        invs = sc.factory_invariants() + [sc.factory_noninterference()]
        full = sc.factory_policy().allow_all()
        eps = generate_valid_topology3(invs, full)
        # the plain algorithm cannot even run here (NonInterference explodes),
        # so compare against the Phi-only subset
        phi_only = generate_valid_topology(sc.factory_invariants(), full)
        assert eps.edges <= phi_only.edges

    def test_epsilon_choice_keeps_at_least_as_many_edges(self):
        """edges(generate) is a subset of edges(generate3) on every tested
        instance, including non-Phi invariants inside the brute-force bound."""
        from netfence.templates import HostSet

        rng = random.Random(12)
        hosts = ["a", "b", "c"]
        for _ in range(30):
            invs = random_phi_invariants(rng, hosts)
            invs.append(
                instantiate(
                    "NotCommWith",
                    {h: HostSet(frozenset(x for x in hosts if rng.random() < 0.3))
                     for h in hosts},
                )
            )
            full = PolicyGraph.of(hosts).allow_all()
            plain = generate_valid_topology(invs, full)
            eps = generate_valid_topology3(invs, full)
            assert plain.edges <= eps.edges
            assert all(m.holds(eps) for m in invs)


class TestPhiShortcut:
    """generate_valid_topology3 takes a Phi-structured invariant's failing
    edges without minimalizing; on random graphs of up to six nodes they
    are what minimalize finds, and the construction equals the
    definitional one for Phi, non-Phi and mixed invariant sets."""

    def test_phi_failing_edges_equal_minimalize(self):
        rng = random.Random(14)
        checked = 0
        for _ in range(200):
            graph = random_graph(rng, 20)
            for inv in random_library_invariants(rng, graph.sorted_nodes(), "phi"):
                if inv.holds(graph):
                    assert not phi_failing_edges(inv, graph.edges)
                    continue
                found = minimalize_offending_overapprox(inv, graph.sorted_edges(), [], graph)
                assert set(found) == phi_failing_edges(inv, graph.edges)
                checked += 1
        assert checked >= 100

    @pytest.mark.parametrize("kind", ["phi", "nonphi", "mixed"])
    def test_construction_equals_definitional(self, kind):
        rng = random.Random(f"construct-{kind}")
        for _ in range(100):
            graph = random_graph(rng, 36 if kind == "phi" else 14)
            if rng.random() < 0.3:
                graph = graph.allow_all()
            invs = random_library_invariants(rng, graph.sorted_nodes(), kind)
            assert generate_valid_topology3(invs, graph) == definitional_generate_valid_topology3(
                invs, graph
            )


def random_template_invariant(rng, template_id, graph):
    template = TEMPLATES[template_id]
    hosts = graph.sorted_nodes()
    pool = template.attr_pool(hosts)
    return template.instantiate({h: rng.choice(pool) for h in hosts if rng.random() < 0.7})


class TestInsertionMember:
    """insertion_member grows the graph edge by edge on the invariant's
    incremental state and must find minimalize's member from the sorted
    edges.  Checked per non-Phi template on random graphs of up to six
    nodes (self-loops and allow-all graphs included), and on the
    benchmark's CommWith specification shape past the brute-force bound."""

    @pytest.mark.parametrize("template_id", NON_PHI_IDS)
    def test_equals_minimalize(self, template_id):
        rng = random.Random(f"insertion-{template_id}")
        violated = 0
        for case in range(300):
            graph = random_graph(rng, 36)
            if case % 4 == 0:
                graph = graph.allow_all()
            inv = random_template_invariant(rng, template_id, graph)
            if inv.holds(graph):
                assert insertion_member(inv, graph) == []  # minimalize refuses these
                continue
            expected = minimalize_offending_overapprox(inv, graph.sorted_edges(), [], graph)
            assert insertion_member(inv, graph) == expected, (graph, inv)
            violated += 1
        assert violated >= 100

    @pytest.mark.parametrize("template_id", NON_PHI_IDS)
    def test_state_agrees_with_whole_graph_evaluation(self, template_id):
        """holds_with on single edges and on edge-backflow pairs, with and
        without committing, including after an add broke the invariant."""
        rng = random.Random(f"state-{template_id}")
        broken = 0
        for _ in range(150):
            graph = random_graph(rng, 0)
            inv = random_template_invariant(rng, template_id, graph)
            state, definitional = inv.state(graph.nodes), GraphState(inv, graph.nodes)
            assert type(state) is not GraphState
            for e in random_order(rng, graph.allow_all(), 0):
                added = (e, e[::-1]) if rng.random() < 0.5 else (e,)
                assert state.holds_with(added) == definitional.holds_with(added), (inv, added)
                if rng.random() < 0.7:
                    state.add(added)
                    definitional.add(added)
            broken += not definitional.holds_with(())
        assert broken >= 30

    def test_invariant_without_a_state_is_evaluated_on_whole_graphs(self):
        from test_invariants import transitive_ban

        g = PolicyGraph.of({"v1", "v2", "v3"}, {("v1", "v2"), ("v2", "v3"), ("v1", "v3")})
        inv = transitive_ban("v1", "v3", g.nodes)
        assert type(inv.state(g.nodes)) is GraphState
        assert insertion_member(inv, g) == minimalize_offending_overapprox(
            inv, g.sorted_edges(), [], g)
        never = ConfiguredInvariant("never", Strategy.ACS, lambda graph: False, AttrMap({}, None))
        with pytest.raises(PreconditionViolated):
            minimalize_offending_overapprox(never, g.sorted_edges(), [], g)
        with pytest.raises(PreconditionViolated):
            insertion_member(never, g)

    @pytest.mark.parametrize("hosts", [25, 40])
    def test_comm_with_specs_past_the_bound(self, hosts):
        """The whole construction against its definition at 25 hosts; at 40
        hosts the definition's Phi members alone take seconds, so the
        CommWith member is compared by itself (TestPhiShortcut covers the
        Phi members)."""
        names = [f"n{i:03d}" for i in range(hosts)]
        invs = load_invariants(json.dumps(comm_with_spec(random.Random(hosts), names)))
        full = PolicyGraph.of(names).allow_all()
        if hosts > 25:
            invs = [inv for inv in invs if inv.template_id == "CommWith"]
        constructed = generate_valid_topology3(invs, full)
        assert constructed == definitional_generate_valid_topology3(invs, full)
        assert constructed.edges and len(full.edges) - len(constructed.edges) > 16

    def test_at_most_one_holds_call_per_non_phi_invariant(self, monkeypatch):
        calls = Counter()
        holds = ConfiguredInvariant.holds

        def counted(inv, graph):
            calls[id(inv)] += 1
            return holds(inv, graph)

        monkeypatch.setattr(ConfiguredInvariant, "holds", counted)
        rng = random.Random("holds-calls")
        names = [f"n{i:03d}" for i in range(25)]
        specs = [(load_invariants(json.dumps(comm_with_spec(rng, names))),
                  PolicyGraph.of(names).allow_all())]
        for _ in range(50):
            graph = random_graph(rng, 36)
            specs.append((random_library_invariants(rng, graph.sorted_nodes(), "mixed"), graph))
        for invs, graph in specs:
            calls.clear()
            generate_valid_topology3(invs, graph)
            assert all(calls[id(inv)] <= (inv.phi is None) for inv in invs), calls


class TestMaximumPolicy:
    """ClassRows equals its definition, generate_valid_topology on the
    allow-all graph, on random invariant sets over up to six nodes,
    and raises TooLargeForBruteForce in the same cases.  Non-Phi sets skip
    four nodes, whose 16-edge allow-all graph is the slowest brute force
    within the bound."""

    @pytest.mark.parametrize("kind", ["phi", "nonphi", "mixed"])
    def test_equals_definition(self, kind):
        rng = random.Random(f"maximum-{kind}")
        sizes = (2, 3, 4, 5, 6) if kind == "phi" else (2, 3, 5, 6)
        outcomes = set()
        for _ in range(100):
            nodes = HOSTS6[: rng.choice(sizes)]
            invs = random_library_invariants(rng, nodes, kind)
            try:
                expected = generate_valid_topology(invs, PolicyGraph.of(nodes).allow_all())
            except TooLargeForBruteForce:
                with pytest.raises(TooLargeForBruteForce):
                    ClassRows(invs, nodes)
                outcomes.add("raised")
                continue
            assert ClassRows(invs, nodes) == expected.edges
            outcomes.add("equal")
        assert outcomes == ({"equal"} if kind == "phi" else {"equal", "raised"})

    def test_non_phi_past_the_bound_raises_before_any_phi_work(self):
        phi_calls = Counter()
        blp_inv = blp({"a": 1, "b": 2})

        def counted_phi(*args):
            phi_calls["phi"] += 1
            return blp_inv.phi(*args)

        counted = replace(blp_inv, phi=counted_phi)
        comm = instantiate("CommWith", {"a": ("b",)})
        with pytest.raises(TooLargeForBruteForce, match="CommWith: 25 edges"):
            ClassRows([counted, comm], HOSTS6[:5])
        assert not phi_calls
        assert ClassRows([counted, comm], HOSTS6[:3]) == generate_valid_topology(
            [blp_inv, comm], PolicyGraph.of(HOSTS6[:3]).allow_all()).edges

    def test_membership_equals_the_edge_set(self):
        """ClassRows decides `in` from class_of, reach and refl as set(rows)
        decides it, on random Phi, mixed, non-Phi and name-reading specs
        and class_spec's, for every pair of the nodes and of hosts outside
        them."""
        rng = random.Random("maximum-contains")
        kinds, verdicts = Counter(), set()
        for i in range(150):
            kind = ("phi", "mixed", "nonphi", "names", "classes")[i % 5]
            if kind == "classes":
                nodes = verify_hosts(rng)
                invs = class_spec(rng, PHI_IDS[i % len(PHI_IDS)], nodes)
            else:
                nodes = HOSTS6[: rng.choice((2, 3) if kind in ("mixed", "nonphi") else (2, 4, 6))]
                invs = random_library_invariants(rng, nodes, "phi" if kind == "names" else kind)
                if kind == "names":
                    invs.append(names_phi_invariant(nodes))
            rows = ClassRows(invs, nodes)
            edges = set(rows)
            assert len(rows) == len(edges)
            hosts = [*nodes, "zz", "0"]  # the last two are outside the nodes
            for e in product(hosts, hosts):
                assert (e in rows) == (e in edges), (kind, e)
                verdicts.add((e[0] == e[1], e in edges))
            kinds[kind] += 1
        assert verdicts == set(product((False, True), repeat=2))
        assert len(kinds) == 5

    def test_without_counts_on_first_len(self, monkeypatch):
        """rows.without(other) makes no membership test while its rows are
        read, as the DOT writers read them; its first len() then equals
        len(set(rest)), on random Phi, mixed and non-Phi specs."""
        rng = random.Random("without-len")
        tests = []
        contains = ClassRows.__contains__
        monkeypatch.setattr(ClassRows, "__contains__",
                            lambda self, e: tests.append(e) or contains(self, e))
        for i in range(90):
            kind = ("phi", "mixed", "nonphi")[i % 3]
            nodes = HOSTS6[: rng.choice((2, 3) if kind != "phi" else (2, 4, 6))]
            rows = ClassRows(random_library_invariants(rng, nodes, kind), nodes)
            hosts = [*nodes, "zz"]
            pairs = list(product(hosts, hosts))
            other = set(rng.sample(pairs, rng.randint(0, len(pairs))))
            tests.clear()
            rest = rows.without(other)
            assert [e for e in rest] == sorted(set(rows) - other)  # list() would ask len()
            assert [rest.row(s) for s in hosts] == [
                sorted(r for t, r in set(rows) - other if t == s) for s in hosts]
            assert not tests
            assert len(rest) == len(set(rest)) == len(set(rows) - other)
            assert len(tests) == len(other)


def class_spec(rng, template_id, hosts):
    """`template_id`'s invariant over `hosts` plus up to two other random
    Phi templates', attributes drawn from each pool.  In the first one,
    hosts[0] alone has an attribute that is not the default, and the last
    two hosts are left out of every attribute map."""
    ids = [template_id] + [rng.choice(PHI_IDS) for _ in range(rng.randrange(3))]
    mapped = hosts[:-2]
    invs = []
    for i, tid in enumerate(ids):
        template = TEMPLATES[tid]
        pool = template.attr_pool(hosts)
        attrs = {h: rng.choice(pool) for h in mapped if rng.random() < 0.8}
        if i == 0:
            solo = rng.choice([a for a in pool if a != template.default()])
            attrs = {h: a for h, a in attrs.items() if a != solo}
            attrs[hosts[0]] = solo
        invs.append(template.instantiate(attrs))
    return invs


def names_phi_invariant(hosts):
    """A hand-built Phi invariant whose phi reads the host names: s may
    reach r when s sorts before r or their attributes are equal.  It keeps
    the default phi_reads_names."""
    amap = AttrMap({h: i % 2 for i, h in enumerate(hosts)}, 0)

    def phi(attr_s, s, attr_r, r):
        return s < r or attr_s == attr_r

    def eval_fn(graph):
        return not phi_failing_edges(inv, graph.edges)

    inv = ConfiguredInvariant("names", Strategy.ACS, eval_fn, amap, phi=phi)
    return inv


class TestMaximumPolicyOnClasses:
    """ClassRows decides each phi at most once per pair of classes
    of hosts with equal attributes; against its definition on 20 to 40
    hosts whose attributes come from the templates' small pools, so that
    most classes have many members, one host is alone in its class, and
    two hosts have only default attributes."""

    @pytest.mark.parametrize("template_id", PHI_IDS)
    def test_equals_definition(self, template_id):
        rng = random.Random(f"classes-{template_id}")
        sizes = Counter()
        for _ in range(12):
            hosts = [f"h{i:02d}" for i in range(rng.randint(20, 40))]
            rng.shuffle(hosts)
            invs = class_spec(rng, template_id, hosts)
            expected = generate_valid_topology(invs, PolicyGraph.of(hosts).allow_all())
            assert ClassRows(invs, hosts) == expected.edges
            keys = Counter(tuple(inv.attr_map(h) for inv in invs) for h in hosts)
            sizes.update(min(n, 3) for n in keys.values())
        assert sizes[1] and sizes[3], sizes

    def test_invariant_whose_phi_reads_names(self):
        rng = random.Random("classes-names")
        for _ in range(10):
            hosts = [f"h{i:02d}" for i in range(rng.randint(20, 40))]
            inv = names_phi_invariant(hosts)
            assert inv.phi_reads_names
            for invs in ([inv], [inv] + class_spec(rng, rng.choice(PHI_IDS), hosts)):
                expected = generate_valid_topology(invs, PolicyGraph.of(hosts).allow_all())
                assert ClassRows(invs, hosts) == expected.edges


def definitional_policy_diff(manual, invariants):
    """policy_diff by definition: each invariant's set_offending_flows on
    the manual policy, and the absent flows of the maximum policy
    generate_valid_topology(..., allow_all())."""
    violating = set()
    for inv in invariants:
        for flow_set in set_offending_flows(inv, manual):
            violating |= flow_set
    maximum = generate_valid_topology(invariants, manual.allow_all())
    return (frozenset(manual.edges - violating), frozenset(violating),
            frozenset(maximum.edges - manual.edges))


class TestPolicyDiff:
    @pytest.mark.parametrize("kind", ["phi", "nonphi", "mixed"])
    def test_shared_report_equals_definition(self, kind):
        """With or without ClassRows and all_hold's report, policy_diff
        gives the definitional sets, and raises TooLargeForBruteForce in
        the same cases: a non-Phi invariant violated past the bound, on the
        manual policy or on the allow-all graph of the maximum.  Graphs
        have up to five edges, or 22 to exceed the bound; non-Phi sets skip
        four nodes, as TestMaximumPolicy does."""
        rng = random.Random(f"diff-{kind}")
        outcomes = set()
        for _ in range(150):
            if rng.random() < 0.2:
                full = PolicyGraph.of(HOSTS6[:5]).allow_all()
                manual = full.delete_edges(rng.sample(full.sorted_edges(), 3))
            else:
                sizes = (2, 3, 4, 5, 6) if kind == "phi" else (2, 3, 5, 6)
                nodes = HOSTS6[: rng.choice(sizes)]
                pairs = [(s, r) for s in nodes for r in nodes]
                manual = PolicyGraph.of(nodes, rng.sample(pairs, min(rng.randint(0, 5), len(pairs))))
            invs = random_library_invariants(rng, manual.sorted_nodes(), kind)
            try:
                expected = definitional_policy_diff(manual, invs)
            except TooLargeForBruteForce:
                for report in (None, all_hold(invs, manual)):
                    with pytest.raises(TooLargeForBruteForce):
                        policy_diff(manual, invs, report=report)
                outcomes.add("raised")
                continue
            maximum = ClassRows(invs, manual.nodes)
            for report in (None, all_hold(invs, manual), all_hold(invs, manual, maximum.class_of)):
                for given in (None, maximum):
                    diff = policy_diff(manual, invs, given, report)
                    assert (diff.kept, diff.violating, diff.absent) == expected
            outcomes.add("violating" if expected[1] else "clean")
        assert outcomes >= {"violating", "clean"}
        assert ("raised" in outcomes) == (kind != "phi")

    def test_factory_absent_flows(self):
        manual = sc.factory_policy()
        diff = policy_diff(manual, sc.factory_invariants())
        assert not diff.violating
        assert ("MissionControl1", "MissionControl2") in diff.absent
        assert ("SensorSink", "Webcam") in diff.absent
        for h in sc.FACTORY_HOSTS:
            assert (h, h) in diff.absent  # reflexive flows are never specified

    def test_max_policy_diffs_to_nothing(self):
        invs = sc.factory_invariants()
        maximum = generate_valid_topology(invs, sc.factory_policy().allow_all())
        diff = policy_diff(maximum, invs)
        assert not diff.violating and not diff.absent
        assert diff.kept == maximum.edges

    def test_leak_edge_is_violating(self):
        g = PolicyGraph.of({"db1", "web"}, {("db1", "web")})
        diff = policy_diff(g, [blp({"db1": 1})])
        assert diff.violating == {("db1", "web")}
        assert not diff.kept

    def test_report_sets_are_disjoint(self):
        manual = sc.factory_policy()
        diff = policy_diff(manual, sc.factory_invariants())
        assert not diff.kept & diff.violating
        assert not diff.kept & diff.absent
        assert not diff.violating & diff.absent

    def test_dot_styles(self):
        g = PolicyGraph.of({"db1", "web"}, {("db1", "web")})
        diff = policy_diff(g, [blp({"db1": 1})])
        dot = diff.to_dot(g)
        assert "color=red" in dot and "color=gray" in dot


def definitional_verify(manual, invariants):
    """What `synthesize --verify` writes, by definition: verify.json from
    each invariant's set_offending_flows, diff.dot by checkers.sorting_dot
    over the maximum policy generate_valid_topology(..., allow_all()), and
    the verify: line."""
    report = ComplianceReport()
    violating = set()
    for inv in invariants:
        offending = set_offending_flows(inv, manual)
        report.verdicts.append(InvariantVerdict(inv.template_id, inv.strategy,
                                                offending == frozenset(), offending or None))
        for flow_set in offending:
            violating |= flow_set
    absent = generate_valid_topology(invariants, manual.allow_all()).edges - manual.edges
    attrs = {**dict.fromkeys(violating, "style=dashed, color=red"),
             **dict.fromkeys(absent, "style=dashed, color=gray")}
    dot = sorting_dot(manual.nodes, manual.edges | absent, attrs)
    line = (f"verify: {'OK' if report.overall else 'VIOLATED'}; "
            f"{len(violating)} violating, {len(absent)} absent flows")
    return report.to_json(), dot, line


def verify_hosts(rng):
    """12 to 30 host names, one holding `"` and one `\\`, shuffled."""
    hosts = [f"h{i:02d}" for i in range(rng.randint(10, 28))] + ['q"uote', "back\\slash"]
    rng.shuffle(hosts)
    return hosts


def verify_policy(rng, hosts, invariants):
    """A policy over `hosts` with a few reflexive edges and some hosts
    without edges: either random edges, or a part of the maximum policy."""
    senders = rng.sample(hosts, len(hosts) * 2 // 3)
    if rng.random() < 0.3:
        maximum = sorted(ClassRows(invariants, hosts))
        edges = [e for e in maximum if e[0] in senders and rng.random() < 0.5]
    else:
        edges = [(s, rng.choice(hosts)) for s in senders for _ in range(rng.randint(1, 4))]
        edges += [(h, h) for h in rng.sample(hosts, 3)]
    return PolicyGraph.of(hosts, edges)


class TestVerifyOnClasses:
    """`synthesize --verify --construct` on host classes writes what the
    definition writes: verify.json, diff.dot, the verify: line and, when
    the policy verifies, policy.json and policy.dot.  Specs are random
    library Phi specs, class_spec's (a singleton class and two hosts with
    default attributes only), and those plus a phi that reads names; every
    norefl template takes part.  Policies have reflexive edges, hosts
    without edges and names that need DOT escapes."""

    def verify(self, tmp_path, monkeypatch, manual, invariants, flags=("--verify", "--construct")):
        # the CLI reads the spec file, then takes `invariants` in its place
        monkeypatch.setattr(cli, "load_invariants", lambda text: invariants)
        tmp_path.mkdir()
        (tmp_path / "spec.json").write_text("[]")
        (tmp_path / "policy.json").write_text(manual.to_json())
        out = tmp_path / "out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["synthesize", "--invariants", str(tmp_path / "spec.json"),
                             "--policy", str(tmp_path / "policy.json"), *flags,
                             "--out-dir", str(out)])
        if "--verify" in flags:
            report, dot, line = definitional_verify(manual, invariants)
            assert (out / "verify.json").read_text() == report
            assert (out / "diff.dot").read_text() == dot
            assert stdout.getvalue().splitlines()[0] == line
            assert code == (0 if line.startswith("verify: OK") else 2)
        else:
            assert code == 0
        assert (out / "policy.json").exists() == (code == 0 and "--construct" in flags)
        if code == 0 and "--construct" in flags:
            maximum = generate_valid_topology(invariants, manual.allow_all())
            assert (out / "policy.json").read_text() == maximum.to_json()
            assert (out / "policy.dot").read_text() == sorting_dot(maximum.nodes, maximum.edges)
            assert stdout.getvalue().splitlines()[-1] == \
                f"constructed policy with {len(maximum.edges)} flows"
        return code

    @pytest.mark.parametrize("kind", ["library", "classes", "names"])
    def test_equals_definition(self, tmp_path, monkeypatch, kind):
        rng = random.Random(f"verify-classes-{kind}")
        codes, templates = Counter(), set()
        for i in range(25):
            hosts = verify_hosts(rng)
            if kind == "library":
                invs = random_library_invariants(rng, hosts, "phi")
            else:
                invs = class_spec(rng, PHI_IDS[i % len(PHI_IDS)], hosts)
                if kind == "names":
                    invs.insert(rng.randrange(len(invs) + 1), names_phi_invariant(hosts))
            templates.update(inv.template_id for inv in invs if inv.norefl)
            manual = verify_policy(rng, hosts, invs)
            codes[self.verify(tmp_path / str(i), monkeypatch, manual, invs)] += 1
        assert set(codes) == {0, 2}, codes
        if kind == "classes":
            assert templates == {t for t in PHI_IDS if TEMPLATES[t].norefl}

    @pytest.mark.parametrize("kind", ["mixed", "nonphi"])
    def test_non_phi_specs_within_the_bound(self, tmp_path, monkeypatch, kind):
        """Specs with a non-Phi invariant, over two or three hosts whose
        allow-all graph is within the brute-force bound, so that ClassRows
        evaluates the definition and holds each host as its own class;
        run with --verify, --verify --construct and --construct alone."""
        rng = random.Random(f"verify-bound-{kind}")
        codes = Counter()
        for i in range(20):
            hosts = ["a", 'q"uote', "back\\slash"][: rng.choice((2, 3))]
            rng.shuffle(hosts)
            invs = random_library_invariants(rng, hosts, kind)
            manual = random_graph(rng, 5, hosts)
            for j, flags in enumerate((["--verify"], ["--verify", "--construct"],
                                       ["--construct"])):
                codes[self.verify(tmp_path / f"{i}-{j}", monkeypatch, manual, invs, flags)] += 1
        assert set(codes) == {0, 2}, codes

    def test_all_hold_decides_each_class_pair_once(self):
        """all_hold with ClassRows' class ids calls each phi at most once
        per (class, class) pair that holds an edge, plus once per
        reflexive edge, and reports what it reports without them."""
        rng = random.Random("verify-classes-calls")
        for _ in range(20):
            hosts = verify_hosts(rng)
            calls = Counter()

            def counted(i, inv):
                def phi(*args):
                    calls[i] += 1
                    return inv.phi(*args)
                return replace(inv, phi=phi)

            invs = class_spec(rng, rng.choice(PHI_IDS), hosts)
            manual = verify_policy(rng, hosts, invs)
            rows = ClassRows(invs, hosts)
            pairs = {(rows.class_of[s], rows.class_of[r]) for s, r in manual.edges if s != r}
            loops = sum(s == r for s, r in manual.edges)
            report = all_hold([counted(*c) for c in enumerate(invs)], manual, rows.class_of)
            assert report.to_json() == all_hold(invs, manual).to_json()
            assert all(n <= len(pairs) + loops for n in calls.values()), (calls, len(pairs))


class TestConstructWithoutPolicy:
    """`synthesize --construct` without --policy, alone, with --stateful
    and with --stateful --emit-iptables, writes what the definition writes:
    generate_valid_topology on the allow-all graph, held as a frozenset
    PolicyGraph, through policy.json and policy.dot written as json.dumps
    and checkers.sorting_dot write them, generate_stateful and
    emit_iptables.  Specs are random library Phi specs and class_spec's
    over hosts whose names need DOT escapes; maximum policies have
    reflexive edges."""

    FLAGS = (["--construct"], ["--construct", "--stateful"],
             ["--construct", "--stateful", "--emit-iptables"])

    def run(self, tmp_path, monkeypatch, invariants, hosts, flags):
        monkeypatch.setattr(cli, "load_invariants", lambda text: invariants)
        tmp_path.mkdir()
        (tmp_path / "spec.json").write_text("[]")
        spec = {h: {"iface": f"eth{i % 3}", "ips": [f"10.0.{i}.1"]} for i, h in enumerate(hosts)}
        (tmp_path / "binding.json").write_text(json.dumps(spec))
        argv = ["synthesize", "--invariants", str(tmp_path / "spec.json"), *flags]
        if "--emit-iptables" in flags:
            argv.append(str(tmp_path / "binding.json"))
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--out-dir", str(out)]) == 0
        files = {p.name: p.read_text() for p in out.iterdir()}
        return files, binding_from_json(spec)

    def expected(self, invariants, flags, binding):
        nodes = {h for inv in invariants for h in inv.attr_map.partial}
        maximum = generate_valid_topology(invariants, PolicyGraph.of(nodes).allow_all())
        assert isinstance(maximum.edges, frozenset)
        edges = sorted(maximum.edges)
        files = {"policy.json": json.dumps({"nodes": sorted(nodes),
                                            "edges": [list(e) for e in edges]}, indent=2),
                 "policy.dot": sorting_dot(nodes, edges)}
        t = StatefulPolicy(maximum.nodes, maximum.edges, frozenset())
        if "--stateful" in flags:
            t = generate_stateful(maximum, invariants)
            files["stateful.json"] = json.dumps({
                "nodes": sorted(nodes), "flows": [list(e) for e in edges],
                "stateful": [list(e) for e in sorted(t.stateful)]}, indent=2)
            files["stateful.dot"] = sorting_dot(nodes, edges,
                                                dict.fromkeys(t.stateful, "style=dashed"))
        if "--emit-iptables" in flags:
            files["ruleset.iptables"] = emit_iptables(t, binding)
        return files

    @pytest.mark.parametrize("kind", ["library", "classes"])
    def test_equals_definition(self, tmp_path, monkeypatch, kind):
        rng = random.Random(f"construct-{kind}")
        reflexive = stateful = 0
        for i in range(12):
            hosts = verify_hosts(rng)
            if kind == "library":
                invs = random_library_invariants(rng, hosts, "phi")
            else:
                invs = class_spec(rng, PHI_IDS[i % len(PHI_IDS)], hosts)
            if not any(inv.attr_map.partial for inv in invs):
                continue
            for j, flags in enumerate(self.FLAGS):
                files, binding = self.run(tmp_path / f"{i}-{j}", monkeypatch, invs, hosts, flags)
                expected = self.expected(invs, flags, binding)
                assert files == expected, flags
            reflexive += any(s == r for s, r in json.loads(files["policy.json"])["edges"])
            stateful += "style=dashed" in files["stateful.dot"]
        assert reflexive and stateful

    def test_stateful_and_emission_get_the_class_rows(self, tmp_path, monkeypatch):
        """The maximum policy reaches generate_stateful as the graph over
        the ClassRows object the CLI built, and emit_iptables as flows that
        are that object, with --stateful and without."""
        built, seen = [], []

        def class_rows(invariants, nodes):
            built.append(ClassRows(invariants, nodes))
            return built[-1]

        def stateful(graph, invariants):
            seen.append(graph.edges)
            return generate_stateful(graph, invariants)

        def emit(t, binding):
            seen.append(t.flows)
            return emit_iptables(t, binding)

        monkeypatch.setattr(cli, "ClassRows", class_rows)
        monkeypatch.setattr(cli, "generate_stateful", stateful)
        monkeypatch.setattr(cli, "emit_iptables", emit)
        for flags in (["--stateful"], []):
            built.clear()
            seen.clear()
            argv = ["synthesize", "--invariants", str(DATA / "factory_invariants.json"),
                    "--construct", *flags, "--emit-iptables", str(DATA / "factory_binding.json"),
                    "--out-dir", str(tmp_path / "out")]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            assert len(built) == 1 and len(seen) == 1 + len(flags)
            assert all(edges is built[0] for edges in seen)
