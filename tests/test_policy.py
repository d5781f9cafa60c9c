import json
import random
import re

import pytest

import scenarios as sc
from checkers import random_library_invariants, sorting_dot
from netfence.cli import main
from netfence.errors import DanglingEndpoint, UnknownHost
from netfence.policy import (
    AttrMap,
    PolicyGraph,
    backflows,
    reachable,
    succ_tran,
    undirected_adjacency,
)
from netfence.stateful import StatefulPolicy, generate_stateful
from netfence.synthesis import DiffReport, maximum_policy, policy_diff


class TestGraphValidation:
    def test_well_formed(self):
        PolicyGraph.of({"a", "b"}, {("a", "b")})

    def test_dangling_endpoint(self):
        with pytest.raises(DanglingEndpoint) as exc:
            PolicyGraph.of({"a"}, {("a", "c")})
        assert exc.value.host == "c"

    def test_empty_graph(self):
        g = PolicyGraph.of(set(), set())
        assert not g.nodes and not g.edges


class TestAttrMap:
    def test_explicit_entry(self):
        m = AttrMap({"db1": "confidential"}, "unclassified")
        assert m.lookup("db1") == "confidential"

    def test_default_fallback(self):
        m = AttrMap({"db1": "confidential"}, "unclassified")
        assert m.lookup("v1") == "unclassified"

    def test_empty_partial_map(self):
        m = AttrMap({}, "x")
        assert m("anyhost") == "x"


class TestReachability:
    def test_chain(self):
        g = PolicyGraph.of({"a", "b", "c"}, {("a", "b"), ("b", "c")})
        assert succ_tran(g, "a") == {"b", "c"}

    def test_reflexive_edge(self):
        g = PolicyGraph.of({"a"}, {("a", "a")})
        assert succ_tran(g, "a") == {"a"}

    def test_isolated_node(self):
        g = PolicyGraph.of({"a", "b"}, set())
        assert succ_tran(g, "a") == set()

    def test_unknown_host(self):
        g = PolicyGraph.of({"a"}, set())
        with pytest.raises(UnknownHost):
            succ_tran(g, "zz")

    def test_undirected_excludes_self(self):
        g = PolicyGraph.of({"a", "b"}, {("a", "b")})
        assert reachable(undirected_adjacency(g.edges), "b") - {"b"} == {"a"}

    def test_backflows(self):
        assert backflows({("a", "b")}) == {("b", "a")}
        assert backflows(set()) == set()
        assert backflows({("a", "b"), ("b", "a")}) == {("a", "b"), ("b", "a")}


class TestSerialization:
    def test_json_roundtrip(self):
        g = PolicyGraph.of({"a", "b", "c"}, {("a", "b"), ("c", "a")})
        assert PolicyGraph.from_json(g.to_json()) == g

    def test_dot_edge_attrs(self):
        g = PolicyGraph.of({"a", "b"}, {("a", "b")})
        dot = g.to_dot([({("a", "b")}, "style=dashed, color=red")])
        assert '"a" -> "b" [style=dashed, color=red];' in dot

    def test_deterministic_ordering(self):
        g1 = PolicyGraph.of(["b", "a"], [("b", "a"), ("a", "b")])
        g2 = PolicyGraph.of(["a", "b"], [("a", "b"), ("b", "a")])
        assert g1.to_json() == g2.to_json()
        assert g1.to_dot() == g2.to_dot()


# names whose sorted order differs from a naive one: case, digits, spaces, non-ASCII
DOT_NAMES = ("a", "B", "a b", "\u00e4", "10", "9", "a-1", "Z", "ab", "b")
DOT_ID = r'"((?:[^"\\]|\\.)*)"'


def random_dot_graph(rng):
    """A graph over zero to ten of DOT_NAMES, some without edges."""
    nodes = rng.sample(DOT_NAMES, rng.randint(0, len(DOT_NAMES)))
    pairs = [(s, r) for s in nodes for r in nodes]
    return PolicyGraph.of(nodes, rng.sample(pairs, rng.randint(0, len(pairs) // 2)))


def parse_dot(text):
    """(node names, {edge: attribute or None}) of a DOT digraph whose lines
    each hold one statement and whose IDs are quoted; a line of any other
    form fails the test."""
    lines = text.splitlines()
    assert lines[0] == "digraph policy {" and lines[-1] == "}", text
    nodes, edges = [], {}
    for line in lines[1:-1]:
        node = re.fullmatch(rf"  {DOT_ID};", line)
        edge = re.fullmatch(rf"  {DOT_ID} -> {DOT_ID}(?: \[([^\]]*)\])?;", line)
        assert node or edge, line
        names = [re.sub(r"\\(.)", r"\1", n) for n in (node or edge).groups()[:2] if n is not None]
        if node:
            nodes.extend(names)
        else:
            edges[tuple(names)] = edge.group(3)
    return nodes, edges


class TestDotWriter:
    """The row writer against the tuple-sorting one (checkers.sorting_dot)
    for the policy, diff and stateful DOT outputs, and the quoting of
    names that hold `"` or `\\`."""

    def test_policy_graphs(self):
        rng = random.Random("dot-policy")
        for _ in range(200):
            g = random_dot_graph(rng)
            styled = rng.sample(g.sorted_edges(), len(g.edges) // 3)
            attrs = {e: rng.choice(("style=dashed", "color=red")) for e in styled}
            assert g.to_dot() == sorting_dot(g.nodes, g.edges)
            styles = [({e for e in styled if attrs[e] == a}, a)
                      for a in ("style=dashed", "color=red")]
            assert g.to_dot(styles) == sorting_dot(g.nodes, g.edges, attrs)

    def test_later_style_wins_and_adds_edges(self):
        g = PolicyGraph.of({"a", "b"}, {("a", "b")})
        dot = g.to_dot([({("a", "b"), ("b", "a")}, "color=red"), ({("b", "a")}, "color=gray")])
        assert dot == sorting_dot(g.nodes, {("a", "b"), ("b", "a")},
                                  {("a", "b"): "color=red", ("b", "a"): "color=gray"})

    def test_diffs(self):
        rng = random.Random("dot-diff")
        for i in range(150):
            manual = random_dot_graph(rng)
            if i % 2:
                invs = random_library_invariants(rng, manual.sorted_nodes(), "phi")
                diff = policy_diff(manual, invs, maximum_policy(invs, manual.nodes))
            else:
                edges = manual.sorted_edges()
                violating = set(rng.sample(edges, len(edges) // 3))
                outside = sorted(manual.allow_all().edges - manual.edges)
                diff = DiffReport(frozenset(manual.edges - violating), frozenset(violating),
                                  frozenset(rng.sample(outside, len(outside) // 2)))
            attrs = {**dict.fromkeys(diff.violating, "style=dashed, color=red"),
                     **dict.fromkeys(diff.absent, "style=dashed, color=gray")}
            expected = sorting_dot(manual.nodes, diff.kept | diff.violating | diff.absent, attrs)
            assert diff.to_dot(manual) == expected

    def test_stateful_policies(self):
        rng = random.Random("dot-stateful")
        for _ in range(150):
            g = random_dot_graph(rng)
            stateful = rng.sample(g.sorted_edges(), len(g.edges) // 2)
            t = StatefulPolicy.of(g.nodes, g.edges, stateful)
            expected = sorting_dot(t.nodes, t.flows, dict.fromkeys(t.stateful, "style=dashed"))
            assert t.to_dot() == expected

    def test_factory_example(self):
        manual, invs = sc.factory_policy(), sc.factory_invariants()
        diff = policy_diff(manual, invs)
        attrs = dict.fromkeys(diff.absent, "style=dashed, color=gray")
        assert not diff.violating and diff.absent
        assert diff.to_dot(manual) == sorting_dot(manual.nodes, manual.edges | diff.absent, attrs)
        t = generate_stateful(manual, invs)
        assert t.stateful
        expected = sorting_dot(t.nodes, t.flows, dict.fromkeys(t.stateful, "style=dashed"))
        assert t.to_dot() == expected

    def test_names_with_quotes_and_backslashes(self, tmp_path):
        """Every line of the three DOT outputs is a quoted DOT statement,
        and its IDs read back as the policy's names and edges."""
        nodes = ['a"b', "c\\d", '\\"', "e"]
        policy = {"nodes": nodes, "edges": [['a"b', "c\\d"], ["c\\d", '\\"'], ["e", "e"]]}
        spec = [{"template": "BLPBasic", "attrs": {'a"b': 1, "c\\d": 1, '\\"': 2}}]
        (tmp_path / "policy.json").write_text(json.dumps(policy))
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert main(["synthesize", "--invariants", str(tmp_path / "spec.json"),
                     "--policy", str(tmp_path / "policy.json"), "--verify", "--construct",
                     "--stateful", "--out-dir", str(out)]) == 0
        manual = PolicyGraph.from_json(json.dumps(policy))
        constructed = PolicyGraph.from_json((out / "policy.json").read_text())
        # --construct writes the maximum policy and --stateful upgrades the manual one
        for name, edges in (("diff.dot", manual.edges | constructed.edges),
                            ("policy.dot", constructed.edges), ("stateful.dot", manual.edges)):
            dot_nodes, dot_edges = parse_dot((out / name).read_text())
            assert dot_nodes == sorted(nodes), name
            assert set(dot_edges) == edges, name
        assert '  "a\\"b" -> "c\\\\d";' in (out / "diff.dot").read_text().splitlines()


def test_allow_all():
    g = PolicyGraph.of({"a", "b"}, set())
    assert g.allow_all().edges == {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}
