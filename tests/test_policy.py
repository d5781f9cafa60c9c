import json
import random
import re
from collections import Counter
from itertools import product

import pytest

import scenarios as sc
from checkers import random_library_invariants, sorting_dot
from netfence.cli import main
from netfence.errors import DanglingEndpoint, UnknownHost, json_block, json_pairs, json_string
from netfence.invariants import ComplianceReport, InvariantVerdict
from netfence.policy import (
    AttrMap,
    EdgeRows,
    PolicyGraph,
    Strategy,
    adjacency,
    backflows,
    reachable,
    succ_tran,
    undirected_adjacency,
)
from netfence.stateful import StatefulPolicy, generate_stateful
from netfence.synthesis import ClassRows, DiffReport, policy_diff


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


def random_dot_graph(rng, names=DOT_NAMES):
    """A graph over some of `names`, some without edges."""
    nodes = rng.sample(names, rng.randint(0, len(names)))
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
                diff = policy_diff(manual, invs, ClassRows(invs, manual.nodes))
            else:
                edges = manual.sorted_edges()
                violating = set(rng.sample(edges, len(edges) // 3))
                outside = sorted(manual.allow_all().edges - manual.edges)
                rows = adjacency(rng.sample(outside, len(outside) // 2))
                absent = EdgeRows(manual.sorted_nodes(), lambda s: sorted(rows.get(s, ())),
                                  sum(map(len, rows.values())))
                diff = DiffReport(frozenset(manual.edges - violating), frozenset(violating), absent)
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


class TestGraphOverRows:
    """A PolicyGraph over EdgeRows, EdgeRows.of a frozenset's or
    ClassRows, and a PolicyGraph over the equal frozenset agree on ==
    both ways, sorted_edges, delete_edges, to_json and to_dot(styles);
    EdgeRows' membership and `without` agree with the frozenset's."""

    def cases(self, rng, n):
        for i in range(n):
            if i % 2:
                g = random_dot_graph(rng)
                rows = EdgeRows.of(g.edges)
            else:
                nodes = rng.sample(DOT_NAMES, rng.randint(1, len(DOT_NAMES)))
                rows = ClassRows(random_library_invariants(rng, nodes, "phi"), nodes)
                g = PolicyGraph(frozenset(nodes), frozenset(rows))
            yield g, rows

    def test_graphs_agree(self):
        rng = random.Random("graph-over-rows")
        for g, rows in self.cases(rng, 200):
            over = PolicyGraph(g.nodes, rows)
            assert EdgeRows.of(rows) is rows
            assert over == g and g == over
            assert over.sorted_edges() == g.sorted_edges() == sorted(g.edges)
            edges = g.sorted_edges()
            if edges:
                fewer = g.delete_edges([rng.choice(edges)])
                assert over != fewer and fewer != over
            removed = set(rng.sample(edges, len(edges) // 3)) | {("zz", "zz")}
            assert over.delete_edges(removed) == g.delete_edges(removed)
            assert over.to_json() == g.to_json()
            styles = [(set(rng.sample(edges, len(edges) // 4)), "style=dashed"),
                      ({*rng.sample(edges, len(edges) // 4), ("zz", "zz")}, "color=red")]
            styles = [(edges_, attr) for edges_, attr in styles if rng.random() < 0.8]
            nodes = g.nodes | {"zz"}
            assert (PolicyGraph(nodes, rows).to_dot(styles)
                    == PolicyGraph(nodes, g.edges).to_dot(styles))
            with pytest.raises(TypeError):
                hash(over)

    def test_membership_and_without(self):
        rng = random.Random("rows-without")
        for g, rows in self.cases(rng, 200):
            hosts = [*g.sorted_nodes(), "zz"]
            for e in product(hosts, hosts):
                assert (e in rows) == (e in g.edges), e
            pairs = list(product(hosts, hosts))
            other = set(rng.sample(pairs, rng.randint(0, len(pairs))))
            rest = rows.without(other)
            assert len(rest) == len(g.edges - other)
            assert list(rest) == sorted(g.edges - other)
            assert all(rest.row(s) == sorted(r for t, r in g.edges - other if t == s)
                       for s in hosts)


# names whose JSON text needs escapes, or sorts unlike the name itself
# ('"a!"' < '"a"' as text, 'a' < 'a!' as names)
JSON_NAMES = ("a", "a!", "a b", 'q"uote', "back\\slash", "\x00nul", "tab\t", "\x1fus",
              "\x7f", "\u00e4", "\u2028", "\U0001f600", "", "B", "10", "9")


def random_report(rng):
    """A report of zero to five verdicts, each with offending flows that
    are None, empty, or one to four sets of edges."""
    verdicts = []
    for _ in range(rng.randint(0, 5)):
        edges = sorted(random_dot_graph(rng, JSON_NAMES).edges)
        shape = rng.choice(("none", "empty", "sets")) if edges else rng.choice(("none", "empty"))
        offending = {"none": None, "empty": frozenset()}.get(shape)
        if shape == "sets":
            offending = frozenset(frozenset(rng.sample(edges, rng.randint(1, min(6, len(edges)))))
                                  for _ in range(rng.randint(1, 4)))
        verdicts.append(InvariantVerdict(rng.choice(JSON_NAMES + ("BLPBasic",)),
                                         rng.choice(list(Strategy)), shape == "empty", offending))
    return ComplianceReport(verdicts)


class TestJsonWriters:
    """verify.json, policy.json and stateful.json are the text of
    json.dumps(..., indent=2) of the documented structure."""

    def test_reports(self):
        rng = random.Random("json-report")
        reports = [ComplianceReport(), random_report(rng)]
        reports += [random_report(rng) for _ in range(500)]
        shapes = Counter()
        for report in reports:
            expected = json.dumps({
                "overall": report.overall,
                "invariants": [{
                    "template": v.template_id,
                    "strategy": v.strategy.value,
                    "holds": v.holds,
                    "offending": None if v.offending is None
                    else sorted(sorted(list(e) for e in f) for f in v.offending),
                } for v in report.verdicts],
            }, indent=2)
            assert report.to_json() == expected
            shapes.update(len(v.offending) if v.offending is not None else None
                          for v in report.verdicts)
        assert min(shapes[None], shapes[0], shapes[1], shapes[2], shapes[4]) > 50

    def test_offending_sets_sort_by_name_not_by_text(self):
        report = ComplianceReport([InvariantVerdict("T", Strategy.IFS, False, frozenset({
            frozenset({("a!", "a")}), frozenset({("a", "a!"), ("a", "a")})}))])
        assert json.loads(report.to_json())["invariants"][0]["offending"] == [
            [["a", "a"], ["a", "a!"]], [["a!", "a"]]]

    def test_policy_graphs(self):
        rng = random.Random("json-policy")
        graphs = [PolicyGraph.of(()), PolicyGraph.of(["a"]), PolicyGraph.of(JSON_NAMES)]
        graphs += [random_dot_graph(rng, JSON_NAMES) for _ in range(300)]
        for g in graphs:
            assert g.to_json() == json.dumps(
                {"nodes": sorted(g.nodes), "edges": [list(e) for e in sorted(g.edges)]},
                indent=2)
            assert PolicyGraph.from_json(g.to_json()) == g

    def test_stateful_policies(self):
        rng = random.Random("json-stateful")
        policies = [StatefulPolicy.of((), (), ()), StatefulPolicy.of(["a"], [("a", "a")], ())]
        for _ in range(300):
            g = random_dot_graph(rng, JSON_NAMES)
            policies.append(StatefulPolicy.of(g.nodes, g.edges,
                                              rng.sample(sorted(g.edges), len(g.edges) // 2)))
        for t in policies:
            assert t.to_json() == json.dumps({
                "nodes": sorted(t.nodes),
                "flows": [list(e) for e in sorted(t.flows)],
                "stateful": [list(e) for e in sorted(t.stateful)],
            }, indent=2)
            assert StatefulPolicy.from_json(t.to_json()) == t

    @pytest.mark.parametrize("depth", range(5))
    def test_blocks_at_every_depth(self, depth):
        """json_pairs and json_block nested `depth` deep in single-item
        arrays, against json.dumps of the same nesting."""
        rng = random.Random(depth)
        for n in (0, 1, 2, 7):
            pairs = [tuple(rng.sample(JSON_NAMES, 2)) for _ in range(n)]
            strings = [a for a, _ in pairs]
            for inner, value in ((json_pairs(pairs, depth), [list(p) for p in pairs]),
                                 (json_block([json_string(s) for s in strings], depth),
                                  strings)):
                text = inner
                for d in reversed(range(depth)):
                    text = json_block([text], d)
                for _ in range(depth):
                    value = [value]
                assert text == json.dumps(value, indent=2)


def test_allow_all():
    g = PolicyGraph.of({"a", "b"}, set())
    assert g.allow_all().edges == {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}
