import pytest

from netfence.errors import DanglingEndpoint, UnknownHost
from netfence.policy import (
    AttrMap,
    PolicyGraph,
    backflows,
    reachable,
    succ_tran,
    undirected_adjacency,
)


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
        dot = g.to_dot(edge_attrs={("a", "b"): "style=dashed, color=red"})
        assert '"a" -> "b" [style=dashed, color=red];' in dot

    def test_deterministic_ordering(self):
        g1 = PolicyGraph.of(["b", "a"], [("b", "a"), ("a", "b")])
        g2 = PolicyGraph.of(["a", "b"], [("a", "b"), ("b", "a")])
        assert g1.to_json() == g2.to_json()
        assert g1.to_dot() == g2.to_dot()


def test_allow_all():
    g = PolicyGraph.of({"a", "b"}, set())
    assert g.allow_all().edges == {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}
