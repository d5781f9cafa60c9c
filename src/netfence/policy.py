"""Policy graphs and host-attribute maps.

A security policy is a directed graph over opaque host names; both the
synthesis pipeline (invariants -> ruleset) and the analysis pipeline
(ruleset -> access matrix) meet at this abstraction.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Set
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, product
from typing import Any

from .errors import (DanglingEndpoint, IllformedSpec, UnknownHost, json_block, json_pairs,
                     json_string, load_json)


class Strategy(Enum):
    IFS = "IFS"
    ACS = "ACS"


@dataclass(frozen=True)
class PolicyGraph:
    """Directed graph (nodes, edges); edge endpoints must be declared nodes.

    `nodes` is a frozenset and `edges` any collections.abc.Set of edges,
    such as a frozenset or EdgeRows (then the graph is unhashable).  The
    sorted views, JSON and DOT read the edges through one sorted row view,
    EdgeRows.of, so downstream algorithms are deterministic."""

    nodes: frozenset
    edges: Set

    @classmethod
    def of(cls, nodes, edges=()):
        g = cls(frozenset(nodes), frozenset(tuple(e) for e in edges))
        g.validate()
        return g

    def validate(self):
        for s, r in self.edges:
            if s not in self.nodes:
                raise DanglingEndpoint(s)
            if r not in self.nodes:
                raise DanglingEndpoint(r)

    def sorted_nodes(self):
        return sorted(self.nodes)

    def sorted_edges(self):
        return list(EdgeRows.of(self.edges))

    def delete_edges(self, removed):
        return PolicyGraph(self.nodes, self.edges - frozenset(removed))

    def allow_all(self):
        """The complete graph (V, V x V) over the same nodes."""
        return PolicyGraph(self.nodes, frozenset((a, b) for a in self.nodes for b in self.nodes))

    # -- serialization -------------------------------------------------

    def to_json(self):
        return policy_json(self.nodes, edges=self.edges)

    @classmethod
    def from_json(cls, text):
        """A policy of JSON {"nodes": [names], "edges": [[a, b], ...]};
        every node name is a string, and an edge is a list, not a string of
        two characters."""
        data = load_json(text, "policy")
        try:
            nodes, edges = decode_names(data["nodes"]), data["edges"]
            if not all(isinstance(e, list) for e in edges):
                raise TypeError("an edge must be a [src, dst] list")
            return cls.of(nodes, edges)
        except (KeyError, TypeError, ValueError) as exc:
            raise IllformedSpec(f"policy: expected nodes and [src, dst] edges ({exc!r})") from None

    def to_dot(self, styles=()):
        """Graphviz digraph of the graph's edges, written from their rows, plus
        the edges of each (edges, attribute) pair in `styles` drawn with that
        attribute string, such as 'style=dashed, color=red'; a later pair's
        attribute wins (see dot_text)."""
        styled = set().union(*(edges for edges, _ in styles))
        return dot_text(self.nodes, styles, EdgeRows.of(self.edges).without(styled).row)


def policy_json(nodes, **edge_sets) -> str:
    """The text of json.dumps(..., indent=2) of {"nodes": the sorted nodes}
    and then, under each keyword, that set of edges in sorted order."""
    return json_block([
        '"nodes": ' + json_block([json_string(n) for n in sorted(nodes)], 1),
        *(f'"{key}": ' + json_pairs(EdgeRows.of(edges), 1)
          for key, edges in edge_sets.items()),
    ], 0, "{}")


class EdgeRows(Set):
    """A set of edges held as rows: for each of the sorted `sources`,
    row(s) is the sorted list of its receivers (empty for any other
    host), and `size` is the number of edges, or a function that counts
    them on the first len().  It iterates in sorted order; a set operation
    with another set gives a frozenset."""

    def __init__(self, sources, row, size):
        self.sources, self.row, self.size = sources, row, size

    @classmethod
    def of(cls, edges) -> EdgeRows:
        """`edges` as rows: an EdgeRows itself, another set grouped, then each row sorted."""
        if isinstance(edges, EdgeRows):
            return edges
        rows = {}
        for s, r in edges:
            rows.setdefault(s, []).append(r)
        for row in rows.values():
            row.sort()
        return cls(sorted(rows), lambda s: rows.get(s, []), len(edges))

    @classmethod
    def _from_iterable(cls, edges):
        return frozenset(edges)

    def __len__(self):
        if callable(self.size):
            self.size = self.size()
        return self.size

    def __iter__(self):
        return chain.from_iterable(product((s,), self.row(s)) for s in self.sources)

    def __contains__(self, edge):
        row = self.row(edge[0])
        i = bisect_left(row, edge[1])
        return i < len(row) and row[i] == edge[1]

    def without(self, edges) -> EdgeRows:
        """These edges less those of the set `edges`, as rows, each filtered
        from this one when its source has an edge in `edges`; the edges
        taken away are counted on the first len()."""
        theirs = adjacency(edges)

        def row(s):
            mine, drop = self.row(s), theirs.get(s)
            return [r for r in mine if r not in drop] if drop else mine

        return EdgeRows(self.sources, row, lambda: len(self) - sum(e in self for e in edges))


def dot_text(nodes, styled, row, row_attr=None) -> str:
    """Graphviz digraph over `nodes`, written row by row: each source in sorted
    order, then its sorted receivers.  The edges are those of each (edges,
    attribute) pair in `styled`, drawn with that attribute string (with none
    when it is None), a later pair's attribute winning, and those from each
    source s to the receivers row(s), a sorted list that holds none of s's
    styled receivers, drawn with `row_attr`.  A source with no styled edge
    takes its lines from row(s) in one pass.  Every edge must join two of
    `nodes`.  Node names are quoted DOT IDs, with `\\` and `"` escaped."""
    nodes = sorted(nodes)
    quoted = {n: '"' + str(n).replace("\\", "\\\\").replace('"', '\\"') + '"'
              for n in nodes}

    def ends(attr):  # each node's quoted name, ending an edge line drawn with attr
        end = f" [{attr}];" if attr else ";"
        return {n: q + end for n, q in quoted.items()}

    styled_ends = {n: {} for n in nodes}  # source -> {receiver: line end}
    for edges, attr in styled:
        end = ends(attr)
        for s, r in edges:
            styled_ends[s][r] = end[r]
    rest_end = ends(row_attr)
    lines = ["digraph policy {"]
    lines += [f"  {quoted[n]};" for n in nodes]
    for s in nodes:
        arrow, mine, more = f"  {quoted[s]} -> ", styled_ends[s], row(s)
        if mine:
            lines += [arrow + (mine[r] if r in mine else rest_end[r])
                      for r in sorted([*more, *mine])]
        else:
            lines += [arrow + rest_end[r] for r in more]
    lines.append("}")
    return "\n".join(lines) + "\n"


def decode_names(value) -> tuple:
    """A JSON list of host names or labels, as a tuple.  A string, which
    tuple() would split into its characters, or anything else that is not
    a list of strings raises TypeError, naming the first name that is not
    a string."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list of names, got {value!r}")
    for v in value:
        if not isinstance(v, str):
            raise TypeError(f"a name must be a string, got {v!r}")
    return tuple(value)


def adjacency(edges) -> dict:
    """Successor sets of every edge source; build once per graph and share
    it across all reachability queries on that graph."""
    adj = {}
    for s, r in edges:
        adj.setdefault(s, set()).add(r)
    return adj


def reachable(adj: dict, v) -> set:
    """Hosts reachable from v via one or more edges of `adj` (breadth first)."""
    seen = set()
    frontier = set(adj.get(v, ()))
    while frontier:
        seen |= frontier
        frontier = {n for f in frontier for n in adj.get(f, ())} - seen
    return seen


def undirected_adjacency(edges) -> dict:
    """Adjacency pretending every edge were bidirectional."""
    return adjacency(chain(edges, backflows(edges)))


def succ_tran(graph: PolicyGraph, v) -> set:
    """Hosts reachable from v via one or more edges (transitive closure image)."""
    if v not in graph.nodes:
        raise UnknownHost(v)
    return reachable(adjacency(graph.edges), v)


def backflows(edges):
    return {(r, s) for s, r in edges}


@dataclass(frozen=True)
class AttrMap:
    """Total host-attribute lookup: explicit entries fall back to a default."""

    partial: Any = field(default_factory=dict)
    default: Any = None

    def __post_init__(self):
        object.__setattr__(self, "partial", dict(self.partial))

    def lookup(self, host):
        return self.partial.get(host, self.default)

    def __call__(self, host):
        return self.lookup(host)
