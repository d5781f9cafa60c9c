"""Reusable bounded model-checking helpers for the invariant templates.

Shared between the per-template tests and the acceptance suite: the same
checks run in both places, once parametrized for readability and once as a
single gate."""

import random
from itertools import product

from netfence.invariants import offenders, set_offending_flows
from netfence.policy import PolicyGraph
from netfence.templates import LIBRARY_IDS, TEMPLATES

HOSTS2 = ("a", "b")
HOSTS3 = ("a", "b", "c")
HOSTS6 = ("a", "b", "c", "d", "e", "f")

PHI_IDS = [t for t in LIBRARY_IDS if TEMPLATES[t].phi_structured]
NON_PHI_IDS = [t for t in LIBRARY_IDS if not TEMPLATES[t].phi_structured]


def all_graphs(hosts):
    pairs = [(s, r) for s in hosts for r in hosts]
    for bits in range(1 << len(pairs)):
        yield PolicyGraph.of(hosts, {pairs[i] for i in range(len(pairs)) if bits >> i & 1})


def all_maps(template, hosts):
    pool = template.attr_pool(hosts)
    for combo in product(pool, repeat=len(hosts)):
        yield dict(zip(hosts, combo))


def sampled_maps(template, hosts, n, seed):
    rng = random.Random(seed)
    pool = template.attr_pool(hosts)
    yield {}
    for _ in range(n):
        yield {h: rng.choice(pool) for h in hosts}


def check_empty_edges_validity(template):
    g0 = PolicyGraph.of(HOSTS3, set())
    for attrs in sampled_maps(template, HOSTS3, 25, seed=1):
        assert template.instantiate(attrs).holds(g0), template.template_id


def check_monotonicity_two_nodes(template):
    for attrs in all_maps(template, HOSTS2):
        inv = template.instantiate(attrs)
        for g in all_graphs(HOSTS2):
            if not inv.holds(g):
                continue
            edges = sorted(g.edges)
            for bits in range(1 << len(edges)):
                sub = {edges[i] for i in range(len(edges)) if bits >> i & 1}
                assert inv.holds(PolicyGraph(g.nodes, frozenset(sub)))


def check_monotonicity_three_nodes(template):
    rng = random.Random(2)
    for attrs in sampled_maps(template, HOSTS3, 8, seed=3):
        inv = template.instantiate(attrs)
        for g in all_graphs(HOSTS3):
            if not inv.holds(g):
                continue
            edges = sorted(g.edges)
            subs = [set(edges) - {e} for e in edges]
            subs += [{e for e in edges if rng.random() < 0.5} for _ in range(3)]
            for sub in subs:
                assert inv.holds(PolicyGraph(g.nodes, frozenset(sub)))


def violations(template, hosts, maps):
    """(graph, attrs, invariant, offending) for violated instances that are
    small enough to brute force."""
    graphs = [g for g in all_graphs(hosts) if len(g.edges) <= 4]
    for attrs in maps:
        inv = template.instantiate(attrs)
        for g in graphs:
            if inv.holds(g):
                continue
            yield g, attrs, inv, set_offending_flows(inv, g)


def check_secure_default(template):
    bottom = template.default()
    cases = 0
    for hosts, maps in (
        (HOSTS2, all_maps(template, HOSTS2)),
        (HOSTS3, sampled_maps(template, HOSTS3, 10, seed=5)),
    ):
        for g, attrs, inv, offending in violations(template, hosts, maps):
            for flows in offending:
                for v in offenders(flows, inv.strategy):
                    masked = dict(attrs)
                    masked[v] = bottom
                    assert not template.instantiate(masked).holds(g), (
                        f"{template.template_id}: default masks a violation"
                    )
                    cases += 1
    assert cases > 0, f"{template.template_id}: vacuous secure-default check"


def check_default_uniqueness(template):
    bottom = template.default()
    candidates = [v for v in template.attr_pool(HOSTS2) if v != bottom]
    still_secure = set(range(len(candidates)))
    for g, attrs, inv, offending in violations(
        template, HOSTS2, all_maps(template, HOSTS2)
    ):
        if not still_secure:
            break
        for flows in offending:
            for v in offenders(flows, inv.strategy):
                for i in sorted(still_secure):
                    masked = dict(attrs)
                    masked[v] = candidates[i]
                    if template.instantiate(masked).holds(g):
                        still_secure.discard(i)
    assert not still_secure, (
        f"{template.template_id}: no masking witness for "
        f"{[candidates[i] for i in still_secure]}"
    )


def random_library_invariants(rng, hosts, kind):
    """One to three library invariants with random attributes.  kind "phi"
    draws Phi-structured templates only, "nonphi" only the others, and
    "mixed" at least one of each."""
    pools = {"phi": [PHI_IDS], "nonphi": [NON_PHI_IDS], "mixed": [PHI_IDS, NON_PHI_IDS]}[kind]
    ids = [rng.choice(pool) for pool in pools]
    ids += [rng.choice(rng.choice(pools)) for _ in range(rng.randrange(2))]
    rng.shuffle(ids)
    out = []
    for tid in ids:
        template = TEMPLATES[tid]
        pool = template.attr_pool(hosts)
        out.append(template.instantiate({h: rng.choice(pool) for h in hosts if rng.random() < 0.7}))
    return out


def random_graph(rng, max_edges, hosts=HOSTS6):
    """A graph over two to len(hosts) of the hosts with up to max_edges edges."""
    nodes = hosts[: rng.randint(2, len(hosts))]
    pairs = [(s, r) for s in nodes for r in nodes]
    return PolicyGraph.of(nodes, rng.sample(pairs, rng.randint(0, min(max_edges, len(pairs)))))


def random_order(rng, graph, foreign):
    """The graph's edges plus up to `foreign` pairs of its nodes that are not
    edges, with a few repeated, shuffled."""
    outside = [(s, r) for s in graph.sorted_nodes() for r in graph.sorted_nodes()
               if (s, r) not in graph.edges]
    order = graph.sorted_edges() + rng.sample(outside, min(foreign, len(outside)))
    if order:
        order += rng.choices(order, k=rng.randrange(3))
    rng.shuffle(order)
    return order
