"""Reusable bounded model-checking helpers for the invariant templates,
and definitional oracles and inputs shared by several test modules.

The template checks are shared between the per-template tests and the
acceptance suite: the same checks run in both places, once parametrized
for readability and once as a single gate."""

import importlib.util
import random
from dataclasses import replace
from itertools import product
from pathlib import Path

from netfence.invariants import set_offending_flows
from netfence import ruleset as rs
from netfence.policy import PolicyGraph, Strategy
from netfence.ruleset import MAnd, MNot, MNotTrue, MPrim, MTrue, Rule, mand
from netfence.semantics import ALLOW, DENY, UNDECIDED, default_known
from netfence.simplefw import SimpleMatch, SimpleRule, simple_fw_eval
from netfence.errors import IfaceNotInIpassmt
from netfence.spoofing import SpoofVerdict, sp_certify_all
from netfence.templates import LIBRARY_IDS, TEMPLATES
from netfence.wordinterval import WordInterval, parse_address_set

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


def offenders(flows, strategy):
    """The hosts blamed for a violation: senders under ACS, receivers under IFS."""
    if strategy is Strategy.ACS:
        return frozenset(s for s, _ in flows)
    return frozenset(r for _, r in flows)


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


def sorting_dot(nodes, edges, edge_attrs=None):
    """The DOT writer by sorting every (source, receiver) tuple: the oracle
    of policy.dot_text, which writes rows.  Names are quoted with `\\` and
    `"` escaped.  `edge_attrs` maps an edge to its attribute string."""
    def quoted(n):
        return '"' + n.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph policy {"]
    for n in sorted(nodes):
        lines.append(f"  {quoted(n)};")
    for s, r in sorted(edges):
        extra = ""
        if edge_attrs:
            a = edge_attrs.get((s, r))
            if a:
                extra = f" [{a}]"
        lines.append(f"  {quoted(s)} -> {quoted(r)}{extra};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def comm_with_spec(rng, hosts):
    """The benchmark's synth-b specification shape: a Phi-structured mix
    (BLPTrusted, SubnetsInGW, Sink, NoRefl, DomainHierarchy) plus CommWith,
    where two thirds of the hosts may each reach a seeded half of the hosts
    and the rest reach nobody.  Returns the JSON-ready list."""
    hosts = list(hosts)
    names = ["Core", "Ops", "Lab", "Plant", "Office"]
    blp = {h: {"level": rng.randrange(3), "trust": rng.random() < 0.1}
           for h in hosts if rng.random() < 0.5}
    gw = {h: "Member" for h in rng.sample(hosts, len(hosts) // 3)}
    gw.update({h: "InboundGateway" for h in rng.sample([h for h in hosts if h not in gw], 2)})
    dom = {h: {"level": ".".join(rng.choice(names) + str(i)
                                 for i in range(rng.randrange(1, 4), 0, -1)),
               "trust": rng.randrange(2)}
           for h in rng.sample(hosts, len(hosts) // 2)}
    reach = {h: sorted(rng.sample(hosts, len(hosts) // 2))
             for h in rng.sample(hosts, len(hosts) * 2 // 3)}
    return [
        {"template": "BLPTrusted", "attrs": blp},
        {"template": "SubnetsInGW", "attrs": gw},
        {"template": "Sink", "attrs": {h: rng.choice(("Sink", "SinkPool"))
                                       for h in rng.sample(hosts, len(hosts) // 6)}},
        {"template": "NoRefl", "attrs": {h: "Refl" for h in rng.sample(hosts, len(hosts) // 2)}},
        {"template": "DomainHierarchy", "attrs": dom},
        {"template": "CommWith", "attrs": reach},
    ]


# -- analysis pipeline -------------------------------------------------------


def nested_chains(depth):
    """A FORWARD ruleset whose calls nest `depth` deep: FORWARD calls C1 and
    each Ci calls C(i+1) on a source match; the last chain accepts one
    destination, everything else is dropped."""
    lines = ["*filter", ":FORWARD DROP [0:0]"]
    lines += [f":C{i} - [0:0]" for i in range(1, depth + 1)]
    lines.append("-A FORWARD -j C1")
    lines += [f"-A C{i} -s 10.0.0.0/8 -j C{i + 1}" for i in range(1, depth)]
    lines += [f"-A C{depth} -d 10.1.0.0/16 -j ACCEPT", "COMMIT"]
    return "\n".join(lines) + "\n"


def return_chain(n, jump="-j RETURN"):
    """A FORWARD ruleset that calls one user chain of n rules jumping on
    /24s inside 10.0.0.0/8 (RETURNs, or gotos to an empty chain) before
    its eth0 anti-spoofing DROP, whose unfolded match then nests n
    levels deep; eth0 = 10.0.0.0/8 is certified."""
    lines = ["*filter", ":FORWARD DROP [0:0]", ":USER - [0:0]", ":SINK - [0:0]",
             "-A FORWARD -j USER", "-A FORWARD -i eth0 -j ACCEPT"]
    lines += [f"-A USER -s 10.{i // 256}.{i % 256}.0/24 {jump}" for i in range(n)]
    lines += ["-A USER -i eth0 ! -s 10.0.0.0/8 -j DROP", "COMMIT"]
    return "\n".join(lines) + "\n"


def return_ladder(k):
    """A Docker-style FORWARD ruleset: eth0 drops spoofed sources up front,
    eth1 only after a user chain whose k RETURN rules give every later
    rule k negated conjunctions, eth2 never."""
    lines = ["*filter", ":FORWARD DROP [0:0]", ":USER - [0:0]",
             "-A FORWARD -i eth0 ! -s 10.0.0.0/16 -j DROP",
             "-A FORWARD -j USER",
             "-A FORWARD -i eth1 ! -s 10.1.0.0/16 -j DROP",
             "-A FORWARD -j ACCEPT"]
    conds = [lambda j: f"-i eth{j % 3} -p tcp -m tcp --dport {8000 + j}",
             lambda j: f"-o eth{j % 3} -p udp -m udp --dport {5300 + j}",
             lambda j: f"-m limit --limit {50 + j}/sec",
             lambda j: f"-i eth{j % 3} -s 10.{j % 3}.0.0/16"]
    for j in range(k):
        lines.append(f"-A USER {conds[j % len(conds)](j)} -j RETURN")
    lines += ["-A USER -i eth2 -p tcp -m tcp --dport 22 -j ACCEPT",
              "-A USER -i eth1 -s 192.168.0.0/24 -j ACCEPT", "COMMIT"]
    ipassmt = {f"eth{i}": parse_address_set(f"10.{i}.0.0/16") for i in range(3)}
    return "\n".join(lines) + "\n", ipassmt


def doubling_returns(k):
    """A FORWARD ruleset whose user chain RETURNs tcp from 10.0.0.<i> for
    i < k before one ACCEPT: each RETURN's negation is `! -s` or `! -p
    tcp`, so the ACCEPT's match splits into 2^k distinct boxes."""
    lines = ["*filter", ":FORWARD DROP [0:0]", ":USER - [0:0]", "-A FORWARD -j USER"]
    lines += [f"-A USER -s 10.0.0.{i} -p tcp -j RETURN" for i in range(k)]
    lines += ["-A USER -j ACCEPT", "COMMIT"]
    return "\n".join(lines) + "\n"


def seeded_return_ladder(seed, k):
    """The benchmark's Docker-style ruleset (bench/gen.py) with a ladder of
    k RETURN rules, addresses drawn at `seed`: (save text, ipassmt text)."""
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    text, ipassmt, _ = gen.return_ruleset(random.Random(seed), random.Random("return-0"), k)
    return text, ipassmt


# -- ternary embedding -----------------------------------------------------------
# Kleene three-valued matching, where a primitive the matcher does not
# understand is Unknown: the definition that semantics.closure's upper and
# lower closures are tested against.

TRUE = "true"
FALSE = "false"
UNKNOWN = "unknown"


def _ternary_not(v):
    if v == UNKNOWN:
        return UNKNOWN
    return FALSE if v == TRUE else TRUE


def _ternary_and(a, b):
    if a == FALSE or b == FALSE:
        return FALSE
    if a == UNKNOWN or b == UNKNOWN:
        return UNKNOWN
    return TRUE


def ternary_eval(m, p, known=default_known):
    """Kleene three-valued evaluation: primitives the matcher does not
    understand yield Unknown."""
    if m is MTrue:
        return TRUE
    if isinstance(m, MPrim):
        if not known(m.prim):
            return UNKNOWN
        return TRUE if m.prim.matches(p, None) else FALSE
    if isinstance(m, MNot):
        return _ternary_not(ternary_eval(m.inner, p, known))
    left = ternary_eval(m.left, p, known)
    if left == FALSE:
        return FALSE
    return _ternary_and(left, ternary_eval(m.right, p, known))


def ternary_list_eval(rules, packet, tactic, known=default_known):
    """Evaluate an Accept/Drop list under an in-doubt tactic."""
    for r in rules:
        v = ternary_eval(r.match, packet, known)
        if v == UNKNOWN:
            v = TRUE if (r.action.kind == "accept") == (tactic == "in_doubt_allow") else FALSE
        if v == TRUE:
            return ALLOW if r.action.kind == "accept" else DENY
    return UNDECIDED


def fieldwise_meet(a, b):
    """simplefw._meet by its definition: conjoin both interface patterns
    and intersect all five sets (None being the universe); the meet is
    None when any of the seven fields is empty."""
    fields = [rs.iface_conj(a.iiface, b.iiface), rs.iface_conj(a.oiface, b.oiface)]
    fields += [y if x is None else x if y is None else x.intersect(y)
               for x, y in zip(a[2:7], b[2:7])]
    if None in fields[:2] or any(s is not None and s.is_empty() for s in fields[2:]):
        return None
    return type(a)(*fields, a.unknown or b.unknown, a.known or b.known)


def per_box_translation(boxes, tactic):
    """translate_to_simple by its definition: every box the tactic keeps,
    up to the first kept one without a known literal, split into CIDRs on
    its own, with no split shared between boxes."""
    out = []
    for b in boxes:
        if b.unknown and b.accept != (tactic == "in_doubt_allow"):
            continue
        out += [SimpleRule(SimpleMatch(b.src.width, b.iiface, b.oiface, s, d, b.proto, sp, dp),
                           b.accept)
                for s in b.src.to_cidrs() for d in b.dst.to_cidrs()
                for sp in b.sports.parts for dp in b.dports.parts]
        if not b.known:
            break
    return out


def slow_rows(rules, svc, reps):
    """Rows and columns as in analysis._fast_rows, from simple_fw_eval on
    every pair of representatives with the rules' interfaces wildcarded:
    O(B²·R), the definition that _fast_rows is tested against."""
    rules = [SimpleRule(replace(r.match, iiface="+", oiface="+"), r.accept) for r in rules]
    rows, cols = [0] * len(reps), [0] * len(reps)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            # an Undecided verdict counts as deny here
            if simple_fw_eval(rules, svc.packet(a, b)) == ALLOW:
                rows[i] |= 1 << j
                cols[j] |= 1 << i
    return rows, cols


def _interval_bounds(m, iface, side, width, memo):
    """(over, under) of match m on `iface` as interval sets: the sources
    with which some packet there may match m, and with which every one
    does.  Conjunctions intersect, negations complement and swap, and the
    interface literals of type `side` are decided exactly."""
    got = memo.get(id(m))
    if got is not None:
        return got
    everything, nothing = WordInterval.universe(width), WordInterval.empty(width)
    if isinstance(m, MAnd):
        (over, under), (over_r, under_r) = (_interval_bounds(m.left, iface, side, width, memo),
                                            _interval_bounds(m.right, iface, side, width, memo))
        got = over.intersect(over_r), under.intersect(under_r)
    elif isinstance(m, MNot):
        over, under = _interval_bounds(m.inner, iface, side, width, memo)
        got = under.complement(), over.complement()
    elif m is MTrue:
        got = everything, everything
    elif isinstance(m.prim, rs.Src):
        got = m.prim.addrs, m.prim.addrs
    elif isinstance(m.prim, side):
        got = (everything, everything) if rs.match_iface(m.prim.name, iface) else (nothing, nothing)
    else:
        got = everything, nothing
    memo[id(m)] = got
    return got


def sp_certify(rules, iface, ipassmt, field="in"):
    """Certify one interface of an unfolded Accept/Drop rule list, through
    spoofing.sp_certify_all on a one-interface assignment.

    The list must end in an explicit catch-all rule (the unfolded default
    policy guarantees this).  `field` selects which interface side the
    certification is about: "in" for INPUT/FORWARD, "out" for OUTPUT.
    """
    if iface not in ipassmt:
        raise IfaceNotInIpassmt(iface)
    return sp_certify_all(rules, {iface: ipassmt[iface]}, field)[iface]


def definitional_certify(rules, ipassmt, field="in"):
    """spoofing.sp_certify_all's oracle: the same fold of A (the Accepts'
    over) and D (the Drops' under outside A), in interval algebra, with
    the escape of A minus D tested after every rule."""
    side = rs.IIface if field == "in" else rs.OIface
    verdicts = {}
    for iface in sorted(ipassmt):
        allowed = ipassmt[iface]
        memo = {}
        acc = deny = WordInterval.empty(allowed.width)
        failing = None
        for idx, rule in enumerate(rules):
            over, under = _interval_bounds(rule.match, iface, side, allowed.width, memo)
            if rule.action.kind == "accept":
                acc = acc.union(over)
            else:
                deny = deny.union(under.difference(acc))
            if failing is None and not acc.difference(deny).issubset(allowed):
                failing = idx
        residual = acc.difference(deny).difference(allowed)
        verdicts[iface] = SpoofVerdict(iface, True) if residual.is_empty() else \
            SpoofVerdict(iface, False, failing, residual)
    return verdicts


def definitional_normalize_nnf(m):
    """The NNF split as a list of conjunction trees, repeated trees dropped
    by a list scan: the oracle of semantics.normalize_nnf, whose flat
    literal tuples must equal these trees' leaves.  (Two trees that differ
    only in how their conjunctions nest would flatten to one tuple, which
    normalize_nnf keeps once; the rules the tests draw have no such pair.)"""
    if m == MTrue:
        return [MTrue]
    if isinstance(m, MPrim):
        return [m]
    if isinstance(m, MAnd):
        out = []
        for x in definitional_normalize_nnf(m.left):
            for y in definitional_normalize_nnf(m.right):
                out.append(mand(x, y))
        return _dedup(out)
    inner = m.inner
    if inner == MTrue:
        return []
    if isinstance(inner, MNot):
        return definitional_normalize_nnf(inner.inner)
    if isinstance(inner, MAnd):
        return _dedup(definitional_normalize_nnf(MNot(inner.left))
                      + definitional_normalize_nnf(MNot(inner.right)))
    prim = inner.prim
    if isinstance(prim, rs.PORT_PRIMITIVES):
        return [
            MNot(MPrim(rs.Protocol(prim.proto))),
            mand(MPrim(rs.Protocol(prim.proto)),
                 MPrim(type(prim)(prim.proto, prim.ports.complement()))),
        ]
    return [m]


def _dedup(items):
    seen = []
    for x in items:
        if x not in seen:
            seen.append(x)
    return seen


# -- match builders by equality ------------------------------------------------
# The oracles of ruleset.mand, ruleset.opt_match and
# semantics.ctstate_specialize, which test for True and not-True by
# identity and keep unchanged nodes: these compare with `==` and rebuild.


def equality_mand(*exprs):
    out = MTrue
    for e in reversed(exprs):
        if e == MNotTrue or out == MNotTrue:
            return MNotTrue
        if e == MTrue:
            continue
        out = e if out == MTrue else MAnd(e, out)
    return out


def equality_opt_match(m):
    if isinstance(m, MAnd):
        left, right = equality_opt_match(m.left), equality_opt_match(m.right)
        if left == MNotTrue or right == MNotTrue:
            return MNotTrue
        if left == MTrue:
            return right
        if right == MTrue:
            return left
        return MAnd(left, right)
    if isinstance(m, MNot):
        inner = equality_opt_match(m.inner)
        return inner.inner if isinstance(inner, MNot) else MNot(inner)
    return m


def rebuilding_ctstate_specialize(rules, assumed="NEW"):
    syn = rs.TcpFlags(frozenset({"FIN", "SYN", "RST", "ACK"}), frozenset({"SYN"}))

    def rewrite(prim, positive):
        if isinstance(prim, rs.CtState):
            return MTrue if assumed in prim.states else MNotTrue
        if positive and assumed == "NEW" and isinstance(prim, rs.TcpFlags):
            if not prim.comp <= prim.mask or prim.mask & syn.mask & prim.comp != prim.mask & syn.comp:
                return MNotTrue
            merged = rs.TcpFlags(prim.mask | syn.mask, prim.comp | syn.comp)
            return MTrue if merged == syn else MPrim(merged)
        return MPrim(prim)

    def walk(m, positive):
        if m == MTrue:
            return m
        if isinstance(m, MPrim):
            return rewrite(m.prim, positive)
        if isinstance(m, MAnd):
            return equality_mand(walk(m.left, positive), walk(m.right, positive))
        return equality_opt_match(MNot(walk(m.inner, False)))

    out = []
    for r in rules:
        m = equality_opt_match(walk(r.match, True))
        if m == MNotTrue or r.action.kind in ("log", "empty"):
            continue
        out.append(Rule(m, rs.DROP if r.action.kind == "reject" else r.action, r.raw))
        if m == MTrue and out[-1].action.kind in ("accept", "drop"):
            break
    return out
