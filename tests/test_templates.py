"""Bounded model checking of the invariant template library.

The library ships proofs nowhere: instead every template is checked
exhaustively on all graphs with up to three nodes against the generic
requirements (validity on the empty edge set, monotonicity, secure and
unique default attributes), plus the template-specific characterizations.
"""

import json
import random
from itertools import product

import pytest

import checkers
from checkers import HOSTS2, HOSTS3, all_graphs, sampled_maps
from netfence.errors import AttrTypeMismatch, IllformedSpec, IllformedTaints, NoDefault
from netfence.policy import PolicyGraph, succ_tran
from netfence.templates import (
    BlpAttr,
    HostSet,
    Master,
    TEMPLATES,
    TaintsSpec,
    dependability_autolevels,
    dom_below,
    dom_chop,
    instantiate,
    load_invariants,
    parse_domain,
    system_boundary_expand,
)

LIBRARY = [t for t in TEMPLATES.values() if t.has_default]


@pytest.mark.parametrize("template", LIBRARY, ids=lambda t: t.template_id)
class TestGenericRequirements:
    def test_empty_edges_validity(self, template):
        checkers.check_empty_edges_validity(template)

    def test_monotonicity_two_nodes_exhaustive(self, template):
        checkers.check_monotonicity_two_nodes(template)

    def test_monotonicity_three_nodes(self, template):
        checkers.check_monotonicity_three_nodes(template)

    def test_secure_default(self, template):
        checkers.check_secure_default(template)

    def test_default_uniqueness(self, template):
        checkers.check_default_uniqueness(template)


class TestDefaults:
    def test_blp_default_is_zero(self):
        assert TEMPLATES["BLPBasic"].default() == 0

    def test_comm_partners_default(self):
        assert TEMPLATES["CommPartners"].default() == "DontCare"

    def test_noninterference_default(self):
        assert TEMPLATES["NonInterference"].default() == "Interfering"

    def test_meta_template_has_no_default(self):
        with pytest.raises(NoDefault):
            TEMPLATES["SystemBoundary"].default()


class TestInstantiation:
    def test_blp_example(self):
        g = PolicyGraph.of({"db1", "web"}, {("web", "db1")})
        assert instantiate("BLPBasic", {"db1": 1}).holds(g)

    def test_pep_member_to_member_forbidden(self):
        g = PolicyGraph.of({"s1", "s2"}, {("s1", "s2")})
        inv = instantiate(
            "PolEnforcePoint", {"s1": "DomainMember", "s2": "DomainMember"}
        )
        assert not inv.holds(g)

    def test_tainting_simple_subset_check(self):
        g = PolicyGraph.of({"Webcam", "SensorSink"}, {("Webcam", "SensorSink")})
        inv = instantiate(
            "TaintingSimple",
            {
                "Webcam": frozenset({"energy", "location"}),
                "SensorSink": frozenset({"energy"}),
            },
        )
        assert not inv.holds(g)

    def test_attr_type_mismatch(self):
        with pytest.raises(AttrTypeMismatch):
            instantiate("BLPBasic", {"a": "high"})

    @pytest.mark.parametrize("template", [t for t in LIBRARY if t.values],
                             ids=lambda t: t.template_id)
    def test_enumerated_template_refuses_other_values(self, template):
        assert template.attr_pool(HOSTS3) == list(template.values)
        for value in template.values:
            template.instantiate({"a": value})
        with pytest.raises(AttrTypeMismatch, match=f"^{template.template_id}: cannot use "
                                                   "attribute 'Bogus'$"):
            template.instantiate({"a": "Bogus"})

    def test_illformed_taints(self):
        with pytest.raises(IllformedTaints):
            TaintsSpec(frozenset({"x"}), frozenset({"x", "y"}))

    def test_taints_normalization(self):
        ts = TaintsSpec.of({"energy"}, {"location"})
        assert ts.taints == {"energy", "location"}
        assert ts.untaints == {"location"}


@pytest.mark.parametrize("template", [t for t in LIBRARY if t.phi_structured],
                         ids=lambda t: t.template_id)
def test_phi_reads_names_only_when_declared(template):
    """For s != r a Phi template's verdict depends on the two attributes
    alone unless it declares phi_reads_names: over every pair of pool
    attributes, all twelve ordered pairs of distinct hosts among a, b, c
    and the unmapped d agree.  A template that declares it (CommPartners)
    has a witness pair of attributes where they differ."""
    hosts = HOSTS3 + ("d",)
    pairs = [(s, r) for s in hosts for r in hosts if s != r]
    pool = template.attr_pool(HOSTS3)
    witnesses = [(a_s, a_r) for a_s, a_r in product(pool, repeat=2)
                 if len({template.phi(a_s, s, a_r, r) for s, r in pairs}) > 1]
    assert bool(witnesses) == template.phi_reads_names, witnesses[:3]
    assert template.instantiate({}).phi_reads_names == template.phi_reads_names


class TestDomainHierarchy:
    def test_chop_examples(self):
        assert dom_chop(parse_domain("br.e.cc"), 1) == ("e", "cc")
        assert dom_chop(parse_domain("br.e.cc"), 2) == ("cc",)

    def test_below_examples(self):
        wh = parse_domain("wh.e.cc")
        assert dom_below(wh, wh)
        assert dom_below(wh, parse_domain("e.cc"))
        assert dom_below(wh, parse_domain("cc"))
        assert not dom_below(wh, parse_domain("br.e.cc"))
        assert not dom_below(parse_domain("br.e.cc"), wh)

    def test_bottom_is_below_everything(self):
        assert dom_below(None, None)
        assert not dom_below(parse_domain("cc"), None)
        assert dom_below(None, parse_domain("cc"))


class TestSuccTranTemplates:
    def test_dependability_autolevels_component(self):
        g = PolicyGraph.of(
            {"v1", "v2", "v3"}, {("v1", "v2"), ("v2", "v1"), ("v2", "v3")}
        )
        levels = dependability_autolevels(g)
        assert levels("v1") == 3 and levels("v2") == 3 and levels("v3") == 0
        assert instantiate("Dependability", dict(levels.partial)).holds(g)

    def test_self_loop_counts_when_reflexive(self):
        g = PolicyGraph.of({"v"}, {("v", "v")})
        assert dependability_autolevels(g, refl=True)("v") == 1
        assert dependability_autolevels(g, refl=False)("v") == 0

    def test_commwith_transitive(self):
        g = PolicyGraph.of({"v1", "v2", "v3"}, {("v1", "v2"), ("v2", "v3")})
        needs_both = instantiate(
            "CommWith", {"v1": ("v2", "v3"), "v2": ("v3",)}
        )
        assert needs_both.holds(g)
        too_narrow = instantiate("CommWith", {"v1": ("v2",), "v2": ("v3",)})
        assert not too_narrow.holds(g)

    def test_notcommwith_is_inverse_of_commwith(self):
        rng = random.Random(31)
        hosts = list(HOSTS3)
        for _ in range(120):
            edges = {(s, r) for s in hosts for r in hosts if rng.random() < 0.4}
            g = PolicyGraph.of(hosts, edges)
            allow = {h: tuple(x for x in hosts if rng.random() < 0.5) for h in hosts}
            cw = instantiate("CommWith", allow)
            ncw = instantiate(
                "NotCommWith",
                {
                    h: HostSet(frozenset(allow[h]), complemented=True)
                    for h in hosts
                },
            )
            assert cw.holds(g) == ncw.holds(g)


# topoS's definitions of the reach-bound templates, over each host v's
# succ_tran set, written without reading reach_bound
TOPOS_REACH_DEFINITIONS = {
    "CommWith": lambda reach, v, allowed: reach <= set(allowed),
    "NotCommWith": lambda reach, v, forbidden: not any(a in forbidden for a in reach),
    "Dependability": lambda reach, v, level: len(reach) <= level,
    "DependabilityNonRefl": lambda reach, v, level: len(reach - {v}) <= level,
}


@pytest.mark.parametrize("tid", sorted(TOPOS_REACH_DEFINITIONS))
def test_reach_templates_match_the_topos_definitions(tid):
    """On every graph over three hosts, holds equals the definition for
    every host."""
    template, definition = TEMPLATES[tid], TOPOS_REACH_DEFINITIONS[tid]
    for attrs in sampled_maps(template, HOSTS3, 10, seed=7):
        inv = template.instantiate(attrs)
        for g in all_graphs(HOSTS3):
            want = all(definition(succ_tran(g, v), v, inv.attr_map(v)) for v in g.nodes)
            assert inv.holds(g) == want, (attrs, sorted(g.edges))


class TestSubnetsCharacterization:
    def test_violations_exhaust(self):
        """A violation occurs iff unassigned->assigned, cross-subnet access,
        or router->host."""
        template = TEMPLATES["Subnets"]
        values = template.attr_pool(HOSTS2)
        for va, vb in product(values, repeat=2):
            attrs = {"a": va, "b": vb}
            inv = template.instantiate(attrs)
            g = PolicyGraph.of(HOSTS2, {("a", "b")})
            kind = lambda v: v[0] if isinstance(v, tuple) else v
            n = lambda v: v[1] if isinstance(v, tuple) else None
            expected_violation = (
                (kind(va) == "Unassigned" and kind(vb) != "Unassigned")
                or (
                    kind(va) == "Subnet"
                    and kind(vb) in ("Subnet", "BorderRouter")
                    and n(va) != n(vb)
                )
                or (kind(va) == "BorderRouter" and kind(vb) == "Subnet")
            )
            assert inv.holds(g) == (not expected_violation), (va, vb)


class TestSubnetsExtension:
    def test_border_router_prime_reaches_own_members(self):
        inv = instantiate(
            "Subnets", {"r": ("BorderRouterPrime", 1), "h": ("Subnet", 1)}
        )
        assert inv.holds(PolicyGraph.of({"r", "h"}, {("r", "h")}))
        other = instantiate(
            "Subnets", {"r": ("BorderRouterPrime", 2), "h": ("Subnet", 1)}
        )
        assert not other.holds(PolicyGraph.of({"r", "h"}, {("r", "h")}))

    def test_inbound_router_is_reachable_but_cannot_reach_members(self):
        attrs = {
            "i": "InboundRouter",
            "h": ("Subnet", 1),
            "x": "Unassigned",
            "f": ("Subnet", 2),
        }
        inv = instantiate("Subnets", attrs)
        for sender in ("h", "x", "f"):
            assert inv.holds(PolicyGraph.of(set(attrs), {(sender, "i")})), sender
        assert not inv.holds(PolicyGraph.of(set(attrs), {("i", "h")}))

    def test_chain_from_outside_over_routers_to_member(self):
        """bottom -> InboundRouter -> BorderRouterPrime -> member is the
        intended escalation path; every hop individually satisfies it."""
        attrs = {
            "o": "Unassigned",
            "i": "InboundRouter",
            "r": ("BorderRouterPrime", 1),
            "h": ("Subnet", 1),
        }
        inv = instantiate("Subnets", attrs)
        g = PolicyGraph.of(set(attrs), {("o", "i"), ("i", "r"), ("r", "h")})
        assert inv.holds(g)


class TestTaintingBlpBridge:
    def test_tainting_iff_blp_per_label(self):
        """One tainting invariant equals a BLP instance per taint label."""
        labels = ["x", "y"]
        label_sets = [frozenset(), frozenset("x"), frozenset("y"), frozenset("xy")]
        for combo in product(label_sets, repeat=3):
            attrs = dict(zip(HOSTS3, combo))
            taint = instantiate("TaintingSimple", attrs)
            for g in _bridge_graphs():
                lhs = taint.holds(g)
                rhs = all(
                    instantiate(
                        "BLPBasic",
                        {h: (1 if a in attrs.get(h, frozenset()) else 0) for h in HOSTS3},
                    ).holds(g)
                    for a in labels
                )
                assert lhs == rhs


def _bridge_graphs():
    pairs = [(s, r) for s in HOSTS3 for r in HOSTS3 if s != r]
    rng = random.Random(13)
    graphs = []
    for _ in range(40):
        graphs.append(
            PolicyGraph.of(HOSTS3, {p for p in pairs if rng.random() < 0.35})
        )
    return graphs


class TestSystemBoundary:
    def test_empty_spec(self):
        assert system_boundary_expand({}) == []

    def test_expected_pair(self):
        pair = system_boundary_expand({"internal": ["x"], "passive": ["g"]})
        assert [m.template_id for m in pair] == ["SubnetsInGW", "BLPTrusted"]
        acs, ifs = pair
        assert acs.attr_map("x") == "Member"
        assert acs.attr_map("g") == "InboundGateway"
        assert ifs.attr_map("x") == BlpAttr(1, False)
        assert ifs.attr_map("g") == BlpAttr(0, True)

    def test_blocks_exactly_boundary_crossings(self):
        """On all 3-node graphs the pair blocks outside->internal and
        internal->outside, and nothing else."""
        pair = system_boundary_expand({"internal": ["x"], "passive": ["g"]})
        hosts = ("x", "g", "o")
        for g in all_graphs(hosts):
            ok = all(m.holds(g) for m in pair)
            # g is a trusted boundary, so x<->g stays legal; the pair must
            # block exactly direct outside<->internal flows
            crossing = ("o", "x") in g.edges or ("x", "o") in g.edges
            assert ok == (not crossing), sorted(g.edges)

    def test_internal_only_isolates_both_ways(self):
        pair = system_boundary_expand({"internal": ["x"]})
        hosts = ("x", "o", "p")
        for g in all_graphs(hosts):
            ok = all(m.holds(g) for m in pair)
            crossing = any(
                (a, b) in g.edges
                for a, b in [("o", "x"), ("p", "x"), ("x", "o"), ("x", "p")]
            )
            assert ok == (not crossing), sorted(g.edges)


class TestSpecFile:
    def test_load_invariants(self):
        text = """
        [
          {"template": "BLPTrusted",
           "attrs": {"SensorSink": {"level": 2, "trust": true},
                      "Webcam": {"level": 3}}},
          {"template": "CommPartners",
           "attrs": {"db": {"master": ["app"]}, "app": "Care"}},
          {"template": "Subnets",
           "attrs": {"s": {"subnet": 1}, "r": {"border_router": 1}}},
          {"template": "Tainting",
           "attrs": {"anon": {"taints": ["energy"], "untaints": ["location"]}}},
          {"template": "SystemBoundary", "internal": ["x"], "passive": ["g"]}
        ]
        """
        invs = load_invariants(text)
        assert [m.template_id for m in invs] == [
            "BLPTrusted",
            "CommPartners",
            "Subnets",
            "Tainting",
            "SubnetsInGW",
            "BLPTrusted",
        ]
        assert invs[0].attr_map("SensorSink") == BlpAttr(2, True)
        assert invs[1].attr_map("db") == Master(("app",))
        assert invs[3].attr_map("anon") == TaintsSpec.of({"energy"}, {"location"})

    @pytest.mark.parametrize("text", [
        '[{"template": "Nope"}]', '{"x": 1}', "[{", '["BLPTrusted"]',
        '[{"template": "Subnets", "attrs": {"s": {"subnet": "one"}}}]',
        '[{"template": "Tainting", "attrs": {"a": ["energy"]}}]',
    ])
    def test_malformed_specification_is_illformed_spec(self, text):
        with pytest.raises(IllformedSpec):
            load_invariants(text)

    def test_attribute_type_errors_keep_their_type(self):
        with pytest.raises(AttrTypeMismatch):
            load_invariants('[{"template": "BLPBasic", "attrs": {"a": -1}}]')


class TestNameLists:
    """Every JSON list of host names or labels goes through one decoder,
    which refuses a string instead of splitting it into characters."""

    @pytest.mark.parametrize("entry", [
        {"template": "CommWith", "attrs": {"a": "db"}},
        {"template": "NotCommWith", "attrs": {"a": "db"}},
        {"template": "NotCommWith", "attrs": {"a": {"all_but": "db"}}},
        {"template": "CommPartners", "attrs": {"a": {"master": "db"}}},
        {"template": "TaintingSimple", "attrs": {"a": "x"}},
        {"template": "Tainting", "attrs": {"a": {"taints": "xy"}}},
        {"template": "Tainting", "attrs": {"a": {"taints": ["x"], "untaints": "x"}}},
        {"template": "SystemBoundary", "internal": "db"},
        {"template": "SystemBoundary", "internal": ["db"], "passive": "gw"},
        {"template": "SystemBoundary", "active": "gw"},
        {"template": "CommWith", "attrs": {"a": ["b", 5]}},
        {"template": "CommWith", "attrs": {"a": {"b": 1}}},
        {"template": "NotCommWith", "attrs": {"a": 7}},
    ], ids=lambda e: json.dumps(e, sort_keys=True))
    def test_non_lists_are_illformed_spec(self, entry):
        with pytest.raises(IllformedSpec):
            load_invariants(json.dumps([entry]))

    def test_lists_decode_to_names(self):
        invs = load_invariants(json.dumps([
            {"template": "CommWith", "attrs": {"a": ["db", "web"], "b": []}},
            {"template": "NotCommWith", "attrs": {"a": ["db"], "b": {"all_but": ["db", "web"]},
                                                  "c": []}},
            {"template": "CommPartners", "attrs": {"db": {"master": ["app", "web"]}}},
            {"template": "TaintingSimple", "attrs": {"a": ["x", "y"]}},
            {"template": "Tainting", "attrs": {"a": {"taints": ["x"], "untaints": ["y"]}}},
            {"template": "SystemBoundary", "internal": ["db"], "passive": ["gw"],
             "active": ["ops"]},
        ]))
        cw, ncw, cp, ts, t, gw, blp = invs
        assert cw.attr_map("a") == ("db", "web") and cw.attr_map("b") == ()
        assert ncw.attr_map("a") == HostSet(frozenset({"db"}))
        assert ncw.attr_map("b") == HostSet(frozenset({"db", "web"}), complemented=True)
        assert ncw.attr_map("c") == HostSet(frozenset())
        assert "db" in ncw.attr_map("a") and "web" not in ncw.attr_map("a")
        assert "db" not in ncw.attr_map("b") and "app" in ncw.attr_map("b")
        assert cp.attr_map("db") == Master(("app", "web"))
        assert ts.attr_map("a") == frozenset({"x", "y"})
        assert t.attr_map("a") == TaintsSpec.of({"x"}, {"y"})
        assert dict(gw.attr_map.partial) == {"db": "Member", "ops": "Member",
                                             "gw": "InboundGateway"}
        assert dict(blp.attr_map.partial) == {"db": BlpAttr(1), "ops": BlpAttr(0, True),
                                              "gw": BlpAttr(0, True)}

    def test_not_comm_with_decodes_as_its_definition(self):
        """A NotCommWith list names the hosts v must not reach; all_but
        names the only hosts it may reach."""
        g = PolicyGraph.of({"a", "db", "web"}, {("a", "web")})
        deny_db, deny_web = ({"template": "NotCommWith", "attrs": {"a": [h]}} for h in ("db", "web"))
        only_web = {"template": "NotCommWith", "attrs": {"a": {"all_but": ["web"]}}}
        only_db = {"template": "NotCommWith", "attrs": {"a": {"all_but": ["db"]}}}
        verdicts = [load_invariants(json.dumps([e]))[0].holds(g)
                    for e in (deny_db, deny_web, only_web, only_db)]
        assert verdicts == [True, False, True, False]
