import itertools
import random
from collections import Counter

import pytest

from conftest import load_ruleset
from test_semantics import _near_packet, _random_primitive, hash_oracle
from netfence import ruleset as rs
from netfence.cli import analyze_pipeline
from netfence.errors import IllformedRuleset, UnsupportedResidue
from netfence.parser import parse_ipassmt, parse_routing, parse_save
from netfence.ruleset import MNot, MPrim, MTrue, Rule, Table, mand
from netfence.semantics import (
    ALLOW,
    DENY,
    UNDECIDED,
    Packet,
    bigstep_evaluator,
    bool_matcher,
    ctstate_specialize,
    unfold,
)
from netfence.simplefw import (
    SimpleMatch,
    SimpleRule,
    iface_rewrite,
    prepare_for_simple,
    routing_to_ipassmt,
    simple_fw_eval,
    simple_match_any,
    simple_match_conj,
    simple_rules_table,
    simple_rules_to_save,
    translate_to_simple,
)
from netfence.wordinterval import (
    Cidr,
    WordInterval,
    family_width,
    ip_parse,
    parse_address_set,
    parse_cidr,
)


def cidr(text):
    return parse_cidr(text)


def full_pipeline(save_text, chain, tactic="in_doubt_allow", family="v4"):
    width = family_width(family)
    t = parse_save(save_text, family)
    unfolded = unfold(t, chain)
    specialized = ctstate_specialize(unfolded, "NEW")
    return translate_to_simple(prepare_for_simple(specialized, width), tactic, width)


class TestEval:
    def test_empty_ruleset_is_undecided(self):
        assert simple_fw_eval([], Packet()) == UNDECIDED

    def test_catch_all_drop(self):
        assert simple_fw_eval([SimpleRule(simple_match_any(), False)], Packet()) == DENY

    def test_first_match_wins(self):
        rules = [
            SimpleRule(SimpleMatch(src=cidr("10.0.0.0/8")), True),
            SimpleRule(simple_match_any(), False),
        ]
        assert simple_fw_eval(rules, Packet(src=ip_parse("10.1.1.1"))) == ALLOW
        assert simple_fw_eval(rules, Packet(src=ip_parse("11.1.1.1"))) == DENY

    def test_ports_require_port_protocol(self):
        with pytest.raises(IllformedRuleset):
            SimpleMatch(proto=1, dports=(80, 80))

    def test_empty_match(self):
        m = SimpleMatch(proto=6, sports=(10, 5))
        assert m.is_empty()


class TestSimpleMatchMembership:
    @pytest.mark.parametrize("width", [32, 128])
    def test_prefix_test_equals_interval_membership(self, width):
        """The shift test on addresses agrees with membership in the CIDR's
        interval for every prefix length, at the block edges and for
        integers outside the word width."""
        rng = random.Random(width)
        top = 1 << width
        prefixes = range(33) if width == 32 else sorted({0, 1, 31, 32, 64, 127, 128}
                                                       | set(rng.sample(range(129), 20)))
        for prefix in prefixes:
            for _ in range(20):
                host_bits = width - prefix
                src = Cidr(rng.getrandbits(width) >> host_bits << host_bits, prefix, width)
                dst = Cidr(rng.getrandbits(width) >> host_bits << host_bits, prefix, width)
                m = SimpleMatch(width, src=src, dst=dst)
                lo, hi = src.base, src.base | src.hostmask()
                values = [lo - 1, lo, lo + 1, hi - 1, hi, hi + 1, dst.base, -1, top, top + lo,
                          rng.getrandbits(width), rng.getrandbits(width + 8) - (1 << width)]
                for a in values:
                    for b in (a, dst.base, dst.base - 1, dst.base | dst.hostmask()):
                        p = Packet(src=a, dst=b)
                        assert m.matches(p) == (a in src.interval() and b in dst.interval())

    def test_wildcard_and_named_interfaces(self):
        rng = random.Random(3)
        names = ["eth0", "eth1", "eth", "lo", "", "wild0", "+", "eth0+"]
        patterns = ["+", "eth+", "eth0", "lo", "wild+", "e+", "eth0+"]
        for _ in range(2000):
            iif, oif = rng.choice(patterns), rng.choice(patterns)
            p = Packet(iiface=rng.choice(names), oiface=rng.choice(names))
            expected = rs.match_iface(iif, p.iiface) and rs.match_iface(oif, p.oiface)
            assert SimpleMatch(iiface=iif, oiface=oif).matches(p) == expected


class TestConjunction:
    def test_src_nested_cidrs(self):
        a = SimpleMatch(src=cidr("10.0.0.0/8"))
        b = SimpleMatch(src=cidr("10.0.0.0/9"))
        assert simple_match_conj(a, b).src == cidr("10.0.0.0/9")

    def test_concrete_iface_dominates_wildcard(self):
        a = SimpleMatch(iiface="eth+")
        b = SimpleMatch(iiface="eth0")
        assert simple_match_conj(a, b).iiface == "eth0"

    def test_disjoint_protocols(self):
        assert simple_match_conj(SimpleMatch(proto=6), SimpleMatch(proto=17)) is None

    def test_conjunction_law_random(self):
        """match m1 p and match m2 p iff match (conj m1 m2) p."""
        rng = random.Random(99)

        def rand_match():
            proto = rng.choice([None, None, 6, 17])
            kw = {}
            if proto in (6, 17) and rng.random() < 0.6:
                lo = rng.randrange(0, 65535)
                kw["dports"] = (lo, min(65535, lo + rng.randrange(2000)))
            plen = rng.choice([0, 8, 16, 24, 32])
            base = rng.getrandbits(32) & ~((1 << (32 - plen)) - 1) & 0xFFFFFFFF
            return SimpleMatch(
                iiface=rng.choice(["+", "eth+", "eth0", "lo"]),
                src=parse_cidr(f"{base >> 24 & 255}.{base >> 16 & 255}.{base >> 8 & 255}.{base & 255}/{plen}"),
                proto=proto,
                **kw,
            )

        checked = 0
        for _ in range(3000):
            m1, m2 = rand_match(), rand_match()
            both = simple_match_conj(m1, m2)
            p = Packet(
                iiface=rng.choice(["eth0", "eth1", "lo"]),
                src=rng.getrandbits(32),
                protocol=rng.choice([1, 6, 17]),
                dport=rng.getrandbits(16),
            )
            lhs = m1.matches(p) and m2.matches(p)
            rhs = both is not None and both.matches(p)
            assert lhs == rhs
            checked += 1
        assert checked == 3000

    def test_conj_of_wellformed_is_wellformed(self):
        a = SimpleMatch(proto=6, dports=(22, 22))
        b = SimpleMatch(proto=6, sports=(1024, 65535))
        c = simple_match_conj(a, b)
        assert c.proto == 6 and c.dports == (22, 22) and c.sports == (1024, 65535)


class TestTranslation:
    def test_forward_foo_example(self):
        simple = full_pipeline(load_ruleset("forward_foo.iptables"), "FORWARD")
        assert simple_rules_table(simple).splitlines() == [
            "(+, +, 10.128.0.0/9, *, *, *, *) DROP",
            "(+, +, 10.0.0.0/8, *, tcp, *, *) ACCEPT",
            "(+, +, *, *, *, *, *) DROP",
        ]

    def test_return_ports_example(self):
        simple = full_pipeline(load_ruleset("return_ports.iptables"), "FORWARD")
        assert simple_rules_table(simple).splitlines() == [
            "(+, +, *, *, udp, *, 0:79) DROP",
            "(+, +, *, *, udp, *, 81:65535) DROP",
            "(+, +, *, *, tcp, 0:21, *) DROP",
            "(+, +, *, *, tcp, 23:65535, *) DROP",
            "(+, +, *, *, *, *, *) ACCEPT",
        ]

    def test_iprange_blowup_to_62_rules(self):
        text = (
            "*filter\n:FORWARD DROP [0:0]\n"
            "-A FORWARD -m iprange --src-range 0.0.0.1-255.255.255.254 -j ACCEPT\nCOMMIT\n"
        )
        simple = full_pipeline(text, "FORWARD")
        accepts = [r for r in simple if r.accept]
        assert len(accepts) == 62

    def test_unsupported_residue(self):
        with pytest.raises(UnsupportedResidue):
            prepare_for_simple([Rule(MPrim(rs.CtState(frozenset({"NEW"}))), rs.ACCEPT)])

    def test_unknown_box_is_kept_or_dropped_whole(self):
        """An accept box with an unknown literal matches under
        in_doubt_allow and is dropped under in_doubt_deny; kept, it ends
        the list when nothing known is left of it."""
        limit = MPrim(rs.Extra("-m limit"))
        tcp = MPrim(rs.Protocol(6))
        boxes = prepare_for_simple([Rule(mand(limit, tcp), rs.ACCEPT), Rule(limit, rs.ACCEPT),
                                    Rule(MTrue, rs.DROP)])
        assert [b.unknown for b in boxes] == [True, True, False]
        assert [b.known for b in boxes] == [True, False, False]
        upper = simple_rules_table(translate_to_simple(boxes, "in_doubt_allow"))
        lower = simple_rules_table(translate_to_simple(boxes, "in_doubt_deny"))
        assert upper.splitlines() == ["(+, +, *, *, tcp, *, *) ACCEPT", "(+, +, *, *, *, *, *) ACCEPT"]
        assert lower.splitlines() == ["(+, +, *, *, *, *, *) DROP"]

    def test_address_catch_all_is_known(self):
        """-s 0.0.0.0/0 is a literal the box expresses, so a rule made of it
        and an unknown does not end the list."""
        anywhere = MPrim(rs.Src(WordInterval.universe(32)))
        rules = [Rule(mand(anywhere, MPrim(rs.Extra("-m limit"))), rs.ACCEPT), Rule(MTrue, rs.DROP)]
        out = translate_to_simple(prepare_for_simple(rules), "in_doubt_allow")
        assert [r.accept for r in out] == [True, False]

    def test_contradicting_protocol_conjunction_drops_rule(self):
        tcp = MPrim(rs.Protocol(6))
        udp = MPrim(rs.Protocol(17))
        for m in (mand(tcp, MNot(tcp)), mand(tcp, udp)):
            assert translate_to_simple(prepare_for_simple([Rule(m, rs.ACCEPT)])) == []

    def test_compatible_negated_protocol_is_absorbed(self):
        tcp = MPrim(rs.Protocol(6))
        udp = MPrim(rs.Protocol(17))
        out = translate_to_simple(prepare_for_simple([Rule(mand(udp, MNot(tcp)), rs.ACCEPT)]))
        assert len(out) == 1 and out[0].match.proto == 17

    def test_wellformedness_of_output(self):
        for name, chain in [
            ("synology.iptables", "INPUT"),
            ("example_ruleset.iptables", "FORWARD"),
            ("return_ports.iptables", "FORWARD"),
        ]:
            for r in full_pipeline(load_ruleset(name), chain):
                if r.match.sports != (0, 65535) or r.match.dports != (0, 65535):
                    assert r.match.proto in (6, 17, 132)

    @pytest.mark.parametrize(
        "name,chain",
        [
            ("synology.iptables", "INPUT"),
            ("example_ruleset.iptables", "FORWARD"),
            ("fwbuilder.iptables", "INPUT"),
            ("blogpost.iptables", "INPUT"),
            ("forward_foo.iptables", "FORWARD"),
            ("return_ports.iptables", "FORWARD"),
        ],
    )
    def test_translation_sandwich(self, name, chain):
        """bigstep-accept implies upper-simple-accept; lower-simple-accept
        implies bigstep-accept; for NEW packets under random oracles."""
        table = parse_save(load_ruleset(name))
        upper = full_pipeline(load_ruleset(name), chain, "in_doubt_allow")
        lower = full_pipeline(load_ruleset(name), chain, "in_doubt_deny")
        rng = random.Random(hash(name) & 0xFFFF)

        def oracle(text, p):
            return (hash((text, p.src, p.dst)) & 3) == 0

        ev = bigstep_evaluator(table, chain, bool_matcher(oracle))
        for _ in range(3000):
            p = Packet(
                iiface=rng.choice(["eth0", "lo", "internal"]),
                oiface="eth0",
                src=rng.getrandbits(32),
                dst=rng.getrandbits(32),
                protocol=rng.choice([1, 6, 17]),
                sport=rng.getrandbits(16),
                dport=rng.getrandbits(16),
                tcp_flags=frozenset({"SYN"}),
                ctstate="NEW",
            )
            exact = ev(p)
            if exact == ALLOW:
                assert simple_fw_eval(upper, p) == ALLOW
            if simple_fw_eval(lower, p) == ALLOW:
                assert exact == ALLOW

    def test_emitted_ruleset_parses_back_identically(self):
        for (name, chain, family), tactic in itertools.product([
            ("forward_foo.iptables", "FORWARD", "v4"),
            ("return_ports.iptables", "FORWARD", "v4"),
            ("synology.iptables", "INPUT", "v4"),
            ("ipv6_host.iptables", "INPUT", "v6"),
        ], ["in_doubt_allow", "in_doubt_deny"]):
            simple = full_pipeline(load_ruleset(name), chain, tactic, family)
            assert simple
            text = simple_rules_to_save(simple, chain=chain)
            reparsed = parse_save(text, family)
            width = family_width(family)
            again = translate_to_simple(prepare_for_simple(unfold(reparsed, chain), width),
                                        tactic, width)
            assert again == simple


class TestIfaceRewrite:
    def setup_method(self):
        self.boxes = prepare_for_simple([
            Rule(mand(MPrim(rs.IIface("eth0")), MPrim(rs.Protocol(6))), rs.ACCEPT),
            Rule(MPrim(rs.IIface("weird")), rs.ACCEPT),
            Rule(MTrue, rs.DROP),
        ])
        self.ipassmt = parse_ipassmt("eth0 = [192.168.0.0/24]")

    def test_constrain_keeps_iface_and_unmapped_rules(self):
        out = iface_rewrite(self.boxes, self.ipassmt)
        assert out[0].iiface == "eth0"
        assert out[0].src == parse_address_set("192.168.0.0/24")
        assert out[1:] == self.boxes[1:]

    def test_constrain_out_field(self):
        boxes = prepare_for_simple([Rule(MPrim(rs.OIface("eth0")), rs.ACCEPT)])
        out = iface_rewrite(boxes, self.ipassmt, field="out")
        assert out[0].dst == parse_address_set("192.168.0.0/24")
        assert out[0].src == WordInterval.universe(32)

    def test_wildcard_pattern_is_not_narrowed_by_a_name_it_matches(self):
        """-i eth+ also matches eth1, whose sources eth0's range says
        nothing about: the upper closure must let 8.8.8.8 in on eth1, as
        the exact semantics does."""
        text = "*filter\n:FORWARD DROP [0:0]\n-A FORWARD -i eth+ -j ACCEPT\nCOMMIT\n"
        ipassmt = parse_ipassmt("eth0 = [10.0.0.0/8]")
        upper = analyze_pipeline(text, ipassmt=ipassmt)["simple"]
        boxes = prepare_for_simple(unfold(parse_save(text), "FORWARD"))
        assert iface_rewrite(boxes, ipassmt) == boxes
        p = Packet(iiface="eth1", src=ip_parse("8.8.8.8"))
        assert simple_fw_eval(upper, p) == ALLOW
        assert bigstep_evaluator(parse_save(text), "FORWARD")(p) == ALLOW


class TestRoutingInversion:
    def test_single_default_route(self):
        routes = parse_routing("default dev eth0")
        assert routing_to_ipassmt(routes) == {"eth0": WordInterval.universe(32)}

    def test_lpm_inversion(self):
        routes = parse_routing("default dev eth0\n10.0.0.0/8 dev br0")
        m = routing_to_ipassmt(routes)
        ten = parse_address_set("10.0.0.0/8")
        assert m["br0"] == ten
        assert m["eth0"] == ten.complement()

    def test_two_disjoint_prefixes(self):
        routes = parse_routing("10.1.0.0/24 dev a\n10.2.0.0/24 dev b")
        m = routing_to_ipassmt(routes)
        assert m["a"] == parse_address_set("10.1.0.0/24")
        assert m["b"] == parse_address_set("10.2.0.0/24")

    def test_more_specific_wins(self):
        routes = parse_routing("10.0.0.0/8 dev coarse\n10.0.0.0/16 dev fine")
        m = routing_to_ipassmt(routes)
        assert parse_address_set("10.0.0.0/16").issubset(m["fine"])
        assert m["coarse"].isdisjoint(m["fine"])


def _random_table(rng, n_chains=4):
    """A random acyclic FORWARD table shaped like test_semantics'
    _random_jump_table, whose rules conjoin up to two random primitives,
    some of them negated."""
    names = ["FORWARD"] + [f"c{i}" for i in range(1, n_chains)]
    chains = {}
    for i, name in enumerate(names):
        later = names[i + 1:]
        rules = []
        for _ in range(rng.randrange(5)):
            lits = [MPrim(_random_primitive(rng)) for _ in range(rng.randint(0, 2))]
            m = mand(*(MNot(lit) if rng.random() < 0.3 else lit for lit in lits))
            kind = rng.choice(["accept", "drop", "return"] + ["call", "goto"] * bool(later))
            rules.append(Rule(m, rs.Action(kind, rng.choice(later) if kind in ("call", "goto")
                                           else None)))
        chains[name] = rules
    return Table(chains, {"FORWARD": rng.choice([rs.ACCEPT, rs.DROP])})


class TestWholePathSandwich:
    """unfold -> ctstate -> prepare -> iface_rewrite -> translate on random
    tables: whatever the lower closure allows the exact semantics allows,
    and whatever the exact semantics allows the upper closure allows, for
    NEW SYN packets whose source lies in their input interface's range."""

    IPASSMT = {"eth0": parse_address_set("0.0.0.0/16"), "lo": parse_address_set("127.0.0.0/8")}

    def packet(self, rng, m):
        p = _near_packet(rng, m).with_(ctstate="NEW", tcp_flags=frozenset({"SYN"}))
        assigned = self.IPASSMT.get(p.iiface)
        if assigned is not None and p.src not in assigned:
            (lo, hi), = assigned.parts
            p = p.with_(src=lo + p.src % (hi - lo + 1))
        return p

    def test_lower_allows_imply_exact_allows_imply_upper_allows(self):
        rng = random.Random(5)
        checked = Counter()
        for seed in range(150):
            table = _random_table(rng)
            boxes = iface_rewrite(
                prepare_for_simple(ctstate_specialize(unfold(table, "FORWARD"), "NEW")),
                self.IPASSMT)
            upper = translate_to_simple(boxes, "in_doubt_allow")
            lower = translate_to_simple(boxes, "in_doubt_deny")
            evaluate = bigstep_evaluator(table, "FORWARD", bool_matcher(hash_oracle(seed)))
            every_match = mand(*(r.match for rules in table.chains.values() for r in rules))
            for _ in range(60):
                p = self.packet(rng, every_match)
                exact = evaluate(p)
                if simple_fw_eval(lower, p) == ALLOW:
                    assert exact == ALLOW, (seed, p)
                if exact == ALLOW:
                    assert simple_fw_eval(upper, p) == ALLOW, (seed, p)
                checked[exact] += 1
        assert checked[ALLOW] > 1000 and checked[DENY] > 1000
