import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest

from checkers import (doubling_returns, fieldwise_meet, per_box_translation,
                      rebuilding_ctstate_specialize, return_ladder, seeded_return_ladder)
from conftest import CORPUS, DATA, load_ruleset, stable_hash
from test_semantics import _near_packet, _random_primitive, hash_oracle
from netfence import ruleset as rs
from netfence import simplefw
from netfence.cli import analyze_pipeline, main
from netfence.errors import IllformedRuleset, TooManyBoxes, UnsupportedResidue
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
    normalize_nnf,
    unfold,
)
from netfence.simplefw import (
    MAX_BOXES,
    PORT_UNIV,
    SimpleMatch,
    SimpleRule,
    SimpleRules,
    _PreBox,
    _as_rule,
    _meet,
    iface_rewrite,
    prepare_for_simple,
    routing_to_ipassmt,
    simple_fw_eval,
    simple_rules_table,
    simple_rules_to_save,
    translate_to_simple,
)
from netfence.spoofing import sp_certify_all
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
    return translate_to_simple(prepare_for_simple(specialized, width), tactic)


class TestEval:
    def test_empty_ruleset_is_undecided(self):
        assert simple_fw_eval([], Packet()) == UNDECIDED

    def test_catch_all_drop(self):
        assert simple_fw_eval([SimpleRule(SimpleMatch(), False)], Packet()) == DENY

    def test_first_match_wins(self):
        rules = [
            SimpleRule(SimpleMatch(src=cidr("10.0.0.0/8")), True),
            SimpleRule(SimpleMatch(), False),
        ]
        assert simple_fw_eval(rules, Packet(src=ip_parse("10.1.1.1"))) == ALLOW
        assert simple_fw_eval(rules, Packet(src=ip_parse("11.1.1.1"))) == DENY

    def test_ports_require_port_protocol(self):
        with pytest.raises(IllformedRuleset):
            SimpleMatch(proto=1, dports=(80, 80))


class TestRuleIndex:
    """simple_fw_eval on a SimpleRules answers from its tuple space index;
    walking the same rules as a list is the definition."""

    IFACES = ["+", "eth+", "eth0", "eth1", "lo"]
    NAMES = ["eth0", "eth1", "eth", "lo", "ppp9", ""]

    @staticmethod
    def _blocks(rng, width):
        """Nested blocks /0 to /width around two random addresses, every
        prefix for v4 and every fourth for v6, and a few unrelated ones."""
        out = []
        for _ in range(2):
            a = rng.getrandbits(width)
            out += [Cidr(a >> h << h, width - h, width) for h in range(0, width + 1, width // 32)]
        out += [Cidr(rng.getrandbits(width) >> h << h, width - h, width)
                for h in rng.sample(range(width + 1), 4)]
        return out

    def _random_rules(self, rng, widths):
        blocks = {w: self._blocks(rng, w) for w in widths}
        rules = []
        for _ in range(rng.randrange(1, 40)):
            width = rng.choice(widths)
            proto = rng.choice((None, None, 6, 17, 132, 1, 47))
            ports = [rng.choice([PORT_UNIV, PORT_UNIV, (80, 80), (1024, 65535), (0, 1023)])
                     if proto in (6, 17, 132) else PORT_UNIV for _ in range(2)]
            m = SimpleMatch(width, rng.choice(self.IFACES), rng.choice(self.IFACES),
                            rng.choice(blocks[width]), rng.choice(blocks[width]), proto, *ports)
            rules.append(SimpleRule(m, rng.random() < 0.5))
        return rules

    def _packets(self, rng, rules, n):
        """Packets inside a random rule's tuple, with up to two fields moved
        to a block's edge, outside the word width, or to ports, protocols
        and names no rule holds."""
        def address(c):
            lo, hi, top = c.base, c.base | c.hostmask(), 1 << c.width
            return rng.choice([lo, hi, lo - 1, hi + 1, rng.randint(lo, hi), -1, -top, top,
                               top + lo, rng.getrandbits(c.width), rng.getrandbits(136)])

        def name(pattern):
            return rng.choice(self.NAMES) if pattern == "+" else pattern.rstrip("+") + "0" * (
                pattern.endswith("+") and rng.random() < 0.5)

        out = []
        for _ in range(n):
            m = rng.choice(rules).match if rules else SimpleMatch()
            p = Packet(iiface=name(m.iiface), oiface=name(m.oiface),
                       src=rng.randint(m.src.base, m.src.base | m.src.hostmask()),
                       dst=rng.randint(m.dst.base, m.dst.base | m.dst.hostmask()),
                       protocol=rng.choice((6, 17, 1)) if m.proto is None else m.proto,
                       sport=rng.randint(*m.sports), dport=rng.randint(*m.dports))
            for _ in range(rng.randrange(3)):
                c = rng.choice(rules).match if rules else m
                p = p.with_(**rng.choice([
                    {"iiface": rng.choice(self.NAMES)}, {"oiface": rng.choice(self.NAMES)},
                    {"src": address(c.src)}, {"dst": address(c.dst)},
                    {"protocol": rng.choice((0, 6, 17, 47, 132, 255, -1, 256))},
                    {"sport": rng.choice((0, 1023, 1024, 65535, -1, 65536))},
                    {"dport": rng.choice((80, 1023, 1024, 65535, -1, 65536))}]))
            out.append(p)
        return out

    def _agree(self, rules, packets):
        indexed = SimpleRules(rules)
        verdicts = Counter()
        for p in packets:
            verdict = simple_fw_eval(indexed, p)
            assert verdict == simple_fw_eval(list(rules), p), (p, rules)
            verdicts[verdict] += 1
        return verdicts

    @pytest.mark.parametrize("widths", [(32,), (128,), (32, 128)])
    def test_index_equals_the_walk_on_random_rules(self, widths):
        rng = random.Random(sum(widths))
        verdicts = Counter()
        for _ in range(300):
            rules = self._random_rules(rng, widths)
            verdicts += self._agree(rules, self._packets(rng, rules, 40))
        assert min(verdicts[v] for v in (ALLOW, DENY, UNDECIDED)) > 2000, verdicts

    def test_empty_list_is_undecided(self):
        rng = random.Random(0)
        assert self._agree([], self._packets(rng, [], 50)) == Counter({UNDECIDED: 50})

    @pytest.mark.parametrize("name", sorted(f.name for f in DATA.glob("*.iptables")))
    def test_index_equals_the_walk_on_the_corpus(self, name):
        text = load_ruleset(name)
        family = "v6" if "ipv6" in name else "v4"
        rng = random.Random(stable_hash(name) & 0xFFFF)
        closures = 0
        for chain in ("FORWARD", "INPUT", "OUTPUT"):
            if chain not in parse_save(text, family).chains:
                continue
            for tactic in ("in_doubt_allow", "in_doubt_deny"):
                rules = full_pipeline(text, chain, tactic, family)
                assert isinstance(rules, SimpleRules)
                self._agree(list(rules), self._packets(rng, list(rules), 500))
                closures += 1
        assert closures >= 2

    def test_index_is_built_once_on_the_first_evaluation(self):
        rules = full_pipeline(load_ruleset("webapp_central.iptables"), "FORWARD")
        assert "index" not in vars(rules)
        packets = self._packets(random.Random(1), list(rules), 20)
        simple_fw_eval(rules, packets[0])
        index = vars(rules)["index"]
        for p in packets:
            simple_fw_eval(rules, p)
        assert vars(rules)["index"] is index

    def test_analysis_leaves_the_index_unbuilt(self, monkeypatch, tmp_path):
        made = []

        class Recorded(SimpleRules):
            def __new__(cls, rules):
                made.append(super().__new__(cls, rules))
                return made[-1]

        monkeypatch.setattr(simplefw, "SimpleRules", Recorded)
        text = load_ruleset("webapp_central.iptables")
        assert analyze_pipeline(text, chain="FORWARD")["simple"] is made[0]
        ruleset = tmp_path / "rules.iptables"
        ruleset.write_text(text)
        argv = ["analyze", "--input", str(ruleset), "--chain", "FORWARD", "--closure", "both",
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        assert len(made) == 3 and not any("index" in vars(rules) for rules in made)


class TestSimpleMatchMembership:
    @pytest.mark.parametrize("width", [32, 128])
    def test_prefix_test_equals_interval_membership(self, width):
        """The compiled address test agrees with membership in the CIDR's
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

    @pytest.mark.parametrize("width", [32, 128])
    def test_compiled_test_equals_the_definition(self, width):
        """Random 7-tuples with `+` and odd interface names, /0 to /width
        blocks, any protocol, and empty or full port ranges, on packets at
        the edges and outside the word and port widths."""
        rng = random.Random(width + 1)
        top = 1 << width
        names = ["eth0", "eth1", "eth", "", "+", "it's", 'a"b\\', "x\n"]
        patterns = ["+", "eth+", "eth0", "", "it's", 'a"b\\', "x\n+", "'+"]

        def definition(m, p):
            return (rs.match_iface(m.iiface, p.iiface) and rs.match_iface(m.oiface, p.oiface)
                    and p.src in m.src.interval() and p.dst in m.dst.interval()
                    and m.proto in (None, p.protocol)
                    and m.sports[0] <= p.sport <= m.sports[1]
                    and m.dports[0] <= p.dport <= m.dports[1])

        def block(prefix):
            host_bits = width - prefix
            return Cidr(rng.getrandbits(width) >> host_bits << host_bits, prefix, width)

        def edges(wi):
            (lo, hi), = wi.parts
            return [lo - 1, lo, hi, hi + 1, -1, top, rng.getrandbits(width)]

        seen = Counter()
        for _ in range(300):
            proto = rng.choice((None, 1, 6, 17))
            ports = [rng.choice([PORT_UNIV, (80, 80), (1024, 65535), (5, 3), (0, 0)])
                     if proto in (6, 17) else PORT_UNIV for _ in range(2)]
            m = SimpleMatch(width, rng.choice(patterns), rng.choice(patterns),
                            block(rng.choice((0, width, rng.randrange(width + 1)))),
                            block(rng.choice((0, width, rng.randrange(width + 1)))),
                            proto, *ports)
            text, digest = repr(m), hash(m)
            inside = Packet(iiface=m.iiface.rstrip("+"), oiface=m.oiface.rstrip("+") + "0",
                            src=m.src.base, dst=m.dst.base | m.dst.hostmask(),
                            protocol=proto or 47, sport=m.sports[0], dport=m.dports[1])
            for _ in range(20):
                # a packet inside the tuple with up to two fields moved to an edge
                p = inside
                for _ in range(rng.randrange(3)):
                    p = p.with_(**rng.choice([
                        {"iiface": rng.choice(names)}, {"oiface": rng.choice(names)},
                        {"src": rng.choice(edges(m.src.interval()))},
                        {"dst": rng.choice(edges(m.dst.interval()))},
                        {"protocol": rng.choice((1, 6, 17))},
                        {"sport": rng.choice((-1, 0, 3, 5, 80, 1024, 65535, 65536))},
                        {"dport": rng.choice((-1, 0, 3, 5, 80, 1024, 65535, 65536))}]))
                expected = definition(m, p)
                assert m.matches(p) is expected
                seen[expected] += 1
            assert (repr(m), hash(m)) == (text, digest) and m == replace(m)
        assert seen[True] > 100 and seen[False] > 100

    def test_one_code_per_shape(self):
        """The test is compiled once per match; interface names are
        arguments, so odd names share the code of plain ones."""
        plain, odd = SimpleMatch(iiface="eth0"), SimpleMatch(iiface="'); raise SystemExit #")
        for m in (plain, odd):
            assert m.matches(Packet(iiface=m.iiface)) is True
            assert m.matches(Packet(iiface=m.iiface + "\n")) is False
        assert vars(plain)["matches"].__code__ is vars(odd)["matches"].__code__


class TestConjunction:
    """The box reader conjoins the literals of one rule: the rule that
    matches both simple matches translates back to their conjunction."""

    @staticmethod
    def conj(a, b):
        rule = Rule(mand(_as_rule(SimpleRule(a, True)).match,
                         _as_rule(SimpleRule(b, True)).match), rs.ACCEPT)
        simple = translate_to_simple(prepare_for_simple([rule], 32))
        assert len(simple) <= 1
        return simple[0].match if simple else None

    def test_src_nested_cidrs(self):
        a = SimpleMatch(src=cidr("10.0.0.0/8"))
        b = SimpleMatch(src=cidr("10.0.0.0/9"))
        assert self.conj(a, b).src == cidr("10.0.0.0/9")

    def test_concrete_iface_dominates_wildcard(self):
        a = SimpleMatch(iiface="eth+")
        b = SimpleMatch(iiface="eth0")
        assert self.conj(a, b).iiface == "eth0"

    def test_disjoint_protocols(self):
        assert self.conj(SimpleMatch(proto=6), SimpleMatch(proto=17)) is None

    def test_two_wildcard_interfaces(self):
        """`-i eth+` inside a chain called with `-i e+` keeps the longer
        prefix; two wildcards that share no name conjoin to nothing."""
        assert self.conj(SimpleMatch(iiface="e+"), SimpleMatch(iiface="eth+")).iiface == "eth+"
        assert self.conj(SimpleMatch(oiface="eth+"), SimpleMatch(oiface="e+")).oiface == "eth+"
        assert self.conj(SimpleMatch(iiface="eth+"), SimpleMatch(iiface="lo+")) is None

    def test_iface_conj_equals_both_matches(self):
        """iface_conj(a, b) matches a name exactly when a and b both
        match it, and None matches nothing: every pair of patterns, on
        names that are prefixes, extensions and neighbours of them."""
        patterns = ["+", "e+", "eth+", "eth0+", "eth1+", "lo+", "eth", "eth0", "eth01", "lo", ""]
        names = ["", "e", "et", "eth", "eth0", "eth01", "eth1", "eth10", "lo", "lo0", "wlan0",
                 "+", "eth+"]
        for a in patterns:
            for b in patterns:
                both = rs.iface_conj(a, b)
                for n in names:
                    expected = rs.match_iface(a, n) and rs.match_iface(b, n)
                    assert (both is not None and rs.match_iface(both, n)) == expected, (a, b, n)

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
            both = self.conj(m1, m2)
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
        c = self.conj(a, b)
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
            prepare_for_simple([Rule(MPrim(rs.CtState(frozenset({"NEW"}))), rs.ACCEPT)], 32)

    @pytest.mark.parametrize("action", [rs.REJECT, rs.LOG])
    def test_only_accept_and_drop_rules_are_read(self, action):
        """unfold emits only Accept and Drop; a Reject is not read as a
        Drop, nor a Log skipped."""
        tcp = MPrim(rs.Protocol(6))
        with pytest.raises(IllformedRuleset, match="Accept/Drop"):
            prepare_for_simple([Rule(tcp, action), Rule(MTrue, rs.DROP)], 32)

    def test_unknown_box_is_kept_or_dropped_whole(self):
        """An accept box with an unknown literal matches under
        in_doubt_allow and is dropped under in_doubt_deny; kept, it ends
        the list when nothing known is left of it."""
        limit = MPrim(rs.Extra("-m limit"))
        tcp = MPrim(rs.Protocol(6))
        boxes = prepare_for_simple([Rule(mand(limit, tcp), rs.ACCEPT), Rule(limit, rs.ACCEPT),
                                    Rule(MTrue, rs.DROP)], 32)
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
        out = translate_to_simple(prepare_for_simple(rules, 32), "in_doubt_allow")
        assert [r.accept for r in out] == [True, False]

    def test_contradicting_protocol_conjunction_drops_rule(self):
        tcp = MPrim(rs.Protocol(6))
        udp = MPrim(rs.Protocol(17))
        for m in (mand(tcp, MNot(tcp)), mand(tcp, udp)):
            assert list(translate_to_simple(prepare_for_simple([Rule(m, rs.ACCEPT)], 32))) == []

    def test_compatible_negated_protocol_is_absorbed(self):
        tcp = MPrim(rs.Protocol(6))
        udp = MPrim(rs.Protocol(17))
        out = translate_to_simple(prepare_for_simple([Rule(mand(udp, MNot(tcp)), rs.ACCEPT)], 32))
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
        rng = random.Random(stable_hash(name) & 0xFFFF)

        def oracle(text, p):
            return (stable_hash(text, p.src, p.dst) & 3) == 0

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
                                        tactic)
            assert again == simple

    def test_v6_rules_translate_at_their_width(self):
        """Preparation takes the width with no default, and translation
        reads it off the boxes: v6 rules without -s/-d give 128-bit simple
        matches, not 32-bit ones over 128-bit CIDRs."""
        table = parse_save(load_ruleset("ipv6_host.iptables"), "v6")
        rules = ctstate_specialize(unfold(table, "INPUT"), "NEW")
        with pytest.raises(TypeError):
            prepare_for_simple(rules)
        for tactic in ("in_doubt_allow", "in_doubt_deny"):
            simple = translate_to_simple(prepare_for_simple(rules, 128), tactic)
            assert any(r.match.src.prefix == r.match.dst.prefix == 0 for r in simple)
            assert {(r.match.width, r.match.src.width, r.match.dst.width)
                    for r in simple} == {(128, 128, 128)}


class TestIfaceRewrite:
    def setup_method(self):
        self.boxes = prepare_for_simple([
            Rule(mand(MPrim(rs.IIface("eth0")), MPrim(rs.Protocol(6))), rs.ACCEPT),
            Rule(MPrim(rs.IIface("weird")), rs.ACCEPT),
            Rule(MTrue, rs.DROP),
        ], 32)
        self.ipassmt = parse_ipassmt("eth0 = [192.168.0.0/24]")

    def test_constrain_keeps_iface_and_unmapped_rules(self):
        out = iface_rewrite(self.boxes, self.ipassmt)
        assert out[0].iiface == "eth0"
        assert out[0].src == parse_address_set("192.168.0.0/24")
        assert out[1:] == self.boxes[1:]

    def test_constrain_out_field(self):
        boxes = prepare_for_simple([Rule(MPrim(rs.OIface("eth0")), rs.ACCEPT)], 32)
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
        boxes = prepare_for_simple(unfold(parse_save(text), "FORWARD"), 32)
        assert iface_rewrite(boxes, ipassmt) == boxes
        p = Packet(iiface="eth1", src=ip_parse("8.8.8.8"))
        assert simple_fw_eval(upper, p) == ALLOW
        assert bigstep_evaluator(parse_save(text), "FORWARD")(p) == ALLOW


class TestRoutingInversion:
    def test_single_default_route(self):
        routes = parse_routing("default dev eth0")
        assert routing_to_ipassmt(routes, 32) == {"eth0": WordInterval.universe(32)}

    def test_lpm_inversion(self):
        routes = parse_routing("default dev eth0\n10.0.0.0/8 dev br0")
        m = routing_to_ipassmt(routes, 32)
        ten = parse_address_set("10.0.0.0/8")
        assert m["br0"] == ten
        assert m["eth0"] == ten.complement()

    def test_two_disjoint_prefixes(self):
        routes = parse_routing("10.1.0.0/24 dev a\n10.2.0.0/24 dev b")
        m = routing_to_ipassmt(routes, 32)
        assert m["a"] == parse_address_set("10.1.0.0/24")
        assert m["b"] == parse_address_set("10.2.0.0/24")

    def test_more_specific_wins(self):
        routes = parse_routing("10.0.0.0/8 dev coarse\n10.0.0.0/16 dev fine")
        m = routing_to_ipassmt(routes, 32)
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
                prepare_for_simple(ctstate_specialize(unfold(table, "FORWARD"), "NEW"), 32),
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

    @pytest.mark.parametrize("tactic", ["in_doubt_allow", "in_doubt_deny"])
    def test_translation_equals_the_unshared_per_box_product(self, tactic):
        """translate_to_simple splits each address set once and shares the
        CIDRs among the boxes that hold it; the rules equal those of
        splitting every box on its own."""
        rng = random.Random(5)
        for _ in range(150):
            boxes = iface_rewrite(prepare_for_simple(
                ctstate_specialize(unfold(_random_table(rng), "FORWARD"), "NEW"), 32), self.IPASSMT)
            assert list(translate_to_simple(boxes, tactic)) == per_box_translation(boxes, tactic)

    def test_spoofed_accepts_lie_in_the_residual(self):
        """Every packet the exact semantics accepts on eth0 or lo with a source
        outside the interface's range lies in the residual that spoofing
        certification reports for it; a CERTIFIED interface accepts none."""
        rng = random.Random(5)
        spoofed, certified = Counter(), Counter()
        for seed in range(150):
            table = _random_table(rng)
            verdicts = sp_certify_all(unfold(table, "FORWARD"), self.IPASSMT)
            evaluate = bigstep_evaluator(table, "FORWARD", bool_matcher(hash_oracle(seed)))
            every_match = mand(*(r.match for rules in table.chains.values() for r in rules))
            for _ in range(60):
                p = _near_packet(rng, every_match).with_(iiface=rng.choice(sorted(self.IPASSMT)))
                verdict = verdicts[p.iiface]
                certified[verdict.certified] += 1
                if p.src not in self.IPASSMT[p.iiface] and evaluate(p) == ALLOW:
                    assert not verdict.certified and p.src in verdict.residual, (seed, p)
                    spoofed[p.iiface] += 1
        assert min(spoofed["eth0"], spoofed["lo"], certified[True], certified[False]) > 500

    @pytest.mark.parametrize("assumed", ["NEW", "ESTABLISHED"])
    def test_ctstate_equals_the_rebuilding_oracle(self, assumed):
        """ctstate_specialize, which optimizes only the matches it changed,
        equals the oracle that rebuilds and optimizes every rule."""
        rng = random.Random(5)
        changed = 0
        for _ in range(150):
            rules = unfold(_random_table(rng), "FORWARD")
            out = ctstate_specialize(rules, assumed)
            assert out == rebuilding_ctstate_specialize(rules, assumed)
            changed += out != rules
        assert changed > 20


def _walked_rule_lists():
    """(label, rules) for the box walk's differential tests: the corpus at
    each built-in chain, the RETURN ladders, and random tables drawn as
    TestWholePathSandwich draws them, each unfolded and specialized."""
    def prepared(table, chain="FORWARD"):
        return ctstate_specialize(unfold(table, chain), "NEW")

    for name, _ in CORPUS:
        table = parse_save(load_ruleset(name))
        for chain in ("INPUT", "FORWARD", "OUTPUT"):
            if chain in table.chains:
                yield f"{name} {chain}", prepared(table, chain)
    for k in range(7):
        yield f"ladder{k}", prepared(parse_save(return_ladder(k)[0]))
    for k in (4, 10):
        yield f"seed1 ladder{k}", prepared(parse_save(seeded_return_ladder(1, k)[0]))
    rng = random.Random(5)
    for seed in range(150):
        yield f"random{seed}", prepared(_random_table(rng))


def _literal_is_unknown(lit):
    negated = isinstance(lit, MNot)
    prim = (lit.inner if negated else lit).prim
    return isinstance(prim, (rs.Extra, rs.TcpFlags)) or (
        negated and isinstance(prim, (rs.IIface, rs.OIface)))


class TestBoxWalk:
    """prepare_for_simple's memoized walk over each match against the NNF
    oracle, semantics.normalize_nnf, read one disjunct at a time."""

    def test_boxes_equal_the_nnf_disjuncts_read_one_at_a_time(self):
        """Per rule, the walk over the whole list (whose memo the rules
        share) gives the boxes of the rule's NNF literal tuples, each read
        as a conjunction, in order, with repeats removed."""
        rules_read = 0
        for label, rules in _walked_rule_lists():
            rules = [replace(r, raw=i) for i, r in enumerate(rules)]
            walked = {}
            for box in prepare_for_simple(rules, 32):
                walked.setdefault(box.raw, []).append(box)
            for i, r in enumerate(rules):
                oracle = [b for lits in normalize_nnf(r.match)
                          for b in prepare_for_simple([Rule(mand(*lits), r.action, i)], 32)]
                assert list(dict.fromkeys(walked.get(i, []))) == list(dict.fromkeys(oracle)), \
                    (label, i)
                rules_read += 1
        assert rules_read > 500

    def test_boxes_of_known_rules_match_exactly_the_matching_packets(self):
        """For a rule with no Extra, TCP flags or negated interface, its
        boxes translate into simple rules that match a packet exactly when
        the rule's match holds.  A box of negated protocols alone is
        flagged unknown: kept, it matches more, and dropped, less."""
        rng = random.Random(17)
        exact = 0
        for label, rules in _walked_rule_lists():
            for r in rules:
                if any(_literal_is_unknown(lit) for lits in normalize_nnf(r.match)
                       for lit in lits):
                    continue
                boxes = [replace(b, accept=True) for b in prepare_for_simple([r], 32)]
                over = translate_to_simple(boxes, "in_doubt_allow")
                under = translate_to_simple(boxes, "in_doubt_deny")
                exact += over == under
                names = [(type(p), p.name.replace("+", "7")) for p in rs.primitives_in(r.match)
                         if isinstance(p, (rs.IIface, rs.OIface))]
                for _ in range(20):
                    p = _near_packet(rng, r.match)
                    if names and rng.random() < 0.7:
                        kind, name = rng.choice(names)
                        p = p.with_(**{"iiface" if kind is rs.IIface else "oiface": name})
                    holds = r.match.holds(p, None)
                    assert (simple_fw_eval(under, p) == ALLOW) <= holds, (label, r.raw, p)
                    assert holds <= (simple_fw_eval(over, p) == ALLOW), (label, r.raw, p)
        assert exact > 300

    def test_meet_equals_the_fieldwise_definition(self):
        """_meet, which stops at the first empty field, against the meet of
        all seven fields on random pre-boxes.  Their sets come from a small
        pool, so that fields are often the same object, and their
        interface patterns are `+`, wildcards and exact names."""
        rng = random.Random(29)
        ifaces = ["+", "+", "eth+", "e+", "eth0", "eth1", "lo"]

        def random_set(width):
            ends = sorted(rng.randrange(16) for _ in range(2 * rng.randint(1, 2)))
            return WordInterval(list(zip(ends[::2], ends[1::2])), width)

        pools = [[random_set(width) for _ in range(6)] for width in (32, 32, 8, 16, 16)]

        def prebox():
            sets = [rng.choice(pool) if rng.random() < 0.6 else None for pool in pools]
            return _PreBox(rng.choice(ifaces), rng.choice(ifaces), *sets,
                           rng.random() < 0.2, rng.random() < 0.8)

        met = Counter()
        for _ in range(5000):
            a, b = prebox(), prebox()
            got = _meet(a, b)
            assert got == fieldwise_meet(a, b), (a, b)
            met[got is None] += 1
        assert min(met.values()) > 1000

    def test_negated_protocols_stay_apart_under_a_conjunction(self):
        """`! -p tcp` and `! -p udp` read into equal boxes, yet `-p tcp`
        conjoined with the first matches nothing and with the second tcp."""
        tcp, udp = MPrim(rs.Protocol(6)), MPrim(rs.Protocol(17))
        assert prepare_for_simple([Rule(MNot(tcp), rs.ACCEPT)], 32) == \
            prepare_for_simple([Rule(MNot(udp), rs.ACCEPT)], 32)
        assert prepare_for_simple([Rule(mand(tcp, MNot(tcp)), rs.ACCEPT)], 32) == []
        boxes = prepare_for_simple([Rule(mand(tcp, MNot(tcp)), rs.ACCEPT),
                                    Rule(mand(tcp, MNot(udp)), rs.ACCEPT)], 32)
        assert [(b.proto, b.unknown, b.known) for b in boxes] == [(6, False, True)]

    def test_boxes_past_the_bound_fail_fast(self):
        """Each RETURN of doubling_returns doubles the ACCEPT's boxes: at
        MAX_BOXES they are all read, one RETURN more fails with TooManyBoxes
        naming the rule."""
        k = MAX_BOXES.bit_length() - 1
        assert 1 << k == MAX_BOXES
        boxes = prepare_for_simple(unfold(parse_save(doubling_returns(k)), "FORWARD"), 32)
        assert len(boxes) == MAX_BOXES + 1 and len(set(boxes)) == len(boxes)
        with pytest.raises(TooManyBoxes, match="'-A USER -j ACCEPT' splits into more than"):
            prepare_for_simple(unfold(parse_save(doubling_returns(k + 1)), "FORWARD"), 32)
