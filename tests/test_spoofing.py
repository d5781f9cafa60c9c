import random
from itertools import product

import pytest

from checkers import (IfaceNotInIpassmt, definitional_certify, doubling_returns, return_ladder,
                      seeded_return_ladder, sp_certify)
from conftest import CORPUS, load_ruleset, stable_hash
from test_semantics import _random_set
from test_simplefw import _random_table
from netfence import ruleset as rs
from netfence import spoofing
from netfence.errors import MissingFinalRule, WidthMismatch
from netfence.parser import parse_ipassmt, parse_save
from netfence.ruleset import MAnd, MNot, MPrim, MTrue, Rule, mand
from netfence.semantics import (ALLOW, Packet, bigstep_evaluator, bool_matcher,
                                normalize_nnf, unfold)
from netfence.spoofing import _blocks, _bounds, sp_certify_all
from netfence.wordinterval import WordInterval, mask_interval, parse_address_set

FWBUILDER_IPASSMT = parse_ipassmt(
    "eth0 = all_but_those_ips [192.168.1.1, 192.0.2.1, 192.168.1.0/24]"
)


def extra(text):
    return MPrim(rs.Extra(text))


def src(text):
    return MPrim(rs.Src(parse_address_set(text)))


def iif(name):
    return MPrim(rs.IIface(name))


class TestExamples:
    def test_firewall_builder_certifies(self):
        t = parse_save(load_ruleset("fwbuilder.iptables"))
        for chain in ("INPUT", "FORWARD"):
            unfolded = unfold(t, chain)
            verdict = sp_certify(unfolded, "eth0", FWBUILDER_IPASSMT)
            assert verdict.certified, chain

    def test_blogpost_input_certifies(self):
        t = parse_save(load_ruleset("blogpost.iptables"))
        bad = (
            "202.54.10.20, 192.168.1.0/24, 0.0.0.0/8, 127.0.0.0/8, 10.0.0.0/8,"
            " 172.16.0.0/12, 192.168.0.0/16, 224.0.0.0/3"
        )
        ipassmt = parse_ipassmt(f"eth1 = all_but_those_ips [{bad}]")
        verdict = sp_certify(unfold(t, "INPUT"), "eth1", ipassmt)
        assert verdict.certified

    def test_blogpost_output_fails(self):
        t = parse_save(load_ruleset("blogpost.iptables"))
        ipassmt = {"eth1": parse_address_set("202.54.10.20")}
        verdict = sp_certify(unfold(t, "OUTPUT"), "eth1", ipassmt, field="out")
        assert not verdict.certified
        assert verdict.failing_rule is not None
        assert "FAIL" in verdict.report_line()

    def test_deny_all_certifies_anything(self):
        rules = [Rule(MTrue, rs.DROP)]
        ipassmt = {"eth9": parse_address_set("10.0.0.0/8")}
        assert sp_certify(rules, "eth9", ipassmt).certified

    def test_missing_final_rule(self):
        rules = [Rule(src("10.0.0.0/8"), rs.DROP)]
        with pytest.raises(MissingFinalRule):
            sp_certify(rules, "eth0", {"eth0": WordInterval.universe(32)})

    def test_unknown_interface(self):
        rules = [Rule(MTrue, rs.DROP)]
        with pytest.raises(IfaceNotInIpassmt):
            sp_certify(rules, "eth0", {})

    def test_certify_all_mixed_results(self):
        t = parse_save(load_ruleset("blogpost.iptables"))
        unfolded = unfold(t, "INPUT")
        ipassmt = {
            "eth1": parse_address_set("10.0.0.0/8").complement(),
            "eth2": parse_address_set("11.9.9.9"),  # 11/8 is never dropped
        }
        verdicts = sp_certify_all(unfolded, ipassmt)
        assert verdicts["eth1"].certified  # every other source is dropped on eth1
        assert not verdicts["eth2"].certified
        assert not all(v.certified for v in verdicts.values())

    def test_empty_ipassmt_vacuously_certified(self):
        assert sp_certify_all([Rule(MTrue, rs.ACCEPT)], {}) == {}


class TestSoundness:
    def test_certified_implies_no_spoofed_accepts(self):
        """Whenever sp certifies, any packet on the interface that the
        firewall (with arbitrary oracle) accepts carries a legal source."""
        rng = random.Random(14)
        scenarios = [
            ("fwbuilder.iptables", "INPUT", "eth0", FWBUILDER_IPASSMT),
            ("fwbuilder.iptables", "FORWARD", "eth0", FWBUILDER_IPASSMT),
        ]
        for name, chain, iface, ipassmt in scenarios:
            table = parse_save(load_ruleset(name))
            unfolded = unfold(table, chain)
            assert sp_certify(unfolded, iface, ipassmt).certified

            def oracle(text, p):
                return (stable_hash(text, p.src) & 1) == 0

            ev = bigstep_evaluator(table, chain, bool_matcher(oracle))
            legal = ipassmt[iface]
            for _ in range(20000):
                p = Packet(
                    iiface=iface,
                    src=rng.getrandbits(32),
                    dst=rng.getrandbits(32),
                    protocol=rng.choice([1, 6, 17]),
                )
                if ev(p) == ALLOW:
                    assert p.src in legal

    def test_incompleteness_regression(self):
        """Complementary unknown matches implement spoofing protection, but
        the certifier cannot see it; expected to fail certification."""
        rules = [
            Rule(mand(iif("eth0"), MNot(src("192.168.0.0/24")), extra("--foo")), rs.DROP),
            Rule(mand(iif("eth0"), MNot(src("192.168.0.0/24")), MNot(extra("--foo"))), rs.DROP),
            Rule(MTrue, rs.ACCEPT),
        ]
        ipassmt = {"eth0": parse_address_set("192.168.0.0/24")}
        assert not sp_certify(rules, "eth0", ipassmt).certified

    def test_every_disjunct_of_an_accept_counts(self):
        """not (not src and x) accepts 10/8 or, where x fails, any source."""
        rules = [
            Rule(mand(iif("eth0"), MNot(mand(MNot(src("10.0.0.0/8")), extra("x")))), rs.ACCEPT),
            Rule(MTrue, rs.DROP),
        ]
        verdict = sp_certify(rules, "eth0", {"eth0": parse_address_set("10.0.0.0/8")})
        assert not verdict.certified and verdict.failing_rule == 0

    def test_report_line_formats(self):
        rules = [Rule(MTrue, rs.DROP)]
        v = sp_certify(rules, "eth0", {"eth0": parse_address_set("10.0.0.0/8")})
        assert v.report_line() == "eth0: CERTIFIED"

    def test_later_drop_cannot_retract_earlier_accept(self):
        """A drop-all after an accept does not make the accepted source
        legal again: D only grows by sources not already accepted."""
        rules = [
            Rule(mand(iif("eth0"), src("1.2.3.4/32")), rs.ACCEPT),
            Rule(MTrue, rs.DROP),
        ]
        ipassmt = {"eth0": parse_address_set("10.0.0.0/8")}
        verdict = sp_certify(rules, "eth0", ipassmt)
        assert not verdict.certified
        assert verdict.residual == parse_address_set("1.2.3.4/32")

    def test_an_accept_behind_a_drop_of_its_sources_does_not_escape(self):
        """1.2.3.4 is dropped on eth0 before it is accepted, so the first
        rule where A minus D leaves 10/8 is the second ACCEPT."""
        rules = [
            Rule(mand(iif("eth0"), src("1.2.3.4/32")), rs.DROP),
            Rule(src("1.2.3.4/32"), rs.ACCEPT),
            Rule(src("5.6.7.8/32"), rs.ACCEPT),
            Rule(MTrue, rs.DROP),
        ]
        verdict = sp_certify(rules, "eth0", {"eth0": parse_address_set("10.0.0.0/8")})
        assert verdict.report_line() == "eth0: FAIL at rule #2 (residual range {5.6.7.8})"


def corpus_ipassmt(rules):
    """One /16 per named interface of the ruleset, plus loopback."""
    names = sorted({p.name for r in rules for p in rs.primitives_in(r.match)
                    if isinstance(p, (rs.IIface, rs.OIface)) and not p.name.endswith("+")})
    out = {name: parse_address_set(f"10.{i}.0.0/16") for i, name in enumerate(names)}
    out["lo"] = parse_address_set("127.0.0.0/8")
    return out


class TestSharedNormalization:
    @staticmethod
    def check(rules, ipassmt, field="in"):
        expected = {iface: sp_certify(rules, iface, ipassmt, field) for iface in sorted(ipassmt)}
        got = sp_certify_all(rules, ipassmt, field)
        assert list(got) == list(expected) and got == expected
        return got

    @pytest.mark.parametrize("name,chain", CORPUS)
    def test_all_equals_each_on_the_corpus(self, name, chain):
        rules = unfold(parse_save(load_ruleset(name)), chain)
        field = "out" if chain == "OUTPUT" else "in"
        self.check(rules, corpus_ipassmt(rules), field)
        if name == "fwbuilder.iptables":
            self.check(rules, FWBUILDER_IPASSMT)

    def test_all_equals_each_on_return_ladders(self):
        verdicts = set()
        for k in range(7):
            text, ipassmt = return_ladder(k)
            got = self.check(unfold(parse_save(text), "FORWARD"), ipassmt)
            verdicts |= {(iface, v.certified) for iface, v in got.items()}
        assert verdicts == {("eth0", True), ("eth1", False), ("eth2", False)}

    def test_empty_assignment_certifies_vacuously(self):
        assert sp_certify_all([Rule(MNot(MTrue), rs.DROP)], {}) == {}


# The certifier's former NNF-based bounds, kept as the precision floor of `_bounds`.
def definitional_accept_sources(disjuncts, iface, width, field):
    iface_type = rs.IIface if field == "in" else rs.OIface
    total = WordInterval.empty(width)
    for leaves in disjuncts:
        srcs = WordInterval.universe(width)
        feasible = True
        for leaf in leaves:
            negated = isinstance(leaf, MNot)
            node = leaf.inner if negated else leaf
            prim = node.prim if isinstance(node, MPrim) else None
            if isinstance(prim, iface_type):
                if negated:
                    srcs = WordInterval.universe(width)
                    break
                if not rs.match_iface(prim.name, iface):
                    feasible = False
                    break
            elif isinstance(prim, rs.Src):
                srcs = srcs.intersect(prim.addrs.complement() if negated else prim.addrs)
        if feasible:
            total = total.union(srcs)
    return total


def definitional_deny_sources(disjuncts, iface, width, field):
    iface_type = rs.IIface if field == "in" else rs.OIface
    total = WordInterval.empty(width)
    for leaves in disjuncts:
        srcs = WordInterval.universe(width)
        guaranteed = True
        for leaf in leaves:
            negated = isinstance(leaf, MNot)
            node = leaf.inner if negated else leaf
            prim = node.prim if isinstance(node, MPrim) else None
            if isinstance(prim, iface_type):
                if negated or not rs.match_iface(prim.name, iface):
                    guaranteed = False
                    break
            elif isinstance(prim, rs.Src):
                srcs = srcs.intersect(prim.addrs.complement() if negated else prim.addrs)
            else:
                guaranteed = False
                break
        if guaranteed:
            total = total.union(srcs)
    return total


def interval_bounds(m, iface, side, width):
    """`_bounds` of m on the blocks of its own source sets, read back as
    interval sets."""
    reps, masks = _blocks([m], [], width)
    over, under = _bounds(m, iface, side, masks, (1 << len(reps)) - 1, {})
    return mask_interval(over, reps, width), mask_interval(under, reps, width)


class TestBounds:
    """`_bounds` against brute force at width 8: every source, every other-side
    interface, both protocols and both answers of the one Extra.  Sources
    are taken in runs on which every Src literal of the match is constant."""

    IFACES = ("eth0", "eth1", "lo")
    OTHERS = ("eth0", "eth1", "lo", "wlan0")

    @staticmethod
    def random_match(rng, depth):
        r = rng.random()
        if depth == 0 or r < 0.3:
            prim = rng.choice([
                lambda: rs.IIface(rng.choice(["eth0", "eth1", "eth+", "lo"])),
                lambda: rs.OIface(rng.choice(["eth0", "eth+"])),
                lambda: rs.Src(WordInterval.range(lo := rng.randrange(256),
                                                  min(255, lo + rng.randrange(64)), 8)),
                lambda: rs.Protocol(6),
                lambda: rs.Extra("-m limit"),
            ])()
            return MPrim(prim)
        if r < 0.35:
            return MTrue
        if r < 0.6:
            return MNot(TestBounds.random_match(rng, depth - 1))
        return MAnd(TestBounds.random_match(rng, depth - 1), TestBounds.random_match(rng, depth - 1))

    def brute_force(self, m, iface, field):
        """(sources some packet on iface matches with under some oracle,
        sources every packet there matches with under every oracle)."""
        cuts = sorted({0, 256} | {b for p in rs.primitives_in(m) if isinstance(p, rs.Src)
                                  for lo, hi in p.addrs.parts for b in (lo, hi + 1)})
        some, every = set(), set(range(256))
        for other, protocol, extra in product(self.OTHERS, (6, 17), (False, True)):
            ifaces = {"iiface": iface, "oiface": other} if field == "in" else \
                {"iiface": other, "oiface": iface}
            matching = {s for lo, hi in zip(cuts, cuts[1:])
                        if m.holds(Packet(src=lo, protocol=protocol, **ifaces), lambda t, p: extra)
                        for s in range(lo, hi)}
            some |= matching
            every &= matching
        return some, every

    def test_bounds_against_brute_force_and_the_nnf_floor(self):
        rng = random.Random(15)
        exact = floor_differs = 0
        for _ in range(300):
            m = self.random_match(rng, 4)
            prims = list(rs.primitives_in(m))
            disjuncts = normalize_nnf(m)
            for iface, field in product(self.IFACES, ("in", "out")):
                side = rs.IIface if field == "in" else rs.OIface
                over, under = interval_bounds(m, iface, side, 8)
                over_set = {s for s in range(256) if s in over}
                under_set = {s for s in range(256) if s in under}
                some, every = self.brute_force(m, iface, field)
                assert some <= over_set and under_set <= every
                if all(isinstance(p, (rs.Src, side)) for p in prims):
                    assert (over_set, under_set) == (some, every)
                    exact += 1
                nnf_over = definitional_accept_sources(disjuncts, iface, 8, field)
                nnf_under = definitional_deny_sources(disjuncts, iface, 8, field)
                assert over.issubset(nnf_over) and nnf_under.issubset(under)
                if not any(isinstance(lit, MNot) and isinstance(lit.inner.prim, side)
                           for lits in disjuncts for lit in lits):
                    assert (over, under) == (nnf_over, nnf_under)
                else:
                    floor_differs += (over, under) != (nnf_over, nnf_under)
        assert exact > 100 and floor_differs > 10

    def test_a_shared_subtree_is_bounded_once(self, monkeypatch):
        shared = MNot(mand(iif("eth0"), src("10.0.0.0/8")))
        matches = (mand(shared, src("10.0.0.0/8")), mand(shared, src("11.0.0.0/8")))
        reps, masks = _blocks(matches, [], 32)
        literals = {id(shared.inner.left), id(shared.inner.right)}
        calls = []
        original = spoofing._bounds
        monkeypatch.setattr(spoofing, "_bounds", lambda m, *rest: (
            id(m) in literals and calls.append(m)) or original(m, *rest))
        memo = {}
        for m in matches:
            spoofing._bounds(m, "eth0", rs.IIface, masks, (1 << len(reps)) - 1, memo)
        assert len(calls) == 2  # the negated conjunction's two literals, once each


class TestRegressions:
    def test_a_negated_interface_literal_is_decided_exactly(self):
        """Only `-i eth1 -s 192.168.0.0/24 -j ACCEPT` accepts eth1 packets
        before eth1's anti-spoofing DROP.  The RETURN's negated `-i eth0`
        used to make rule #1, an `-i eth2` ACCEPT, accept eth1 packets from
        every source."""
        text, ipassmt = return_ladder(1)
        verdicts = sp_certify_all(unfold(parse_save(text), "FORWARD"), ipassmt)
        assert verdicts["eth1"].report_line() == \
            "eth1: FAIL at rule #2 (residual range {192.168.0.0 .. 192.168.0.255})"

    def test_certification_takes_no_normal_form(self, monkeypatch):
        def refuse(m):
            raise AssertionError("the certifier normalized a match")

        monkeypatch.setattr("netfence.semantics.normalize_nnf", refuse)
        monkeypatch.setattr("netfence.spoofing.normalize_nnf", refuse, raising=False)
        text, ipassmt = return_ladder(6)
        assert sp_certify_all(unfold(parse_save(text), "FORWARD"), ipassmt)["eth0"].certified


def fragmented_sources(n):
    """A FORWARD ruleset of n `/32` DROPs, each inside its interface's
    range, cycling over four interfaces, with a `/24` ACCEPT on the next
    interface after every 16th and a final ACCEPT of 10/8; and its
    four-interface assignment."""
    lines = ["*filter", ":FORWARD DROP [0:0]"]
    for i in range(n):
        lines.append(f"-A FORWARD -i eth{i % 4} -s 10.{i % 4}.{i // 256}.{i % 256}/32 -j DROP")
        if i % 16 == 0:
            lines.append(f"-A FORWARD -i eth{(i + 1) % 4} -s 10.{i % 4}.{i // 256}.0/24 -j ACCEPT")
    lines += ["-A FORWARD -s 10.0.0.0/8 -j ACCEPT", "COMMIT"]
    ipassmt = {f"eth{i}": parse_address_set(f"10.{i}.0.0/16") for i in range(4)}
    return "\n".join(lines) + "\n", ipassmt


class TestAgainstTheIntervalWalk:
    """sp_certify_all on block masks gives the verdicts, failing rules and
    residuals of checkers.definitional_certify, the same fold in interval
    algebra."""

    @staticmethod
    def check(rules, ipassmt, field="in"):
        got = sp_certify_all(rules, ipassmt, field)
        assert got == definitional_certify(rules, ipassmt, field)
        return got

    @pytest.mark.parametrize("name", sorted({name for name, _ in CORPUS}))
    def test_corpus(self, name):
        table = parse_save(load_ruleset(name))
        for chain in ("INPUT", "FORWARD", "OUTPUT"):
            if chain in table.chains:
                rules = unfold(table, chain)
                field = "out" if chain == "OUTPUT" else "in"
                self.check(rules, corpus_ipassmt(rules), field)
                if name == "fwbuilder.iptables":
                    self.check(rules, FWBUILDER_IPASSMT, field)

    def test_ladders(self):
        failing = set()
        for k in range(7):
            text, ipassmt = return_ladder(k)
            self.check(unfold(parse_save(text), "FORWARD"), ipassmt)
        for seed, k in product((1, 2, 3), range(17)):
            text, ipassmt = seeded_return_ladder(seed, k)
            got = self.check(unfold(parse_save(text), "FORWARD"), parse_ipassmt(ipassmt))
            failing |= {v.failing_rule for v in got.values() if not v.certified}
        ipassmt = {"eth0": parse_address_set("10.0.0.0/30"), "eth1": WordInterval.universe(32)}
        for k in range(9):
            self.check(unfold(parse_save(doubling_returns(k)), "FORWARD"), ipassmt)
        assert len(failing) > 1

    def test_random_tables(self):
        """Random ipassmts over the names that the tables' `+` patterns and
        (negated) interface literals may or may not match."""
        rng = random.Random(19)
        names = ("eth0", "eth1", "eth10", "lo", "internal", "wild0", "e")
        verdicts = set()
        for _ in range(150):
            table = _random_table(rng)
            ipassmt = {name: _random_set(rng, 32)
                       for name in rng.sample(names, rng.randint(1, len(names)))}
            field = rng.choice(("in", "out"))
            got = self.check(unfold(table, "FORWARD"), ipassmt, field)
            verdicts |= {(v.certified, v.failing_rule is not None) for v in got.values()}
        assert verdicts == {(True, False), (False, True)}

    def test_ipv6(self):
        table = parse_save(load_ruleset("ipv6_host.iptables"), family="v6")
        ipassmt = parse_ipassmt("eth0 = [2001:4ca0:2001:13::/64]\nlo = [::1]", family="v6")
        for chain, field in (("INPUT", "in"), ("OUTPUT", "out")):
            self.check(unfold(table, chain), ipassmt, field)
        with pytest.raises(WidthMismatch):
            sp_certify_all(unfold(table, "INPUT"), {"eth0": parse_address_set("10.0.0.0/8")})

    def test_fragmented_sources(self):
        text, ipassmt = fragmented_sources(600)
        got = self.check(unfold(parse_save(text), "FORWARD"), ipassmt)
        assert {iface for iface, v in got.items() if v.certified} < set(ipassmt)
