import copy
import itertools
import pickle
import random
import time
from collections import Counter
from itertools import product

import pytest

from checkers import (FALSE, TRUE, UNKNOWN, definitional_normalize_nnf, doubling_returns,
                      equality_mand, equality_opt_match, fan_out, inlined_chain, nested_chains,
                      rebuilding_ctstate_specialize, return_chain, seeded_return_ladder,
                      ternary_eval, ternary_list_eval)
import conftest
from conftest import load_ruleset, stable_hash
from netfence import ruleset as rs
from netfence import semantics
from netfence.errors import (
    CallCycle,
    CallsTooDeep,
    IllformedRuleset,
    TooManyUnfoldedRules,
    UnfoldBoundExceeded,
)
from netfence.parser import parse_save
from netfence.ruleset import (
    MAnd,
    MNot,
    MPrim,
    MTrue,
    MNotTrue,
    Rule,
    Table,
    conjuncts,
    is_false,
    mand,
    opt_match,
)
from netfence.semantics import (
    ALLOW,
    DENY,
    Packet,
    bigstep_evaluator,
    bool_matcher,
    closure,
    ctstate_specialize,
    normalize_nnf,
    process_return,
    simple_list_eval,
    unfold,
)
from netfence.wordinterval import WordInterval, ip_parse, parse_address_set

CORPUS = [
    ("synology.iptables", "INPUT"),
    ("example_ruleset.iptables", "FORWARD"),
    ("fwbuilder.iptables", "INPUT"),
    ("fwbuilder.iptables", "FORWARD"),
    ("blogpost.iptables", "INPUT"),
    ("blogpost.iptables", "OUTPUT"),
    ("forward_foo.iptables", "FORWARD"),
    ("return_ports.iptables", "FORWARD"),
    ("docker_default.iptables", "FORWARD"),
    ("docker_mynet.iptables", "FORWARD"),
    ("webapp_central.iptables", "FORWARD"),
]


def src(text):
    return MPrim(rs.Src(parse_address_set(text)))


def proto(name):
    return MPrim(rs.Protocol(rs.PROTO_NUMBERS[name]))


def extra(text):
    return MPrim(rs.Extra(text))


def random_packet(rng, protocols=(1, 6, 17, 47)):
    return Packet(
        iiface=rng.choice(["eth0", "eth1", "lo", "internal", "wild0"]),
        oiface=rng.choice(["eth0", "eth1"]),
        src=rng.getrandbits(32),
        dst=rng.getrandbits(32),
        protocol=rng.choice(protocols),
        sport=rng.getrandbits(16),
        dport=rng.getrandbits(16),
        tcp_flags=frozenset(
            f for f in rs.TCP_FLAG_ORDER if rng.random() < 0.3
        ),
        ctstate=rng.choice(["NEW", "ESTABLISHED", "RELATED", "INVALID"]),
    )


def hash_oracle(seed):
    def oracle(text, p):
        return (stable_hash(seed, text, p.src, p.dst, p.sport, p.dport) & 1) == 0

    return oracle


# The per-type dispatch table and recursive matcher that the per-primitive
# `matches`/`holds` methods replaced, kept as their definitional oracle.
_DEFINITIONAL_PRIM_MATCHERS = {
    rs.Src: lambda prim, p: p.src in prim.addrs,
    rs.Dst: lambda prim, p: p.dst in prim.addrs,
    rs.IIface: lambda prim, p: rs.match_iface(prim.name, p.iiface),
    rs.OIface: lambda prim, p: rs.match_iface(prim.name, p.oiface),
    rs.Protocol: lambda prim, p: p.protocol == prim.number,
    rs.SrcPorts: lambda prim, p: p.protocol == prim.proto and p.sport in prim.ports,
    rs.MultiportSrc: lambda prim, p: p.protocol == prim.proto and p.sport in prim.ports,
    rs.DstPorts: lambda prim, p: p.protocol == prim.proto and p.dport in prim.ports,
    rs.MultiportDst: lambda prim, p: p.protocol == prim.proto and p.dport in prim.ports,
    rs.CtState: lambda prim, p: p.ctstate in prim.states,
    rs.TcpFlags: lambda prim, p: (p.tcp_flags & prim.mask) == prim.comp,
}


def definitional_matcher(oracle):
    def matcher(m, p):
        if m == MTrue:
            return True
        if isinstance(m, MPrim):
            if isinstance(m.prim, rs.Extra):
                return bool(oracle(m.prim.text, p))
            return _DEFINITIONAL_PRIM_MATCHERS[type(m.prim)](m.prim, p)
        if isinstance(m, MNot):
            return not matcher(m.inner, p)
        return matcher(m.left, p) and matcher(m.right, p)

    return matcher


def _random_set(rng, width, max_parts=4):
    """A word set of up to max_parts ranges, biased toward small values so
    that random packets land inside and outside it."""
    top = (1 << width) - 1
    parts = []
    for _ in range(rng.randint(1, max_parts)):
        lo = rng.choice((0, rng.randrange(1 << 8), rng.getrandbits(width)))
        parts.append((lo, min(top, lo + rng.choice((0, 1, 255, rng.getrandbits(width))))))
    return WordInterval(parts, width)


def _random_primitive(rng):
    ports = rng.choice((rs.SrcPorts, rs.DstPorts, rs.MultiportSrc, rs.MultiportDst))
    choices = [
        lambda: rs.Src(_random_set(rng, 32)),
        lambda: rs.Dst(_random_set(rng, 32)),
        lambda: rs.IIface(rng.choice(["eth0", "eth1", "eth+", "lo", "+", "wild+", "internal"])),
        lambda: rs.OIface(rng.choice(["eth0", "eth1", "eth+", "+", "e+"])),
        lambda: rs.Protocol(rng.choice((1, 6, 17, 47))),
        lambda: ports(rng.choice((6, 17)), _random_set(rng, 16)),
        lambda: rs.CtState(frozenset(rng.sample(rs.CT_STATES, rng.randint(1, 3)))),
        lambda: rs.TcpFlags(frozenset(rng.sample(rs.TCP_FLAG_ORDER, 3)),
                            frozenset(rng.sample(rs.TCP_FLAG_ORDER, 1))),
        lambda: rs.Extra(rng.choice(["-m limit", "-m recent", "-m mark --mark 1"])),
    ]
    return rng.choice(choices)()


def _random_expr(rng, depth):
    r = rng.random()
    if depth <= 0 or r < 0.35:
        return MPrim(_random_primitive(rng))
    if r < 0.45:
        return MTrue
    if r < 0.65:
        return MNot(_random_expr(rng, depth - 1))
    return MAnd(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def _near_packet(rng, m):
    """A random packet whose addresses and ports sit on the edges of the
    sets the expression names, so that both outcomes occur."""
    p = random_packet(rng, protocols=(1, 6, 17))
    edges = {"src": [], "dst": [], "sport": [], "dport": []}
    for prim in rs.primitives_in(m):
        field = {rs.Src: "src", rs.Dst: "dst", rs.SrcPorts: "sport", rs.MultiportSrc: "sport",
                 rs.DstPorts: "dport", rs.MultiportDst: "dport"}.get(type(prim))
        if field is not None:
            wi = prim.addrs if field in ("src", "dst") else prim.ports
            top = (1 << wi.width) - 1
            edges[field] += [max(0, min(top, v + d)) for lo, hi in wi.parts
                             for v in (lo, hi) for d in (-1, 0, 1)]
    return p.with_(**{f: rng.choice(vs) for f, vs in edges.items() if vs and rng.random() < 0.7})


class TestPerPrimitiveMatcher:
    def test_holds_equals_definitional_matcher(self):
        """m.holds and the matcher built on it decide every random match
        expression as the recursive per-type matcher does."""
        rng = random.Random(21)
        seen = set()
        for seed in range(40):
            oracle = hash_oracle(seed)
            oracle_matcher, reference = bool_matcher(oracle), definitional_matcher(oracle)
            for _ in range(25):
                m = _random_expr(rng, 5)
                for _ in range(20):
                    p = _near_packet(rng, m)
                    expected = reference(m, p)
                    assert m.holds(p, oracle) is expected
                    assert oracle_matcher(m, p) is expected
                    seen.add(expected)
        assert seen == {True, False}

    def test_ternary_eval_agrees_where_decided(self):
        """Without Extra, ternary_eval is the Boolean semantics; with Extra,
        a True or False it returns holds for every oracle."""
        rng = random.Random(23)
        for _ in range(400):
            m = _random_expr(rng, 4)
            p = _near_packet(rng, m)
            v = ternary_eval(m, p)
            if not any(isinstance(x, rs.Extra) for x in rs.primitives_in(m)):
                assert v == (TRUE if definitional_matcher(None)(m, p) else FALSE)
            elif v != UNKNOWN:
                for seed in (1, 2):
                    assert (v == TRUE) is definitional_matcher(hash_oracle(seed))(m, p)


class TestCompiledMatch:
    """The predicates compile_match writes against `holds` and the
    definitional matcher."""

    @pytest.mark.parametrize("name,chain", conftest.CORPUS)
    def test_corpus_rules_decide_as_holds(self, name, chain):
        """Every rule of every chain of the table, and every unfolded rule,
        on packets at the edges of its sets and on its interface names."""
        table = parse_save(load_ruleset(name))
        unfolded = unfold(table, chain)
        matches = [r.match for rules in table.chains.values() for r in rules]
        matches += [r.match for r in unfolded]
        names = sorted({prim.name.rstrip("+") + suffix for m in matches
                        for prim in rs.primitives_in(m) if isinstance(prim, (rs.IIface, rs.OIface))
                        for suffix in ("", "0")} | {"eth0", "lo"})
        rng = random.Random(stable_hash(name, chain))
        oracle = hash_oracle(3)
        reference = definitional_matcher(oracle)
        seen = Counter()
        for m in matches:
            for _ in range(30):
                p = _near_packet(rng, m).with_(iiface=rng.choice(names), oiface=rng.choice(names))
                expected = reference(m, p)
                assert m.holds(p, oracle) is expected
                assert m.compiled(p, oracle) is expected
                seen[expected] += 1
        assert seen[True] and seen[False]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_500_levels_of_nesting(self, seed):
        """A chain of MAX_CALL_DEPTH levels, each a negation, a conjunction
        or both, compiles (no RecursionError, no parenthesis limit) and
        decides as the same chain evaluated level by level."""
        rng = random.Random(seed)
        oracle = hash_oracle(seed)
        half = 1 << 31  # primitives that hold for about half of the packets
        prims = [rs.Extra("-m a"), rs.Extra("-m b"), rs.Src(WordInterval.range(0, half, 32)),
                 rs.Dst(WordInterval.range(half, 2 * half - 1, 32)), rs.IIface("eth+"),
                 rs.Protocol(6)]
        base = rng.choice(prims)
        m, steps = MPrim(base), []
        for _ in range(semantics.MAX_CALL_DEPTH):
            prim, kind = rng.choice(prims), rng.choice(("not-and", "and-not", "not-not"))
            steps.append((prim, kind))
            if kind == "not-and":
                m = MNot(MAnd(MPrim(prim), m))
            elif kind == "and-not":
                m = MAnd(MNot(m), MPrim(prim))
            else:
                m = MNot(MNot(m))
        seen = set()
        for _ in range(200):
            p = random_packet(rng)
            v = base.matches(p, oracle)
            for prim, kind in steps:
                if kind == "not-and":
                    v = not (prim.matches(p, oracle) and v)
                elif kind == "and-not":
                    v = not v and prim.matches(p, oracle)
            assert m.compiled(p, oracle) is v
            seen.add(v)
        assert seen == {True, False}

    def test_truth_values_and_the_oracle_at_call_time(self):
        p = Packet()
        assert MAnd(MTrue, MTrue).compiled(p) is True
        assert MNot(MAnd(MTrue, MTrue)).compiled(p) is False
        assert MNotTrue.compiled(p) is False and MTrue.compiled(p) is True
        m = MAnd(extra("-m limit"), MNot(extra("-m recent")))
        assert m.compiled(p, lambda text, q: text == "-m limit") is True
        assert m.compiled(p, lambda text, q: True) is False
        assert bool_matcher()(m, p) is False
        assert bool_matcher() is bool_matcher()

    def test_one_predicate_per_node_one_code_per_shape(self):
        """The predicate is cached on the node without changing its
        equality, hash or repr; nodes of one shape share the code."""
        a = MAnd(src("10.0.0.0/8"), MNot(MPrim(rs.IIface("eth0"))))
        b = MAnd(src("192.168.0.0/16"), MNot(MPrim(rs.IIface("lo"))))
        twin = MAnd(src("10.0.0.0/8"), MNot(MPrim(rs.IIface("eth0"))))
        before = (repr(a), hash(a))
        fa = rs.compile_match(a)
        assert rs.compile_match(a) is fa and a.compiled is fa
        assert (repr(a), hash(a)) == before and a == twin and hash(twin) == hash(a)
        assert rs.compile_match(b).__code__ is fa.__code__
        assert fa(Packet(src=ip_parse("10.1.2.3"), iiface="eth1")) is True
        assert fa(Packet(src=ip_parse("10.1.2.3"), iiface="eth0")) is False

    @pytest.mark.parametrize("text", [
        "'", '"', "\\", "a\nb", "eth0'\n", '"""', "{c0}", "o(c0, p)",
        "__import__('os').system('false')", "'; raise SystemExit #",
        "\\' or True or '", "x\\\n) or (True",
    ])
    def test_input_text_never_reaches_the_source(self, text):
        """Interface names and Extra texts holding quotes, backslashes,
        newlines or code are matched exactly, and every such match
        compiles to the same code as a plain name."""
        exact, wild = MPrim(rs.IIface(text)), MPrim(rs.OIface(text + "+"))
        assert exact.compiled(Packet(iiface=text)) is True
        assert exact.compiled(Packet(iiface=text + "0")) is False
        assert exact.compiled(Packet(iiface=text[:-1])) is False
        assert wild.compiled(Packet(oiface=text)) is True
        assert wild.compiled(Packet(oiface=text + "\n")) is True
        assert wild.compiled(Packet(oiface=text[1:])) is False
        asked = []
        unknown = MAnd(MPrim(rs.Extra(text)), MNot(MPrim(rs.Extra(text + "!"))))
        assert unknown.compiled(Packet(), lambda t, p: asked.append(t) or t == text) is True
        assert asked == [text, text + "!"]
        assert rs.compile_match(exact).__code__ is rs.compile_match(
            MPrim(rs.IIface("eth0"))).__code__
        assert rs.compile_match(unknown).__code__ is rs.compile_match(
            MAnd(extra("-m limit"), MNot(extra("-m recent")))).__code__


class TestBigStep:
    def test_accept_rule(self):
        t = Table({"INPUT": [Rule(MTrue, rs.ACCEPT)]}, {"INPUT": rs.DROP})
        assert bigstep_evaluator(t, "INPUT")(Packet()) == ALLOW

    def test_default_policy_applies(self):
        t = Table({"INPUT": []}, {"INPUT": rs.DROP})
        assert bigstep_evaluator(t, "INPUT")(Packet()) == DENY

    def test_blacklist_vs_whitelist_complement(self):
        """A drop-if-blacklisted ruleset filters exactly like a chain that
        returns innocents and drops the rest."""
        direct = Table(
            {"INPUT": [Rule(extra("ssh_blacklisted"), rs.DROP)]},
            {"INPUT": rs.ACCEPT},
        )
        indirect = Table(
            {
                "INPUT": [Rule(MTrue, rs.call("c"))],
                "c": [Rule(extra("ssh_innocent"), rs.RETURN), Rule(MTrue, rs.DROP)],
            },
            {"INPUT": rs.ACCEPT},
        )
        rng = random.Random(0)

        def oracle(text, p):
            blacklisted = (p.src & 1) == 0
            return blacklisted if text == "ssh_blacklisted" else not blacklisted

        m = bool_matcher(oracle)
        for _ in range(500):
            p = random_packet(rng)
            assert bigstep_evaluator(direct, "INPUT", m)(p) == bigstep_evaluator(
                indirect, "INPUT", m
            )(p)

    def test_fwbuilder_denies_lan_spoof(self):
        t = parse_save(load_ruleset("fwbuilder.iptables"))
        p = Packet(iiface="eth0", src=ip_parse("192.168.1.5"))
        trace = []
        assert bigstep_evaluator(t, "INPUT", trace=trace)(p) == DENY
        assert any("In_RULE_0" in line for line in trace)

    def test_determinism(self):
        t = parse_save(load_ruleset("synology.iptables"))
        rng = random.Random(1)
        ev = bigstep_evaluator(t, "INPUT", bool_matcher(hash_oracle(7)))
        for _ in range(200):
            p = random_packet(rng)
            assert ev(p) == ev(p)

    def test_calling_loop_rejected(self):
        t = Table(
            {"INPUT": [Rule(MTrue, rs.call("a"))],
             "a": [Rule(MTrue, rs.call("b"))],
             "b": [Rule(MTrue, rs.call("a"))]},
            {"INPUT": rs.ACCEPT},
        )
        with pytest.raises(IllformedRuleset):
            bigstep_evaluator(t, "INPUT")(Packet())


class TestUnfold:
    def test_process_return_definition(self):
        m, m2 = extra("m"), extra("m2")
        out = process_return([Rule(m, rs.RETURN), Rule(m2, rs.ACCEPT)])
        assert out == [Rule(MAnd(MNot(m), m2), rs.ACCEPT)]

    def test_unchanged_rules_are_kept_by_identity(self):
        """Each step keeps a rule it leaves unchanged as the very object it
        got: rules before a Return, rules inlined by an always-matching
        call, and rules with nothing to simplify or rewrite."""
        text = ("*filter\n:FORWARD DROP [0:0]\n:sub - [0:0]\n:cond - [0:0]\n"
                "-A FORWARD -s 10.0.0.0/8 -j ACCEPT\n-A FORWARD -j sub\n"
                "-A FORWARD -i eth0 -j cond\n-A FORWARD -p tcp -j REJECT\n"
                "-A FORWARD -p udp -j LOG\n"
                "-A sub -d 10.0.0.1 -j DROP\n-A sub -p icmp -j RETURN\n-A sub -d 10.0.0.2 -j DROP\n"
                "-A cond -s 10.0.0.3 -j ACCEPT\nCOMMIT\n")
        table = parse_save(text)
        fwd, sub, cond = (table.chains[c] for c in ("FORWARD", "sub", "cond"))
        unfolded = unfold(table, "FORWARD")
        assert [r.match for r in unfolded] == [
            fwd[0].match, sub[0].match, MAnd(MNot(sub[1].match), sub[2].match),
            MAnd(fwd[2].match, cond[0].match), fwd[3].match, MTrue]
        kept = [r for r in unfolded if any(r is t for t in fwd + sub + cond)]
        assert kept == [fwd[0], sub[0]] and unfolded[0] is fwd[0] and unfolded[1] is sub[0]
        assert unfolded[4] == Rule(fwd[3].match, rs.DROP) and unfolded[4].match is fwd[3].match
        assert process_return(sub)[0] is sub[0]
        called = semantics.process_call(fwd, table.chains)
        assert called[0] is fwd[0] and called[1] is sub[0]
        assert all(a is b for a, b in zip(semantics.optimize_rules(unfolded), unfolded))

    def test_leading_rules_of_the_start_chain_are_kept(self):
        """The start chain's Accept and Drop rules before its first other
        action unfold to the table's very rules."""
        kept = 0
        for name, chain in CORPUS:
            table = parse_save(load_ruleset(name))
            leading = itertools.takewhile(lambda r: r.action.kind in ("accept", "drop"),
                                          table.chains[chain])
            for rule, unfolded in zip(leading, unfold(table, chain)):
                assert unfolded is rule, (name, rule)
                kept += 1
        assert kept > 100

    def test_synology_first_rule(self):
        t = parse_save(load_ruleset("synology.iptables"))
        unfolded = unfold(t, "INPUT")
        icmp = proto("icmp")
        icmptype = extra("-m icmp --icmp-type 8")
        limit = extra("-m limit --limit 1/sec --limit-burst 5")
        expected = MAnd(
            MNot(MAnd(icmp, MAnd(icmptype, limit))),
            MAnd(icmp, icmptype),
        )
        assert unfolded[0] == Rule(expected, rs.DROP)

    def test_log_only_chain_unfolds_to_default(self):
        text = (
            "*filter\n:INPUT ACCEPT [0:0]\n:noisy - [0:0]\n"
            "-A INPUT -j noisy\n"
            "-A noisy -s 10.0.0.0/8 -j LOG\nCOMMIT\n"
        )
        unfolded = unfold(parse_save(text), "INPUT")
        assert unfolded == [Rule(MTrue, rs.ACCEPT)]

    def test_reject_becomes_drop(self):
        text = "*filter\n:INPUT ACCEPT [0:0]\n-A INPUT -s 10.0.0.1 -j REJECT\nCOMMIT\n"
        unfolded = unfold(parse_save(text), "INPUT")
        assert unfolded[0].action == rs.DROP

    def test_trailing_rules_after_catchall_are_dropped(self):
        text = (
            "*filter\n:INPUT ACCEPT [0:0]\n"
            "-A INPUT -j DROP\n-A INPUT -s 10.0.0.1 -j ACCEPT\nCOMMIT\n"
        )
        assert unfold(parse_save(text), "INPUT") == [Rule(MTrue, rs.DROP)]

    def test_goto_rewrite_safe_when_last(self):
        text = (
            "*filter\n:INPUT DROP [0:0]\n:g - [0:0]\n"
            "-A INPUT -s 10.0.0.0/8 -g g\n"
            "-A g -j ACCEPT\nCOMMIT\n"
        )
        unfolded = unfold(parse_save(text), "INPUT")
        p_in = Packet(src=ip_parse("10.1.2.3"))
        p_out = Packet(src=ip_parse("11.1.2.3"))
        assert simple_list_eval(unfolded, p_in) == ALLOW
        assert simple_list_eval(unfolded, p_out) == DENY

    def test_goto_with_fallthrough_target_is_exact(self):
        # g falls through for 10/8 sources outside 10.2/16: the goto ends
        # INPUT's chain for them, so the default policy drops them
        text = (
            "*filter\n:INPUT DROP [0:0]\n:g - [0:0]\n"
            "-A INPUT -s 10.0.0.0/8 -g g\n"
            "-A INPUT -j ACCEPT\n"
            "-A g -s 10.2.0.0/16 -j ACCEPT\nCOMMIT\n"
        )
        t = parse_save(text)
        unfolded = unfold(t, "INPUT")
        cases = [
            (Packet(src=ip_parse("10.2.0.1")), ALLOW),
            (Packet(src=ip_parse("10.3.0.1")), DENY),  # goto taken, g falls through
            (Packet(src=ip_parse("11.0.0.1")), ALLOW),  # goto not taken
        ]
        for p, want in cases:
            assert bigstep_evaluator(t, "INPUT")(p) == want
            assert simple_list_eval(unfolded, p) == want

    def test_goto_semantics_skips_rest_of_chain(self):
        # target chain always decides, so the goto rewrite is accepted even
        # mid-chain; packets not taking the goto fall through
        text = (
            "*filter\n:INPUT DROP [0:0]\n:g - [0:0]\n"
            "-A INPUT -s 10.0.0.0/8 -g g\n"
            "-A INPUT -j ACCEPT\n"
            "-A g -s 10.2.0.0/16 -j ACCEPT\n"
            "-A g -j DROP\nCOMMIT\n"
        )
        t = parse_save(text)
        unfolded = unfold(t, "INPUT")
        cases = [
            (Packet(src=ip_parse("10.2.0.1")), ALLOW),
            (Packet(src=ip_parse("10.3.0.1")), DENY),  # goto taken, g drops
            (Packet(src=ip_parse("11.0.0.1")), ALLOW),  # goto not taken
        ]
        for p, want in cases:
            assert bigstep_evaluator(t, "INPUT")(p) == want
            assert simple_list_eval(unfolded, p) == want

    def test_gotos_unfold_exactly_on_random_tables(self):
        """Random acyclic tables with calls, Returns and gotos anywhere,
        also in the start chain and several per chain, into targets that
        decide, return or fall through: the unfolded list decides every
        packet as the big-step semantics does."""
        rng = random.Random(8)
        seen = Counter()
        for _ in range(400):
            table = _random_jump_table(rng)
            for name, rules in table.chains.items():
                gotos = [i for i, r in enumerate(rules) if r.action.kind == "goto"]
                seen["start chain gotos"] += name == "FORWARD" and len(gotos)
                seen["gotos followed by rules"] += sum(i < len(rules) - 1 for i in gotos)
                seen["chains with several gotos"] += len(gotos) > 1
                seen["gotos into returning chains"] += sum(
                    any(r.action.kind == "return" for r in table.chains[rules[i].action.chain])
                    for i in gotos)
                seen["gotos into chains that may fall through"] += sum(
                    not any(r.match == MTrue and r.action.kind in ("accept", "drop")
                            for r in table.chains[rules[i].action.chain])
                    for i in gotos)
            unfolded = unfold(table, "FORWARD")
            evaluate = bigstep_evaluator(table, "FORWARD")
            for _ in range(30):
                p = Packet(iiface=rng.choice(["eth0", "eth1"]),
                           src=ip_parse(rng.choice(["10.1.0.1", "10.2.0.1", "11.0.0.1"])),
                           dst=ip_parse(rng.choice(["10.1.0.1", "192.168.0.1"])),
                           protocol=rng.choice([1, 6, 17]))
                assert simple_list_eval(unfolded, p) == evaluate(p)
        assert min(seen.values()) > 50, seen

    def test_unfold_bound_exceeded_on_loop(self):
        t = Table(
            {"INPUT": [Rule(MTrue, rs.call("a"))],
             "a": [Rule(MTrue, rs.call("a"))]},
            {"INPUT": rs.ACCEPT},
        )
        with pytest.raises(UnfoldBoundExceeded):
            unfold(t, "INPUT")

    @pytest.mark.parametrize("body,chain", [
        # a chain that calls itself twice: 2^n rules after n unfolding steps
        ("-A A -s 10.0.0.0/8 -j A\n-A A -d 10.0.0.0/8 -j A\n", "A"),
        ("-A A -s 10.0.0.0/8 -j B\n-A B -j A\n", "A"),    # A <-> B
        ("-A A -g B\n-A B -s 10.0.0.0/8 -g A\n", "A"),    # a goto loop
        ("-A A -j ACCEPT\n-A B -j FORWARD\n", "FORWARD"),  # back to the start chain
    ])
    def test_call_cycle_fails_before_unfolding(self, monkeypatch, body, chain):
        text = ("*filter\n:FORWARD DROP [0:0]\n:A - [0:0]\n:B - [0:0]\n"
                "-A FORWARD -i eth0 -j A\n-A FORWARD -i eth1 -j B\n" + body + "COMMIT\n")
        table = parse_save(text)

        def no_step(*args):
            raise AssertionError("unfolding started on a cyclic ruleset")

        monkeypatch.setattr(semantics, "_goto_as_call_return", no_step)
        monkeypatch.setattr(semantics, "process_call", no_step)
        with pytest.raises(CallCycle, match=f"chain '{chain}'") as exc:
            unfold(table, "FORWARD")
        assert isinstance(exc.value, UnfoldBoundExceeded)
        with pytest.raises(CallCycle, match=f"chain '{chain}'"):
            bigstep_evaluator(table, "FORWARD")

    def test_cycle_outside_the_start_chains_reach_is_ignored(self):
        text = ("*filter\n:FORWARD DROP [0:0]\n:A - [0:0]\n"
                "-A FORWARD -j ACCEPT\n-A A -j A\nCOMMIT\n")
        assert unfold(parse_save(text), "FORWARD") == [Rule(MTrue, rs.ACCEPT)]

    def test_nesting_at_the_depth_bound_unfolds(self):
        table = parse_save(nested_chains(semantics.MAX_CALL_DEPTH))
        unfolded = unfold(table, "FORWARD")
        evaluate = bigstep_evaluator(table, "FORWARD")
        for src, dst, want in (("10.0.0.1", "10.1.0.1", ALLOW), ("11.0.0.1", "10.1.0.1", DENY),
                               ("10.0.0.1", "10.2.0.1", DENY)):
            p = Packet(src=ip_parse(src), dst=ip_parse(dst))
            assert simple_list_eval(unfolded, p) == want
            assert evaluate(p) == want

    @pytest.mark.parametrize("extra", [1, 2, 5000])
    def test_nesting_past_the_bound_fails_naming_a_chain(self, monkeypatch, extra):
        bound = semantics.MAX_CALL_DEPTH
        table = parse_save(nested_chains(bound + extra))

        def no_step(*args):
            raise AssertionError("unfolding started on an over-deep ruleset")

        monkeypatch.setattr(semantics, "process_call", no_step)
        with pytest.raises(CallsTooDeep, match=f"chain 'C{bound + 1}'") as exc:
            unfold(table, "FORWARD")
        assert isinstance(exc.value, UnfoldBoundExceeded)
        with pytest.raises(CallsTooDeep, match=f"chain 'C{bound + 1}'"):
            bigstep_evaluator(table, "FORWARD")

    def test_depth_counts_the_longest_path_through_a_shared_chain(self):
        """D1 is first reached one call from FORWARD, then again at the end
        of the longer L path; the depth is that of the L path."""
        bound = semantics.MAX_CALL_DEPTH

        def ruleset(k):
            chains = [f"L{i}" for i in range(1, 11)] + [f"D{j}" for j in range(1, k + 1)]
            lines = ["*filter", ":FORWARD DROP [0:0]"] + [f":{c} - [0:0]" for c in chains]
            lines += ["-A FORWARD -i eth0 -j D1", "-A FORWARD -i eth1 -j L1"]
            lines += [f"-A {a} -j {b}" for a, b in zip(chains, chains[1:])]
            return "\n".join(lines + ["COMMIT"]) + "\n"

        assert unfold(parse_save(ruleset(bound - 10)), "FORWARD") == [Rule(MTrue, rs.DROP)]
        with pytest.raises(CallsTooDeep, match=f"chain 'D{bound - 9}'"):
            unfold(parse_save(ruleset(bound - 9)), "FORWARD")

    @pytest.mark.parametrize("jump", ["-j RETURN", "-g SINK"])
    def test_each_return_before_a_rule_counts_as_a_level(self, monkeypatch, jump):
        """process_return conjoins a RETURN's negated match onto every later
        rule of its chain, and a goto unfolds to a call and a RETURN; the
        call into USER is the first level."""
        bound = semantics.MAX_CALL_DEPTH
        table = parse_save(return_chain(bound - 1, jump))
        unfolded = unfold(table, "FORWARD")
        for iface, src, want in (("eth0", "10.0.0.1", ALLOW), ("eth0", "10.2.0.1", ALLOW),
                                 ("eth0", "11.0.0.1", DENY), ("eth1", "10.0.0.1", DENY)):
            p = Packet(iiface=iface, src=ip_parse(src))
            assert simple_list_eval(unfolded, p) == want
            assert bigstep_evaluator(table, "FORWARD")(p) == want

        def no_step(*args):
            raise AssertionError("unfolding started on an over-deep ruleset")

        monkeypatch.setattr(semantics, "process_call", no_step)
        table = parse_save(return_chain(bound, jump))
        with pytest.raises(CallsTooDeep, match="chain 'USER' is nested more than"):
            unfold(table, "FORWARD")
        with pytest.raises(CallsTooDeep, match="chain 'USER'"):
            bigstep_evaluator(table, "FORWARD")

    def test_counts_equal_the_unoptimized_unfolding(self):
        """_check_calls' count of each chain it reaches is the length of the
        chain's unfolding before optimize_rules, on random call DAGs with
        gotos and RETURNs, the corpus, RETURN doublings and fan-outs."""
        rng = random.Random(15)
        cases = [(_random_jump_table(rng), "FORWARD") for _ in range(300)]
        cases += [(parse_save(load_ruleset(name)), chain) for name, chain in CORPUS]
        cases += [(parse_save(text), "FORWARD")
                  for text in [*map(doubling_returns, (0, 1, 11)), *map(fan_out, (0, 1, 6))]]
        seen = Counter()
        for table, start in cases:
            size = semantics._check_calls(table, start)
            assert size == {c: len(inlined_chain(table, c)) for c in size}
            assert start in size and next(reversed(size)) == start  # post-order
            seen["jumps"] += sum(r.action.kind in ("call", "goto")
                                 for c in size for r in table.chains[c])
            seen["returns"] += sum(r.action.kind == "return" for c in size for r in table.chains[c])
            seen["shared"] += sum(n > 1 for n in Counter(
                r.action.chain for c in size for r in table.chains[c]
                if r.action.kind in ("call", "goto")).values())
        assert len(unfold(parse_save(fan_out(6)), "FORWARD")) == 2 ** 6 + 1
        assert min(seen.values()) > 100, seen

    @pytest.mark.parametrize("bound,chain", [(9, None), (8, "FORWARD"), (7, "C0"), (3, "C1"),
                                             (1, "C2"), (0, "C3")])
    def test_fan_out_past_the_bound_fails_naming_a_chain(self, monkeypatch, bound, chain):
        """fan_out(3) unfolds to 9 rules: C3 has 1, C2 2, C1 4, C0 and
        FORWARD 8, and the wrapper adds the default policy."""
        table = parse_save(fan_out(3))
        monkeypatch.setattr(semantics, "MAX_UNFOLDED_RULES", bound)
        if chain is None:
            assert len(unfold(table, "FORWARD")) == 9
            evaluate = bigstep_evaluator(table, "FORWARD")
            assert evaluate(Packet(src=ip_parse("10.0.0.1"), dport=22)) == ALLOW
            return

        def no_step(*args):
            raise AssertionError("unfolding started past the bound")

        monkeypatch.setattr(semantics, "process_call", no_step)
        with pytest.raises(TooManyUnfoldedRules, match=f"chain '{chain}' unfolds to more than "
                                                       f"{bound:,} rules") as exc:
            unfold(table, "FORWARD")
        assert isinstance(exc.value, UnfoldBoundExceeded)
        with pytest.raises(TooManyUnfoldedRules, match=f"chain '{chain}' unfolds"):
            bigstep_evaluator(table, "FORWARD")  # one packet may visit as many rules

    def test_fan_out_of_30_levels_fails_fast(self, monkeypatch):
        table = parse_save(fan_out(30))
        assert semantics._check_calls(table, "FORWARD")["FORWARD"] == 2 ** 30

        def no_step(*args):
            raise AssertionError("unfolding started past the bound")

        monkeypatch.setattr(semantics, "process_call", no_step)
        with pytest.raises(TooManyUnfoldedRules, match="chain 'C10' unfolds"):
            unfold(table, "FORWARD")

    def test_evaluator_on_a_fan_out_past_the_bound_fails_fast(self, monkeypatch):
        """A packet that takes both jumps at every level and is not
        accepted would visit 2^30 rules; building the evaluator refuses
        the ruleset as unfold does."""
        table = parse_save(fan_out(30))

        def no_step(*args):
            raise AssertionError("unfolding started past the bound")

        monkeypatch.setattr(semantics, "process_call", no_step)
        start = time.perf_counter()
        with pytest.raises(TooManyUnfoldedRules, match="chain 'C10' unfolds"):
            bigstep_evaluator(table, "FORWARD")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("name,chain", CORPUS)
    def test_unfolding_preserves_semantics(self, name, chain):
        """The flat list filters exactly like the chain semantics, for any
        oracle resolution of unknown primitives."""
        t = parse_save(load_ruleset(name))
        unfolded = unfold(t, chain)
        rng = random.Random(stable_hash(name) & 0xFFFF)
        for seed in (1, 2):
            m = bool_matcher(hash_oracle(seed))
            ev = bigstep_evaluator(t, chain, m)
            for _ in range(2000):
                p = random_packet(rng)
                assert ev(p) == simple_list_eval(unfolded, p, m)


class TestTernary:
    def test_extra_is_unknown(self):
        assert ternary_eval(extra("limit: avg 1/sec"), Packet()) == UNKNOWN

    def test_not_unknown_is_unknown(self):
        assert ternary_eval(MNot(extra("u")), Packet()) == UNKNOWN

    def test_false_and_unknown_is_false(self):
        m = MAnd(proto("tcp"), extra("u"))
        assert ternary_eval(m, Packet(protocol=17)) == FALSE

    def test_true_and_unknown_is_unknown(self):
        m = MAnd(proto("tcp"), extra("u"))
        assert ternary_eval(m, Packet(protocol=6)) == UNKNOWN

    def test_known_primitives_evaluate_exactly(self):
        m = mand(proto("tcp"), src("10.0.0.0/8"))
        assert ternary_eval(m, Packet(protocol=6, src=ip_parse("10.1.1.1"))) == TRUE
        assert ternary_eval(m, Packet(protocol=6, src=ip_parse("11.1.1.1"))) == FALSE


class TestClosure:
    def synology_without_established(self):
        text = "\n".join(
            l for l in load_ruleset("synology.iptables").splitlines() if "--state" not in l
        )
        return unfold(parse_save(text), "INPUT")

    def ip_proto_matcher(self, prim):
        return isinstance(prim, (rs.Src, rs.Dst, rs.Protocol))

    def test_synology_upper_closure(self):
        up = closure(self.synology_without_established(), "in_doubt_allow",
                     self.ip_proto_matcher)
        assert up == [
            Rule(src("192.168.0.0/16"), rs.ACCEPT),
            Rule(MTrue, rs.DROP),
        ]

    def test_synology_lower_closure_accepts_nothing(self):
        lo = closure(self.synology_without_established(), "in_doubt_deny",
                     self.ip_proto_matcher)
        rng = random.Random(3)
        for _ in range(5000):
            p = random_packet(rng, protocols=(6, 17))
            assert simple_list_eval(lo, p) == DENY

    def test_no_unknowns_left(self):
        for name, chain in CORPUS:
            unfolded = unfold(parse_save(load_ruleset(name)), chain)
            for tactic in ("in_doubt_allow", "in_doubt_deny"):
                for rule in closure(unfolded, tactic):
                    assert not any(
                        isinstance(p, rs.Extra) for p in rs.primitives_in(rule.match)
                    )

    def test_closure_of_known_ruleset_preserves_semantics(self):
        t = parse_save(load_ruleset("fwbuilder.iptables"))
        unfolded = unfold(t, "INPUT")
        rng = random.Random(4)
        for tactic in ("in_doubt_allow", "in_doubt_deny"):
            closed = closure(unfolded, tactic)
            for _ in range(2000):
                p = random_packet(rng)
                assert simple_list_eval(closed, p) == simple_list_eval(unfolded, p)

    @pytest.mark.parametrize("name,chain", CORPUS)
    def test_closure_agrees_with_in_doubt_evaluation(self, name, chain):
        """Rewriting unknowns away (pu) computes the same verdicts as
        evaluating ternary with the in-doubt tactic applied on the fly."""
        unfolded = unfold(parse_save(load_ruleset(name)), chain)
        rng = random.Random(stable_hash(name) & 0xFF)
        for tactic in ("in_doubt_allow", "in_doubt_deny"):
            closed = closure(unfolded, tactic)
            for _ in range(800):
                p = random_packet(rng)
                direct = ternary_list_eval(unfolded, p, tactic)
                assert simple_list_eval(closed, p) == direct

    @pytest.mark.parametrize("name,chain", CORPUS)
    def test_closure_sandwich(self, name, chain):
        """deny-closure accepts => exact accepts => allow-closure accepts,
        no matter how an oracle resolves the unknowns."""
        unfolded = unfold(parse_save(load_ruleset(name)), chain)
        upper = closure(unfolded, "in_doubt_allow")
        lower = closure(unfolded, "in_doubt_deny")
        rng = random.Random(stable_hash(name) & 0xFFF)
        for seed in (11, 12):
            m = bool_matcher(hash_oracle(seed))
            for _ in range(2000):
                p = random_packet(rng)
                exact = simple_list_eval(unfolded, p, m)
                if simple_list_eval(lower, p) == ALLOW:
                    assert exact == ALLOW
                if exact == ALLOW:
                    assert simple_list_eval(upper, p) == ALLOW


class TestNormalizeNnf:
    def test_de_morgan_example(self):
        m = MNot(MAnd(src("10.0.0.0/8"), proto("tcp")))
        assert [mand(*lits) for lits in normalize_nnf(m)] == [MNot(src("10.0.0.0/8")),
                                                               MNot(proto("tcp"))]

    def test_not_true_vanishes(self):
        assert normalize_nnf(MNotTrue) == []

    def test_negated_port_expands_protocol_aware(self):
        udp = rs.PROTO_NUMBERS["udp"]
        m = MNot(MPrim(rs.DstPorts(udp, WordInterval.single(80, 16))))
        got = [mand(*lits) for lits in normalize_nnf(m)]
        assert got[0] == MNot(MPrim(rs.Protocol(udp)))
        rest = got[1]
        assert isinstance(rest, MAnd) and rest.left == MPrim(rs.Protocol(udp))
        assert rest.right.prim.ports == WordInterval.single(80, 16).complement()

    def test_results_are_nnf(self):
        def is_nnf(m):
            if m == MTrue or isinstance(m, MPrim):
                return True
            if isinstance(m, MNot):
                return isinstance(m.inner, MPrim)
            return is_nnf(m.left) and is_nnf(m.right)

        rng = random.Random(5)
        for m in _random_matches(rng, 200):
            for lits in normalize_nnf(m):
                assert is_nnf(mand(*lits))

    def test_meta_disjunction_equivalence(self):
        """The disjunction of the split results equals the original match,
        brute forced over all assignments of the occurring primitives."""
        rng = random.Random(6)
        for m in _random_matches(rng, 150):
            prims = sorted({p.text for p in rs.primitives_in(m)})
            results = [mand(*lits) for lits in normalize_nnf(m)]
            for bits in product([False, True], repeat=len(prims)):
                assign = dict(zip(prims, bits))

                def ev(x):
                    if x == MTrue:
                        return True
                    if isinstance(x, MPrim):
                        return assign[x.prim.text]
                    if isinstance(x, MNot):
                        return not ev(x.inner)
                    return ev(x.left) and ev(x.right)

                assert ev(m) == any(ev(r) for r in results)


    @staticmethod
    def assert_tuples_equal_definitional_trees(matches):
        for m in matches:
            want = [tuple(conjuncts(d)) for d in definitional_normalize_nnf(m)]
            assert normalize_nnf(m) == want, m

    def test_tuples_equal_definitional_trees_on_the_corpus(self, data_dir):
        for path in sorted(data_dir.glob("*.iptables")):
            family = "v6" if "ipv6" in path.name else "v4"
            table = parse_save(path.read_text(), family)
            for chain in table.policies:
                unfolded = unfold(table, chain)
                rules = unfolded + ctstate_specialize(unfolded)
                self.assert_tuples_equal_definitional_trees(r.match for r in rules)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tuples_equal_definitional_trees_on_return_ladders(self, seed):
        for k in range(9):
            text, _ = seeded_return_ladder(seed, k)
            unfolded = unfold(parse_save(text), "FORWARD")
            rules = unfolded + ctstate_specialize(unfolded)
            self.assert_tuples_equal_definitional_trees(r.match for r in rules)

    def test_tuples_equal_definitional_trees_on_random_matches(self):
        self.assert_tuples_equal_definitional_trees(_random_matches(random.Random(7), 2000))


def _random_matches(rng, n, max_prims=4):
    prims = [extra(name) for name in "abcd"[:max_prims]]

    def build(depth):
        r = rng.random()
        if depth <= 0 or r < 0.4:
            return rng.choice(prims)
        if r < 0.55:
            return MTrue
        if r < 0.75:
            return MNot(build(depth - 1))
        return MAnd(build(depth - 1), build(depth - 1))

    return [build(4) for _ in range(n)]


class TestMatchBuilders:
    """mand and opt_match test for True and not-True by identity; they
    build what the equality-based builders build."""

    def test_mtrue_is_one_object(self):
        assert type(MTrue)() is MTrue
        for made in (copy.copy(MTrue), copy.deepcopy(MTrue), pickle.loads(pickle.dumps(MTrue))):
            assert made is MTrue
        for made in (copy.deepcopy(MNotTrue), pickle.loads(pickle.dumps(MNot(MTrue)))):
            assert made is not MNotTrue and made.inner is MTrue and is_false(made)
        assert not is_false(MTrue) and not is_false(MNot(MNot(MTrue)))

    def test_builders_equal_the_equality_oracle_on_random_matches(self):
        rng = random.Random(15)
        ms = _random_matches(rng, 2000)
        ms += [copy.deepcopy(m) for m in ms[:200]]  # copies of MNot(MTrue) are not MNotTrue
        assert sum(is_false(m) and m is not MNotTrue for m in ms) > 50
        for m in ms:
            assert opt_match(m) == equality_opt_match(m)
            group = [m, *rng.sample(ms, rng.randrange(3))]
            assert mand(*group) == equality_mand(*group)

    @pytest.mark.parametrize("name,chain", CORPUS)
    def test_builders_equal_the_equality_oracle_on_the_corpus(self, name, chain):
        table = parse_save(load_ruleset(name))
        for rules in [*table.chains.values(), unfold(table, chain)]:
            matches = [r.match for r in rules]
            assert mand(*matches) == equality_mand(*matches)
            for m in matches:
                assert opt_match(m) == equality_opt_match(m)


def _random_jump_table(rng, n_chains=5):
    """A random acyclic FORWARD table: each chain calls and jumps only to
    chains defined after it, and any rule may be a Return."""
    names = ["FORWARD"] + [f"c{i}" for i in range(1, n_chains)]
    conds = [src("10.0.0.0/8"), src("10.1.0.0/16"), MPrim(rs.Dst(parse_address_set("10.0.0.0/8"))),
             proto("tcp"), proto("udp"), MPrim(rs.IIface("eth1"))]
    chains = {}
    for i, name in enumerate(names):
        later = names[i + 1:]
        rules = []
        for _ in range(rng.randrange(6)):
            m = rng.choice(conds + [MTrue])
            if m != MTrue and rng.random() < 0.3:
                m = MNot(m)
            if rng.random() < 0.3:
                m = mand(m, rng.choice(conds))
            kind = rng.choice(["accept", "drop", "return"] + ["call", "goto", "goto"] * bool(later))
            if kind in ("call", "goto"):
                action = rs.Action(kind, rng.choice(later))
            else:
                action = rs.Action(kind)
            rules.append(Rule(m, action))
        chains[name] = rules
    return Table(chains, {"FORWARD": rng.choice([rs.ACCEPT, rs.DROP])})


class TestCtStateSpecialize:
    def test_established_rule_drops_out_under_new(self):
        rules = [
            Rule(MPrim(rs.CtState(frozenset({"ESTABLISHED"}))), rs.ACCEPT),
            Rule(MTrue, rs.DROP),
        ]
        assert ctstate_specialize(rules, "NEW") == [Rule(MTrue, rs.DROP)]

    def test_new_state_match_vanishes(self):
        rules = [
            Rule(mand(MPrim(rs.CtState(frozenset({"NEW"}))), proto("tcp")), rs.ACCEPT)
        ]
        assert ctstate_specialize(rules, "NEW") == [Rule(proto("tcp"), rs.ACCEPT)]

    def test_syn_assumption(self):
        syn = rs.TcpFlags(frozenset({"FIN", "SYN", "RST", "ACK"}), frozenset({"SYN"}))
        contradictory = rs.TcpFlags(frozenset({"RST", "ACK"}), frozenset({"RST"}))
        rules = [
            Rule(mand(proto("tcp"), MPrim(syn)), rs.ACCEPT),
            Rule(mand(proto("tcp"), MPrim(contradictory)), rs.ACCEPT),
            Rule(MTrue, rs.DROP),
        ]
        out = ctstate_specialize(rules, "NEW")
        # the --syn match is absorbed, the contradictory rule disappears
        assert out == [Rule(proto("tcp"), rs.ACCEPT), Rule(MTrue, rs.DROP)]

    def test_established_assumption_keeps_established_rules(self):
        rules = [
            Rule(MPrim(rs.CtState(frozenset({"ESTABLISHED"}))), rs.ACCEPT),
            Rule(MTrue, rs.DROP),
        ]
        assert ctstate_specialize(rules, "ESTABLISHED")[0] == Rule(MTrue, rs.ACCEPT)

    def test_untouched_subtrees_are_shared(self):
        tcp_src = mand(proto("tcp"), src("10.0.0.0/8"))
        new = MPrim(rs.CtState(frozenset({"NEW"})))
        rules = [Rule(tcp_src, rs.ACCEPT), Rule(MAnd(new, tcp_src), rs.DROP),
                 Rule(MNot(MAnd(MNot(new), tcp_src)), rs.ACCEPT)]
        out = ctstate_specialize(rules, "NEW")
        assert [r.match for r in out] == [tcp_src, tcp_src, MTrue]
        assert out[0].match is tcp_src and out[1].match is tcp_src

    @pytest.mark.parametrize("name,chain", CORPUS)
    def test_rule_without_state_or_flags_keeps_its_match(self, name, chain):
        untouched = 0
        for r in unfold(parse_save(load_ruleset(name)), chain):
            if not any(isinstance(p, (rs.CtState, rs.TcpFlags)) for p in rs.primitives_in(r.match)):
                assert ctstate_specialize([r], "NEW")[0].match is r.match
                untouched += 1
        assert untouched

    @pytest.mark.parametrize("name,chain", CORPUS)
    def test_unchanged_rules_are_kept_by_identity(self, name, chain):
        """A rule whose match the assumption leaves alone is the input
        Rule itself."""
        rules = unfold(parse_save(load_ruleset(name)), chain)
        out = ctstate_specialize(rules, "NEW")
        assert out == rebuilding_ctstate_specialize(rules, "NEW")
        kept = [r for r in out if any(r is i for i in rules)]
        assert kept and kept == [r for r in out if any(r.match is i.match for i in rules)]

    @pytest.mark.parametrize("name,chain", CORPUS)
    def test_only_changed_matches_are_optimized_again(self, monkeypatch, name, chain):
        """unfold's output is optimized already, so opt_match sees at most
        the matches that hold a state or flag primitive, the ones the
        assumption may change."""
        rules = unfold(parse_save(load_ruleset(name)), chain)
        seen = []
        monkeypatch.setattr(semantics, "opt_match", lambda m: seen.append(m) or rs.opt_match(m))
        ctstate_specialize(rules, "NEW")
        touched = [r for r in rules if any(isinstance(p, (rs.CtState, rs.TcpFlags))
                                           for p in rs.primitives_in(r.match))]
        assert len(seen) <= len(touched) < len(rules)

    @pytest.mark.parametrize("assumed", ["NEW", "ESTABLISHED"])
    def test_equals_the_rebuilding_oracle(self, assumed):
        tables = [(parse_save(load_ruleset(name)), chain) for name, chain in CORPUS]
        tables += [(parse_save(seeded_return_ladder(1, k)[0]), "FORWARD") for k in range(11)]
        rule_lists = [unfold(table, chain) for table, chain in tables]
        # random state and flag matches, anywhere in a tree, optimized as
        # unfold leaves its output
        rng = random.Random(16)
        rule_lists += [semantics.optimize_rules([
            Rule(_random_expr(rng, 4), rng.choice((rs.ACCEPT, rs.DROP, rs.LOG)))
            for _ in range(8)]) for _ in range(300)]
        for rules in rule_lists:
            assert ctstate_specialize(rules, assumed) == \
                rebuilding_ctstate_specialize(rules, assumed)
