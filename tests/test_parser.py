import dataclasses
import random
import shlex

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import CORPUS, load_ruleset
from netfence import parser
from netfence import ruleset as rs
from netfence.errors import NetfenceError, SyntaxError_, UndefinedChainTarget, UnknownAction
from netfence.parser import _OPTIONS, _tokenize, parse_ipassmt, parse_routing, parse_save
from netfence.ruleset import (
    MNot,
    MPrim,
    MTrue,
    conjuncts,
    table_to_save,
)
from netfence.serializer import HostBinding, emit_iptables
from netfence.spoofing import SpoofVerdict
from netfence.stateful import StatefulPolicy
from netfence.wordinterval import (WordInterval, format_interval, ip_format, ip_parse,
                                   parse_address_set)


def _ports(lo, hi):
    return WordInterval.range(lo, hi, 16)


# one of each primitive type, after the protocol match it needs
PRIMITIVES = [
    ([], rs.Src(parse_address_set("10.0.0.0/8"))),
    ([], rs.Src(parse_address_set("10.0.0.1-10.0.0.5"))),
    ([], rs.Dst(parse_address_set("192.168.1.1"))),
    ([], rs.Dst(parse_address_set("10.0.1.0-10.0.1.9"))),
    ([], rs.IIface("eth0")),
    ([], rs.OIface("br+")),
    ([], rs.Protocol(6)),
    ([MPrim(rs.Protocol(6))], rs.SrcPorts(6, _ports(1024, 65535))),
    ([MPrim(rs.Protocol(17))], rs.DstPorts(17, _ports(53, 53))),
    ([MPrim(rs.Protocol(6))], rs.MultiportSrc(6, _ports(80, 80).union(_ports(443, 444)))),
    ([MPrim(rs.Protocol(132))], rs.MultiportDst(132, _ports(22, 22).union(_ports(80, 80)))),
    ([], rs.CtState(frozenset({"NEW", "ESTABLISHED"}))),
    ([MPrim(rs.Protocol(6))], rs.TcpFlags(frozenset({"SYN", "ACK"}), frozenset({"SYN"}))),
    ([], rs.Extra("-f")),
]


def _prim_id(prim):
    """The primitive's repr with frozenset members sorted, so that a test
    id is the same under every PYTHONHASHSEED."""
    def text(value):
        if isinstance(value, frozenset):
            return f"frozenset({{{', '.join(map(repr, sorted(value)))}}})"
        return repr(value)

    fields = ", ".join(f"{f.name}={text(getattr(prim, f.name))}" for f in dataclasses.fields(prim))
    return f"{type(prim).__name__}({fields})"


class TestParseSave:
    def test_example_ruleset_structure(self):
        t = parse_save(load_ruleset("example_ruleset.iptables"))
        assert set(t.chains) == {"INPUT", "FORWARD", "OUTPUT", "DOS_PROTECT", "GOOD~STUFF"}
        assert len(t.chains["FORWARD"]) == 8
        assert len(t.chains["DOS_PROTECT"]) == 2
        assert len(t.chains["GOOD~STUFF"]) == 3
        assert t.policies["FORWARD"] == rs.DROP

    def test_negated_interface_rule(self):
        t = parse_save(load_ruleset("example_ruleset.iptables"))
        rule = t.chains["FORWARD"][3]  # ! -i lo -s 127.0.0.0/8 -j DROP
        assert rule.action == rs.DROP
        leaves = conjuncts(rule.match)
        assert leaves[0] == MNot(MPrim(rs.IIface("lo")))
        assert leaves[1] == MPrim(rs.Src(parse_address_set("127.0.0.0/8")))

    def test_undefined_chain_target(self):
        text = "*filter\n:FORWARD ACCEPT [0:0]\n-A FORWARD -j NOSUCH\nCOMMIT\n"
        with pytest.raises(UndefinedChainTarget):
            parse_save(text)

    def test_unknown_extension_target(self):
        text = "*filter\n:FORWARD ACCEPT [0:0]\n-A FORWARD -j MASQUERADE\nCOMMIT\n"
        with pytest.raises(UnknownAction):
            parse_save(text)

    def test_multiport_entry_limit(self):
        ports = ",".join(str(p) for p in range(1, 17))
        text = f"*filter\n:INPUT DROP [0:0]\n-A INPUT -p tcp -m multiport --dports {ports} -j DROP\nCOMMIT\n"
        with pytest.raises(SyntaxError_):
            parse_save(text)

    def test_multi_address_sugar_expands(self):
        text = (
            "*filter\n:FORWARD DROP [0:0]\n"
            "-A FORWARD -s 10.0.0.1,10.0.0.42 -j ACCEPT\nCOMMIT\n"
        )
        t = parse_save(text)
        rules = t.chains["FORWARD"]
        assert len(rules) == 2
        assert rules[0].match == MPrim(rs.Src(parse_address_set("10.0.0.1")))
        assert rules[1].match == MPrim(rs.Src(parse_address_set("10.0.0.42")))

    def test_negated_multi_address_is_rejected(self):
        text = "*filter\n:FORWARD DROP [0:0]\n-A FORWARD ! -s 10.0.0.1,10.0.0.2 -j ACCEPT\nCOMMIT\n"
        with pytest.raises(SyntaxError_):
            parse_save(text)

    def test_insert_prepends(self):
        text = (
            "*filter\n:FORWARD DROP [0:0]\n"
            "-A FORWARD -s 10.0.0.1 -j ACCEPT\n"
            "-I FORWARD -s 10.0.0.2 -j ACCEPT\nCOMMIT\n"
        )
        rules = parse_save(text).chains["FORWARD"]
        assert rules[0].match == MPrim(rs.Src(parse_address_set("10.0.0.2")))

    def test_unknown_module_becomes_one_extra(self):
        text = (
            "*filter\n:INPUT ACCEPT [0:0]\n"
            "-A INPUT -m recent --update --seconds 60 --name ratessh -j DROP\nCOMMIT\n"
        )
        rule = parse_save(text).chains["INPUT"][0]
        assert rule.match == MPrim(
            rs.Extra("-m recent --update --seconds 60 --name ratessh")
        )

    def test_quoted_arguments(self):
        text = (
            "*filter\n:INPUT ACCEPT [0:0]\n"
            '-A INPUT -m comment --comment "a b c" -j ACCEPT\nCOMMIT\n'
        )
        rule = parse_save(text).chains["INPUT"][0]
        assert rule.match == MTrue  # comments carry no match semantics

    def test_iprange_module(self):
        text = (
            "*filter\n:INPUT ACCEPT [0:0]\n"
            "-A INPUT -m iprange --src-range 10.0.0.1-10.0.0.5 -j DROP\nCOMMIT\n"
        )
        rule = parse_save(text).chains["INPUT"][0]
        assert rule.match == MPrim(rs.Src(parse_address_set("10.0.0.1-10.0.0.5")))

    def test_tcp_flags_and_syn(self):
        text = (
            "*filter\n:INPUT ACCEPT [0:0]\n"
            "-A INPUT -p tcp -m tcp --syn -j ACCEPT\n"
            "-A INPUT -p tcp -m tcp --tcp-flags SYN,ACK SYN -j DROP\nCOMMIT\n"
        )
        rules = parse_save(text).chains["INPUT"]
        syn = conjuncts(rules[0].match)[1]
        assert syn == MPrim(
            rs.TcpFlags(frozenset({"FIN", "SYN", "RST", "ACK"}), frozenset({"SYN"}))
        )
        flags = conjuncts(rules[1].match)[1]
        assert flags == MPrim(rs.TcpFlags(frozenset({"SYN", "ACK"}), frozenset({"SYN"})))

    def test_other_tables_are_skipped(self):
        text = (
            "*nat\n:PREROUTING ACCEPT [0:0]\n-A PREROUTING -j SNAT --to 1.2.3.4\nCOMMIT\n"
            "*filter\n:INPUT ACCEPT [0:0]\n-A INPUT -j DROP\nCOMMIT\n"
        )
        t = parse_save(text)
        assert set(t.chains) == {"INPUT"}

    def test_ipv6_addresses(self):
        text = (
            "*filter\n:INPUT DROP [0:0]\n"
            "-A INPUT -s 2001:db8::/32 -j ACCEPT\nCOMMIT\n"
        )
        t = parse_save(text, family="v6")
        rule = t.chains["INPUT"][0]
        assert rule.match == MPrim(rs.Src(parse_address_set("2001:db8::/32", "v6")))

    def test_syntax_error_carries_line_number(self):
        text = "*filter\n:INPUT ACCEPT [0:0]\n-A INPUT --dport banana -j DROP\nCOMMIT\n"
        with pytest.raises(SyntaxError_) as exc:
            parse_save(text)
        assert exc.value.line == 3

    @pytest.mark.parametrize("spec,expected", [
        ("-m conntrack ! --ctstate INVALID", [MNot(MPrim(rs.CtState(frozenset({"INVALID"}))))]),
        ("-m state ! --state NEW,RELATED",
         [MNot(MPrim(rs.CtState(frozenset({"NEW", "RELATED"}))))]),
        ("-p udp -m multiport ! --dports 53,67:68 -m multiport --sports 1000",
         [MPrim(rs.Protocol(17)),
          MNot(MPrim(rs.MultiportDst(17, _ports(53, 53).union(_ports(67, 68))))),
          MPrim(rs.MultiportSrc(17, _ports(1000, 1000)))]),
        ("-m iprange ! --src-range 10.0.0.1-10.0.0.5 --dst-range 10.0.1.0-10.0.1.9",
         [MNot(MPrim(rs.Src(parse_address_set("10.0.0.1-10.0.0.5")))),
          MPrim(rs.Dst(parse_address_set("10.0.1.0-10.0.1.9")))]),
        ("-m tcp ! --dport 22 ! --syn",
         [MNot(MPrim(rs.DstPorts(6, _ports(22, 22)))),
          MNot(MPrim(rs.TcpFlags(frozenset({"FIN", "SYN", "RST", "ACK"}), frozenset({"SYN"}))))]),
        ("! -f -m recent ! --rcheck --seconds 60 -m comment --comment x",
         [MNot(MPrim(rs.Extra("-f"))), MPrim(rs.Extra("-m recent ! --rcheck --seconds 60"))]),
    ])
    def test_negated_options_in_and_out_of_groups(self, spec, expected):
        text = f"*filter\n:INPUT ACCEPT [0:0]\n-A INPUT {spec} -j DROP\nCOMMIT\n"
        rule = parse_save(text).chains["INPUT"][0]
        assert conjuncts(rule.match) == expected and rule.action == rs.DROP

    @pytest.mark.parametrize("spec", [
        "-i -j DROP",
        "-s ! 10.0.0.1 -j DROP",
        "-p tcp --dport -j DROP",
        "-m -j DROP",
        "-m tcp ! ! --dport 22 -j DROP",
        "! -p all -j DROP",
        "! -m tcp --dport 22 -j DROP",
        "-j",
    ])
    def test_malformed_option_is_a_syntax_error(self, spec):
        text = f"*filter\n:INPUT ACCEPT [0:0]\n-A INPUT {spec}\nCOMMIT\n"
        with pytest.raises(SyntaxError_) as exc:
            parse_save(text)
        assert exc.value.line == 3

    @pytest.mark.parametrize("spec,message", [
        ("--dport", "port match requires a tcp/udp/sctp protocol context"),
        ("--tcp-flags", "port match requires a tcp/udp/sctp protocol context"),
        ("-p tcp --tcp-flags BAD", "unknown TCP flag 'BAD'"),
        ("-p tcp --tcp-flags SYN", "--tcp-flags needs a value"),
        ("-p tcp --tcp-flags SYN -j DROP", "--tcp-flags needs a value, not '-j'"),
        ("-m comment --comment", "unexpected end of rule"),
        ("-j LOG --log-prefix", "unexpected end of rule"),
        ("-j REJECT --reject-with", "unexpected end of rule"),
    ])
    def test_malformed_option_reports_its_first_fault(self, spec, message):
        with pytest.raises(SyntaxError_) as exc:
            parse_save(f"*filter\n:INPUT ACCEPT [0:0]\n-A INPUT {spec}\nCOMMIT\n")
        assert str(exc.value) == f"{message} (line 3)"

    def test_comment_text_may_look_like_an_option(self):
        text = "*filter\n:INPUT ACCEPT [0:0]\n-A INPUT -m comment --comment -x -j DROP\nCOMMIT\n"
        rule = parse_save(text).chains["INPUT"][0]
        assert rule.match is rs.MTrue and rule.action == rs.DROP

    @pytest.mark.parametrize("target,action", [
        ("LOG --log-tcp-options", rs.LOG),
        ("LOG --log-uid --log-prefix x", rs.LOG),
        ("LOG --log-prefix 'IN: ' --log-level 4 --log-tcp-sequence --log-ip-options", rs.LOG),
        ("LOG --log-macdecode", rs.LOG),
        ("NFLOG --nflog-group 5", rs.LOG),
        ("NFLOG --nflog-prefix x --nflog-range 64 --nflog-size 64 --nflog-threshold 2", rs.LOG),
        ("REJECT --reject-with icmp-port-unreachable", rs.REJECT),
    ])
    def test_target_options_are_read_by_arity(self, target, action):
        text = f"*filter\n:INPUT ACCEPT [0:0]\n-A INPUT -p tcp -j {target}\nCOMMIT\n"
        rule = parse_save(text).chains["INPUT"][0]
        assert rule.match == MPrim(rs.Protocol(6)) and rule.action == action

    def test_unknown_target_option_stays_a_match(self):
        text = "*filter\n:INPUT ACCEPT [0:0]\n-A INPUT -j LOG --log-foo 1\nCOMMIT\n"
        rule = parse_save(text).chains["INPUT"][0]
        assert rule.match == MPrim(rs.Extra("--log-foo 1")) and rule.action == rs.LOG

    @pytest.mark.parametrize("index,ok", [(0, False), (1, True), (3, True), (4, False)])
    def test_insert_index_is_checked(self, index, ok):
        text = (
            "*filter\n:FORWARD DROP [0:0]\n"
            "-A FORWARD -s 10.0.0.1 -j ACCEPT\n-A FORWARD -s 10.0.0.2 -j ACCEPT\n"
            f"-I FORWARD {index} -s 10.0.0.3 -j DROP\nCOMMIT\n"
        )
        if not ok:
            with pytest.raises(SyntaxError_) as exc:
                parse_save(text)
            assert exc.value.line == 5
            return
        rules = parse_save(text).chains["FORWARD"]
        assert rules[index - 1].action == rs.DROP and len(rules) == 3

    @pytest.mark.parametrize("directive", ["-N", "-A", "-I"])
    def test_directive_without_chain_name(self, directive):
        with pytest.raises(SyntaxError_) as exc:
            parse_save(f"*filter\n:INPUT ACCEPT [0:0]\n{directive}\nCOMMIT\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("line,policy", [
        (":X ACCEPT [0:0]", rs.ACCEPT), (":X DROP", rs.DROP), (":X - [0:0]", None),
        (":X ACCEPT more words", rs.ACCEPT), ("-P X ACCEPT", rs.ACCEPT), ("-P X DROP", rs.DROP),
    ])
    def test_chain_policy_forms(self, line, policy):
        t = parse_save(f"*filter\n{line}\nCOMMIT\n")
        assert t.chains == {"X": []} and t.policies.get("X") == policy

    @pytest.mark.parametrize("line,message", [
        (":X", "chain header needs a policy"), (":", "chain header needs a policy"),
        (":X REJECT [0:0]", "unsupported chain policy 'REJECT'"),
        ("-P X -", "bad -P line"), ("-P X REJECT", "bad -P line"), ("-P X", "bad -P line"),
        ("-P", "bad -P line"), ("-P X ACCEPT [0:0]", "bad -P line"),
    ])
    def test_bad_chain_policy(self, line, message):
        with pytest.raises(SyntaxError_) as exc:
            parse_save(f"*filter\n{line}\nCOMMIT\n")
        assert str(exc.value) == f"{message} (line 2)"

    def test_address_error_names_its_line(self):
        text = "*filter\n:INPUT ACCEPT [0:0]\n-A INPUT -s 10.0.0.0/33 -j DROP\nCOMMIT\n"
        with pytest.raises(SyntaxError_) as exc:
            parse_save(text)
        assert exc.value.line == 3 and "/33" in str(exc.value)


class TestNonAsciiWhitespace:
    """The tokenizer splits only on ASCII whitespace, so an NBSP or an
    ideographic space stays inside an address token, which is refused."""

    @pytest.mark.parametrize("option", ["-s", "-d", "-m iprange --src-range"])
    @pytest.mark.parametrize("token", ["\u00a010.0.0.1\u3000", "10.0.0.1\u00a0",
                                       "\u300010.0.0.0/8", "10.0.0.0/\u00a08",
                                       "10.0.0.1,\u00a010.0.0.2"])
    def test_address_with_non_ascii_whitespace_is_refused(self, option, token):
        if option.endswith("range"):
            token = f"{token}-10.0.0.9"
        with pytest.raises(SyntaxError_, match=r"\(line 3\)$"):
            parse_save(_save(f"-A INPUT {option} {token} -j DROP"))

    def test_ascii_whitespace_inside_quotes_is_stripped(self):
        quoted = parse_save(_save('-A INPUT -s " 10.0.0.1\t" -j DROP'))
        assert quoted == parse_save(_save("-A INPUT -s 10.0.0.1 -j DROP"))


class TestTokenize:
    """_tokenize splits a line as shlex.split does in POSIX mode without
    comments; lines without quotes or backslashes are split with str.split."""

    @staticmethod
    def shlex_words(line):
        """shlex's words, or the tokenizer error that _tokenize raises."""
        try:
            return shlex.split(line, comments=False, posix=True)
        except ValueError as exc:
            return f"tokenizer: {exc}"

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(st.text(alphabet="ab9-!,/:# \t\r\n\xa0\"'\\", max_size=30))
    @example("-A INPUT\t-s 10.0.0.0/8 -j DROP")
    @example("-m comment --comment \"web tier\" -i a\\ b")
    def test_equals_shlex(self, line):
        try:
            got = _tokenize(line, 5)
        except SyntaxError_ as exc:
            got = str(exc)
            assert exc.line == 5 and got.startswith("tokenizer:")
            got = got.removesuffix(" (line 5)")
        assert got == self.shlex_words(line)

    @pytest.mark.parametrize("line,words", [
        ("-i eth\xa00 -j DROP", ["-i", "eth\xa00", "-j", "DROP"]),
        ("-A INPUT\t-s 10.0.0.0/8\t\t-j DROP", ["-A", "INPUT", "-s", "10.0.0.0/8", "-j", "DROP"]),
        ("-A INPUT -m comment --comment #1 -j DROP",
         ["-A", "INPUT", "-m", "comment", "--comment", "#1", "-j", "DROP"]),
        ("", []),
    ])
    def test_unit_cases(self, line, words):
        assert _tokenize(line, 1) == words == shlex.split(line, comments=False, posix=True)


def _count_address_parses(monkeypatch):
    """Record the (text, family) of every parse_address_set call the
    parser makes."""
    calls = []

    def counting(text, family="v4"):
        calls.append((text, family))
        return parse_address_set(text, family)

    monkeypatch.setattr(parser, "parse_address_set", counting)
    return calls


def _save(*rules, chain="INPUT"):
    return "\n".join(["*filter", f":{chain} ACCEPT [0:0]", *rules, "COMMIT"]) + "\n"


class TestAddressMemo:
    """parse_save reads each address text once per call, through a memo
    that lives only as long as that call."""

    def test_repeated_address_is_parsed_once_per_call(self, monkeypatch):
        calls = _count_address_parses(monkeypatch)
        text = _save(*["-A INPUT -s 10.0.0.0/8 -d 10.0.0.0/8 -j DROP"] * 500)
        rules = parse_save(text).chains["INPUT"]
        assert calls == [("10.0.0.0/8", "v4")]
        assert len(rules) == 500 and all(r.match == rules[0].match for r in rules)
        parse_save(text)
        assert calls == [("10.0.0.0/8", "v4")] * 2

    def test_bad_address_is_reported_at_its_first_line(self, monkeypatch):
        calls = _count_address_parses(monkeypatch)
        text = _save("-A INPUT -s 10.0.0.0/33 -j DROP", "-A INPUT -j ACCEPT",
                     "-A INPUT -d 10.0.0.1 -j DROP", "-A INPUT -s 10.0.0.1 -j DROP",
                     "-A INPUT -d 10.0.0.0/33 -j DROP")
        with pytest.raises(SyntaxError_) as exc:
            parse_save(text)
        assert exc.value.line == 3 and calls == [("10.0.0.0/33", "v4")]

    def test_families_do_not_share_entries(self, monkeypatch):
        calls = _count_address_parses(monkeypatch)
        text = _save("-A INPUT -s 10.0.0.1 -j DROP", "-A INPUT -d 10.0.0.1 -j DROP")
        assert parse_save(text, "v4").chains["INPUT"][0].match == \
            MPrim(rs.Src(parse_address_set("10.0.0.1")))
        with pytest.raises(SyntaxError_) as exc:
            parse_save(text, "v6")
        assert exc.value.line == 3 and calls == [("10.0.0.1", "v4"), ("10.0.0.1", "v6")]


def _leaves(table):
    """Every MPrim node of the table's rules, shared ones once per use."""
    out, stack = [], [r.match for rules in table.chains.values() for r in rules]
    while stack:
        m = stack.pop()
        if isinstance(m, MPrim):
            out.append(m)
        elif isinstance(m, MNot):
            stack.append(m.inner)
        elif isinstance(m, rs.MAnd):
            stack += (m.left, m.right)
    return out


class TestSharedLeaves:
    """parse_save makes each leaf once per call and key: its class, its
    value text and, for a port match, the protocol."""

    def test_equal_leaves_are_one_object_within_a_call(self):
        repeated = 0
        for name in sorted({name for name, _ in CORPUS}):
            leaves = _leaves(parse_save(load_ruleset(name)))
            first = {}
            for leaf in leaves:
                assert first.setdefault(leaf, leaf) is leaf, (name, leaf)
            repeated += len(leaves) - len(first)
        assert repeated > 100

    def test_two_calls_share_no_leaf(self):
        text = load_ruleset("docker_mynet.iptables")
        one, two = parse_save(text), parse_save(text)
        assert one.chains == two.chains
        assert not {id(m) for m in _leaves(one)} & {id(m) for m in _leaves(two)}

    def test_port_leaves_keep_their_protocol(self):
        rules = parse_save(_save("-A INPUT -p tcp --dport 22 -j DROP",
                                 "-A INPUT -p udp --dport 22 -j DROP",
                                 "-A INPUT -p tcp -m tcp --dport 22 -j DROP",
                                 "-A INPUT -m udp --dport 22 -j DROP")).chains["INPUT"]
        tcp, udp, tcp_module, udp_module = (conjuncts(r.match)[-1] for r in rules)
        assert tcp.prim == rs.DstPorts(6, _ports(22, 22))
        assert udp.prim == rs.DstPorts(17, _ports(22, 22))
        assert tcp is tcp_module and udp is udp_module and tcp is not udp

    def test_flag_leaves_ignore_the_protocol(self):
        rules = parse_save(_save("-A INPUT -p tcp --syn -j DROP",
                                 "-A INPUT -p udp --tcp-flags FIN,SYN,RST,ACK SYN -j DROP")
                           ).chains["INPUT"]
        syn, flags = (conjuncts(r.match)[-1] for r in rules)
        assert syn is flags and syn.prim == rs.TcpFlags(
            frozenset({"FIN", "SYN", "RST", "ACK"}), frozenset({"SYN"}))

    def test_a_leaf_shared_under_negation(self):
        text = _save("-A INPUT -s 10.0.0.0/8 -j DROP", "-A INPUT ! -s 10.0.0.0/8",
                     "-A INPUT -d 10.0.0.0/8", "-A INPUT ! -i eth0 -i eth0")
        rules = parse_save(text).chains["INPUT"]
        assert rules[1].match.inner is rules[0].match
        assert rules[2].match is not rules[0].match and rules[2].match.prim.addrs is \
            rules[0].match.prim.addrs
        negated, plain = conjuncts(rules[3].match)
        assert negated.inner is plain


class TestAddressLists:
    """Each `a,b` list of -s or -d is one factor of the rule product."""

    def test_two_source_lists_give_every_pair(self):
        rules = parse_save(_save("-A INPUT -s 1.2.3.4,5.6.7.8 -s 9.9.9.9,8.8.8.8 -p tcp "
                                 "--dport 22 -j ACCEPT")).chains["INPUT"]
        tail = [MPrim(rs.Protocol(6)), MPrim(rs.DstPorts(6, _ports(22, 22)))]
        assert [conjuncts(r.match) for r in rules] == [
            [MPrim(rs.Src(parse_address_set(a))), MPrim(rs.Src(parse_address_set(b))), *tail]
            for a in ("1.2.3.4", "5.6.7.8") for b in ("9.9.9.9", "8.8.8.8")]
        assert all(r.action == rs.ACCEPT and r.raw == rules[0].raw for r in rules)

    def test_source_lists_come_before_destination_lists(self):
        rules = parse_save(_save("-A INPUT -d 10.0.0.1,10.0.0.2 -s 1.1.1.1,2.2.2.2 "
                                 "-s 3.3.3.3,4.4.4.4 -j DROP")).chains["INPUT"]
        addresses = [[ip_format(p.prim.addrs.min(), 32) for p in conjuncts(r.match)]
                     for r in rules]
        assert addresses == [[s1, s2, d] for s1 in ("1.1.1.1", "2.2.2.2")
                          for s2 in ("3.3.3.3", "4.4.4.4") for d in ("10.0.0.1", "10.0.0.2")]

    def test_a_list_and_a_single_address_conjoin(self):
        rules = parse_save(_save("-A INPUT -s 10.0.0.0/8 -s 10.0.0.1,192.168.0.1 -j DROP")
                           ).chains["INPUT"]
        assert [conjuncts(r.match) for r in rules] == [
            [MPrim(rs.Src(parse_address_set(a))), MPrim(rs.Src(parse_address_set("10.0.0.0/8")))]
            for a in ("10.0.0.1", "192.168.0.1")]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        [
            "synology.iptables",
            "example_ruleset.iptables",
            "fwbuilder.iptables",
            "blogpost.iptables",
            "forward_foo.iptables",
            "return_ports.iptables",
            "docker_default.iptables",
            "docker_mynet.iptables",
            "webapp_central.iptables",
        ],
    )
    def test_corpus_parses_and_roundtrips(self, name):
        t = parse_save(load_ruleset(name))
        again = parse_save(table_to_save(t))
        assert again.chains == t.chains
        assert again.policies == t.policies

    @pytest.mark.parametrize("context,prim", PRIMITIVES, ids=[_prim_id(p) for _, p in PRIMITIVES])
    @pytest.mark.parametrize("negated", [False, True])
    def test_every_primitive_roundtrips(self, context, prim, negated):
        leaf = MNot(MPrim(prim)) if negated else MPrim(prim)
        t = rs.Table({"FORWARD": [rs.Rule(rs.mand(*context, leaf), rs.DROP)]},
                     {"FORWARD": rs.ACCEPT})
        assert parse_save(table_to_save(t)).chains == t.chains

    def test_every_action_kind_roundtrips(self):
        """ACCEPT, DROP, REJECT, LOG, no target, RETURN, a call and a goto,
        in builtin and user chains, and a --tcp-flags comparison of NONE."""
        syn_ack = frozenset({"SYN", "ACK"})
        tcp = MPrim(rs.Protocol(6))
        t = rs.Table({
            "FORWARD": [
                rs.Rule(rs.mand(tcp, MPrim(rs.TcpFlags(syn_ack, frozenset()))), rs.call("sub")),
                rs.Rule(MPrim(rs.IIface("eth0")), rs.goto("jump")),
                rs.Rule(MPrim(rs.Protocol(17)), rs.EMPTY),
                rs.Rule(MPrim(rs.Protocol(1)), rs.LOG),
                rs.Rule(MTrue, rs.REJECT),
            ],
            "INPUT": [rs.Rule(MTrue, rs.ACCEPT)],
            "jump": [rs.Rule(MPrim(rs.OIface("br+")), rs.DROP), rs.Rule(MTrue, rs.ACCEPT)],
            "sub": [rs.Rule(MPrim(rs.IIface("lo")), rs.RETURN), rs.Rule(MTrue, rs.EMPTY)],
        }, {"FORWARD": rs.DROP, "INPUT": rs.ACCEPT})
        text = table_to_save(t)
        lines = text.splitlines()
        for line in ("-A FORWARD -p tcp -m tcp --tcp-flags SYN,ACK NONE -j sub",
                     "-A FORWARD -i eth0 -g jump", "-A FORWARD -p udp",
                     "-A FORWARD -p icmp -j LOG", "-A FORWARD -j REJECT",
                     "-A sub -i lo -j RETURN", "-A sub", ":jump - [0:0]"):
            assert line in lines, (line, text)
        again = parse_save(text)
        assert again.chains == t.chains
        assert again.policies == t.policies

    def test_random_tokens_parse_or_raise_a_typed_error(self):
        rng = random.Random(7)
        words = [*_OPTIONS, "!", "!", "-f", "--limit", "--reject-with", "--log-prefix",
                 "10.0.0.0/8", "10.0.0.1-10.0.0.9", "10.0.0.1,10.0.0.2", "10.0.0.0/40",
                 "::1", "eth0", "eth+", "tcp", "udp", "icmp", "all", "300", "22", "1:1024",
                 "80,443", "9:1", "SYN,ACK", "ALL", "NONE", "NEW,ESTABLISHED", "BOGUS",
                 "multiport", "state", "conntrack", "iprange", "comment", "limit",
                 "ACCEPT", "DROP", "LOG", "REJECT", "RETURN", "FORWARD", "MASQUERADE",
                 "0", "1", "'a b'", '"-j DROP"', "'", "''"]
        for _ in range(3000):
            head = rng.choice(["-A FORWARD", "-I FORWARD", "-I FORWARD 1", "-N", "-P FORWARD"])
            line = " ".join([head, *rng.choices(words, k=rng.randint(0, 8))])
            text = f"*filter\n:FORWARD ACCEPT [0:0]\n{line}\nCOMMIT\n"
            try:
                assert isinstance(parse_save(text), rs.Table)
            except NetfenceError:
                pass


# the eight field primitives as prim_to_args prints them, plain and negated;
# a changed spelling that parses back to the same class escapes TestRoundTrip
SPELLINGS = [
    (rs.Src(parse_address_set("10.0.0.0/8")), "-s 10.0.0.0/8", "! -s 10.0.0.0/8"),
    (rs.Dst(parse_address_set("192.168.1.1")), "-d 192.168.1.1/32", "! -d 192.168.1.1/32"),
    (rs.Src(parse_address_set("10.0.0.1-10.0.0.5")), "-m iprange --src-range 10.0.0.1-10.0.0.5",
     "-m iprange ! --src-range 10.0.0.1-10.0.0.5"),
    (rs.Dst(parse_address_set("10.0.1.0-10.0.1.9")), "-m iprange --dst-range 10.0.1.0-10.0.1.9",
     "-m iprange ! --dst-range 10.0.1.0-10.0.1.9"),
    (rs.IIface("eth0"), "-i eth0", "! -i eth0"),
    (rs.OIface("br+"), "-o br+", "! -o br+"),
    (rs.SrcPorts(6, _ports(1024, 65535)), "-m tcp --sport 1024:65535",
     "-m tcp ! --sport 1024:65535"),
    (rs.DstPorts(17, _ports(53, 53)), "-m udp --dport 53", "-m udp ! --dport 53"),
    (rs.MultiportSrc(6, _ports(80, 80).union(_ports(443, 444))),
     "-m multiport --sports 80,443:444", "-m multiport ! --sports 80,443:444"),
    (rs.MultiportDst(132, _ports(22, 22).union(_ports(80, 80))),
     "-m multiport --dports 22,80", "-m multiport ! --dports 22,80"),
]


class TestPrintedSpelling:
    @pytest.mark.parametrize("prim,plain,negated", SPELLINGS,
                             ids=[_prim_id(p) for p, _, _ in SPELLINGS])
    def test_field_primitive_spelling(self, prim, plain, negated):
        assert rs.prim_to_args(prim) == plain
        assert rs.prim_to_args(prim, negated=True) == negated

    def test_v6_range_spelling(self):
        prim = rs.Src(parse_address_set("2001:db8::1-2001:db8::5", "v6"))
        assert rs.prim_to_args(prim) == "-m iprange --src-range 2001:db8::1-2001:db8::5"


V6_RANGE = parse_address_set("2001:db8::1-2001:db8::5", "v6")
V6_CIDR = parse_address_set("2001:db8:1::/48", "v6")


class TestV6Printing:
    """With no family argument, every printer writes a v6 set as v6 text,
    the family being its width, and parse_save(..., "v6") reads it back."""

    @pytest.mark.parametrize("prim,text", [
        (rs.Src(V6_RANGE), "-m iprange --src-range 2001:db8::1-2001:db8::5"),
        (rs.Dst(V6_RANGE), "-m iprange --dst-range 2001:db8::1-2001:db8::5"),
        (rs.Src(V6_CIDR), "-s 2001:db8:1::/48"),
        (rs.Dst(V6_CIDR), "-d 2001:db8:1::/48"),
    ], ids=["src-range", "dst-range", "src-cidr", "dst-cidr"])
    def test_prim_to_args_reads_back(self, prim, text):
        assert rs.prim_to_args(prim) == text
        rule, = parse_save(_save(f"-A INPUT {text} -j ACCEPT"), "v6").chains["INPUT"]
        assert rule.match == MPrim(prim)

    def test_table_to_save_reads_back(self):
        t = rs.Table({"FORWARD": [
            rs.Rule(rs.mand(MPrim(rs.Src(V6_RANGE)), MNot(MPrim(rs.Dst(V6_CIDR)))), rs.ACCEPT),
            rs.Rule(rs.mand(MPrim(rs.Src(V6_CIDR)), MPrim(rs.Dst(V6_RANGE))), rs.DROP),
        ]}, {"FORWARD": rs.DROP})
        text = table_to_save(t)
        assert "--src-range 2001:db8::1-2001:db8::5" in text
        assert parse_save(text, "v6").chains == t.chains

    def test_emit_iptables_reads_back(self):
        t = StatefulPolicy.of({"a", "b"}, {("a", "b")}, frozenset())
        binding = {"a": HostBinding("va", V6_RANGE), "b": HostBinding("vb", V6_CIDR)}
        text = emit_iptables(t, binding)
        assert "-m iprange --src-range 2001:db8::1-2001:db8::5 -o vb -d 2001:db8:1::/48" in text
        rule, = parse_save(text, "v6").chains["FORWARD"]
        assert rule.match == rs.mand(*(MPrim(p) for p in (
            rs.IIface("va"), rs.Src(V6_RANGE), rs.OIface("vb"), rs.Dst(V6_CIDR))))

    def test_residual_and_interval_text(self):
        residual = V6_RANGE.union(parse_address_set("2001:db8::9", "v6"))
        assert format_interval(residual) == "{2001:db8::1 .. 2001:db8::5} ∪ {2001:db8::9}"
        assert SpoofVerdict("eth0", False, 2, residual).report_line() == \
            "eth0: FAIL at rule #2 (residual range {2001:db8::1 .. 2001:db8::5} ∪ {2001:db8::9})"


class TestParseIpassmt:
    def test_single_address(self):
        m = parse_ipassmt("webfrnt = [10.0.0.1]")
        assert m["webfrnt"] == parse_address_set("10.0.0.1")

    def test_all_but_those_ips(self):
        m = parse_ipassmt("inet = all_but_those_ips [10.0.0.0/8]")
        assert m["inet"] == parse_address_set("10.0.0.0/8").complement()

    def test_empty_file(self):
        assert parse_ipassmt("") == {}

    def test_multiple_entries_and_comments(self):
        text = """
        # interface map
        eth0 = [192.168.0.0/24, 10.0.0.1]
        eth1 = all_but_those_ips [192.168.1.1, 192.0.2.1, 192.168.1.0/24]
        """
        m = parse_ipassmt(text)
        assert (
            m["eth0"]
            == parse_address_set("192.168.0.0/24").union(parse_address_set("10.0.0.1"))
        )
        assert ip_parse("192.168.1.7") not in m["eth1"]
        assert ip_parse("8.8.8.8") in m["eth1"]

    def test_syntax_error(self):
        with pytest.raises(SyntaxError_):
            parse_ipassmt("eth0 10.0.0.0/8")

    @pytest.mark.parametrize("line", ["= [192.168.0.0/16]", "eth1 = [10.0.0.0/33]",
                                      "eth+ = [10.0.0.0/8]", "eth0 = [0.0.0.0/0]"])
    def test_bad_line_names_its_number(self, line):
        with pytest.raises(SyntaxError_) as exc:
            parse_ipassmt(f"eth0 = [10.0.0.1]\n{line}\n")
        assert exc.value.line == 2


class TestParseRouting:
    def test_default_route(self):
        routes = parse_routing("default dev eth0")
        assert len(routes) == 1
        cidr, iface = routes[0]
        assert cidr.prefix == 0 and iface == "eth0"

    def test_via_and_order(self):
        routes = parse_routing("10.0.0.0/8 via 10.0.0.254 dev br0\ndefault dev eth0")
        assert [(str(c), i) for c, i in routes] == [
            ("10.0.0.0/8", "br0"),
            ("0.0.0.0/0", "eth0"),
        ]

    def test_missing_dev(self):
        with pytest.raises(SyntaxError_):
            parse_routing("10.0.0.0/8 via 10.0.0.254")

    @pytest.mark.parametrize("line", ["10.0.0.0/8 dev", "10.0.0.0/33 dev eth1", "bogus dev eth1",
                                      "192.168.0.0/16 dev eth+"])
    def test_bad_line_names_its_number(self, line):
        with pytest.raises(SyntaxError_) as exc:
            parse_routing(f"default dev eth0\n{line}\n")
        assert exc.value.line == 2
