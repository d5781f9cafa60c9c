import random
import re

import pytest

import scenarios as sc
from netfence import ruleset as rs
from netfence.errors import IllformedSpec, UnboundHost
from netfence.parser import parse_save
from netfence.ruleset import MPrim, match_iface
from netfence.semantics import ALLOW, Packet, simple_list_eval, unfold
from netfence.serializer import HostBinding, binding_from_json, emit_iptables
from netfence.stateful import StatefulPolicy, generate_stateful
from netfence.wordinterval import family_width, ip_format, ip_parse, parse_address_set


def binding_for(hosts):
    return {
        h: HostBinding(h.lower(), parse_address_set(ip))
        for h, ip in sc.FACTORY_IPS.items()
        if h in hosts
    }


class TestEmit:
    def test_single_edge_without_state(self):
        t = StatefulPolicy.of({"a", "b"}, {("a", "b")}, set())
        binding = {
            "a": HostBinding("eth_a", parse_address_set("10.0.0.1")),
            "b": HostBinding("eth_b", parse_address_set("10.0.0.2")),
        }
        text = emit_iptables(t, binding)
        lines = [l for l in text.splitlines() if l.startswith("-A")]
        assert lines == [
            "-A FORWARD -i eth_a -s 10.0.0.1/32 -o eth_b -d 10.0.0.2/32 -j ACCEPT"
        ]
        assert ":FORWARD DROP [0:0]" in text

    def test_unbound_host(self):
        t = StatefulPolicy.of({"a", "b"}, {("a", "b")}, set())
        with pytest.raises(UnboundHost):
            emit_iptables(t, {"a": HostBinding("e", parse_address_set("10.0.0.1"))})

    def test_reflexive_flow_skipped_for_single_address(self):
        t = StatefulPolicy.of({"a"}, {("a", "a")}, set())
        binding = {"a": HostBinding("eth_a", parse_address_set("10.0.0.1"))}
        text = emit_iptables(t, binding)
        assert not [l for l in text.splitlines() if l.startswith("-A")]

    def test_reflexive_flow_emitted_for_ranges(self):
        t = StatefulPolicy.of({"a"}, {("a", "a")}, set())
        binding = {"a": HostBinding("br0", parse_address_set("10.0.0.0/24"))}
        text = emit_iptables(t, binding)
        assert (
            "-A FORWARD -i br0 -s 10.0.0.0/24 -o br0 -d 10.0.0.0/24 -j ACCEPT"
            in text
        )

    def test_fragmented_binding_uses_iprange(self):
        t = StatefulPolicy.of({"inet", "srv"}, {("inet", "srv")}, set())
        binding = {
            "inet": HostBinding("eth0", parse_address_set("10.0.0.0/8").complement()),
            "srv": HostBinding("srv0", parse_address_set("10.0.0.1")),
        }
        text = emit_iptables(t, binding)
        rules = [l for l in text.splitlines() if l.startswith("-A")]
        assert rules == [
            "-A FORWARD -i eth0 -m iprange --src-range 0.0.0.0-9.255.255.255"
            " -o srv0 -d 10.0.0.1/32 -j ACCEPT",
            "-A FORWARD -i eth0 -m iprange --src-range 11.0.0.0-255.255.255.255"
            " -o srv0 -d 10.0.0.1/32 -j ACCEPT",
        ]

    def test_fragmented_binding_spells_a_cidr_part_with_s(self):
        t = StatefulPolicy.of({"lan", "srv"}, {("lan", "srv")}, set())
        binding = {
            "lan": HostBinding("br0", parse_address_set("10.0.0.0/24").union(
                parse_address_set("10.0.1.5-10.0.1.9"))),
            "srv": HostBinding("srv0", parse_address_set("10.0.2.1")),
        }
        rules = [l for l in emit_iptables(t, binding).splitlines() if l.startswith("-A")]
        assert rules == [
            "-A FORWARD -i br0 -s 10.0.0.0/24 -o srv0 -d 10.0.2.1/32 -j ACCEPT",
            "-A FORWARD -i br0 -m iprange --src-range 10.0.1.5-10.0.1.9"
            " -o srv0 -d 10.0.2.1/32 -j ACCEPT",
        ]

    def test_established_rules_ordered_first(self):
        t = StatefulPolicy.of({"a", "b"}, {("a", "b")}, {("a", "b")})
        binding = {
            "a": HostBinding("ea", parse_address_set("10.0.0.1")),
            "b": HostBinding("eb", parse_address_set("10.0.0.2")),
        }
        lines = [
            l for l in emit_iptables(t, binding).splitlines() if l.startswith("-A")
        ]
        assert "--state ESTABLISHED" in lines[0]
        assert lines[1].endswith("-j ACCEPT") and "--state" not in lines[1]

    def test_factory_ruleset_structure(self):
        """The emitted factory ruleset contains exactly one plain ACCEPT per
        flow and one ESTABLISHED ACCEPT per stateful backflow."""
        t = generate_stateful(sc.factory_policy(), sc.factory_invariants())
        text = emit_iptables(t, binding_for(sc.FACTORY_HOSTS))
        plain, answers = set(), set()
        for line in text.splitlines():
            if not line.startswith("-A"):
                continue
            toks = line.split()
            src = toks[toks.index("-s") + 1].removesuffix("/32")
            dst = toks[toks.index("-d") + 1].removesuffix("/32")
            (answers if "ESTABLISHED" in line else plain).add((src, dst))
        ip = sc.FACTORY_IPS
        assert plain == {(ip[s], ip[r]) for s, r in sc.FACTORY_EDGES}
        assert answers == {(ip[r], ip[s]) for s, r in sc.FACTORY_STATEFUL}

    def test_emitted_ruleset_parses(self):
        t = generate_stateful(sc.factory_policy(), sc.factory_invariants())
        text = emit_iptables(t, binding_for(sc.FACTORY_HOSTS))
        table = parse_save(text)
        assert len(table.chains["FORWARD"]) == 20  # 12 flows + 8 answers


class TestIpv6Emission:
    def test_v6_policy_roundtrips_through_parser(self):
        t = StatefulPolicy.of({"a", "b"}, {("a", "b")}, {("a", "b")})
        binding = {
            "a": HostBinding("va", parse_address_set("2001:db8::1", "v6")),
            "b": HostBinding("vb", parse_address_set("2001:db8::/64", "v6")),
        }
        text = emit_iptables(t, binding)
        assert "-s 2001:db8::1/128" in text
        assert "-d 2001:db8::/64" in text
        table = parse_save(text, family="v6")
        assert len(table.chains["FORWARD"]) == 2


class TestBindingFile:
    def test_plain_and_complement(self):
        binding = binding_from_json(
            {
                "web": {"iface": "w0", "ips": ["10.0.0.1"]},
                "inet": {"iface": "eth0", "ips": ["10.0.0.0/8"], "all_but": True},
            }
        )
        assert binding["web"].addrs == parse_address_set("10.0.0.1")
        assert binding["inet"].addrs == parse_address_set("10.0.0.0/8").complement()

    @pytest.mark.parametrize("iface", ["eth0", "br+", "a" * 15, "veth-1.100"])
    def test_interface_names_that_parse_back(self, iface):
        binding = binding_from_json({"web": {"iface": iface, "ips": ["10.0.0.0/24"]}})
        t = StatefulPolicy.of({"web"}, {("web", "web")}, set())
        rule = parse_save(emit_iptables(t, binding)).chains["FORWARD"][0]
        assert rule.match.left == MPrim(rs.IIface(iface))

    @pytest.mark.parametrize("iface", [
        "", " ", "eth 0", "eth0\t", "a'b", 'a"b', "a\\b", "-j DROP", "-eth0", "!eth0",
        "a" * 16, 7, None,
    ])
    def test_interface_that_does_not_parse_back_is_refused(self, iface):
        with pytest.raises(IllformedSpec, match="'web'.*interface"):
            binding_from_json({"ok": {"iface": "eth0", "ips": ["10.0.0.2"]},
                               "web": {"iface": iface, "ips": ["10.0.0.1"]}})

    @pytest.mark.parametrize("spec", [
        {"iface": "eth0", "ips": []},
        {"iface": "eth0"},
        {"iface": "eth0", "ips": ["0.0.0.0/0"], "all_but": True},
    ])
    def test_empty_address_set_is_refused(self, spec):
        with pytest.raises(IllformedSpec, match="'web'.*empty address set"):
            binding_from_json({"web": spec})

    @pytest.mark.parametrize("entry", ["10.0.0.300", "10.0.0.0/33", "10.0.0.9-10.0.0.1", "::1"])
    def test_bad_address_names_its_host(self, entry):
        with pytest.raises(IllformedSpec, match=f"'web'.*{re.escape(entry)}"):
            binding_from_json({"web": {"iface": "eth0", "ips": ["10.0.0.1", entry]}})


class TestRoundTripTheorem:
    def test_random_policies_survive_the_full_circle(self):
        """emit -> parse -> translate -> matrix reproduces the policy: the
        NEW matrix shows exactly the flows, the ESTABLISHED matrix shows
        flows plus the stateful backflows, for random stateful policies
        with injective disjoint bindings."""
        import random

        from netfence.cli import analyze_pipeline
        from netfence.policy import backflows
        from netfence.wordinterval import ip_parse

        rng = random.Random(77)
        hosts = ["h0", "h1", "h2", "h3", "h4"]
        ips = {h: ip_parse(f"10.0.0.{i + 1}") for i, h in enumerate(hosts)}
        for _ in range(12):
            edges = {
                (a, b)
                for a in hosts
                for b in hosts
                if a != b and rng.random() < 0.3
            }
            sigma = {e for e in edges if rng.random() < 0.5}
            t = StatefulPolicy.of(hosts, edges, sigma)
            binding = {
                h: HostBinding(h, parse_address_set(f"10.0.0.{i + 1}"))
                for i, h in enumerate(hosts)
            }
            text = emit_iptables(t, binding)
            expectations = {
                "NEW": edges,
                "ESTABLISHED": edges | backflows(sigma),
            }
            for state, expected in expectations.items():
                matrix = analyze_pipeline(
                    text, chain="FORWARD", service="tcp:10000", assumed_state=state
                )["matrix"]
                for a in hosts:
                    for b in hosts:
                        if a == b:
                            continue
                        assert matrix.allows(ips[a], ips[b]) == ((a, b) in expected)
                # unused address space is completely isolated
                outsider = ip_parse("192.0.2.99")
                assert not any(
                    matrix.allows(outsider, ips[b]) or matrix.allows(ips[b], outsider)
                    for b in hosts
                )


# per family: the block every bound host but an all_but one lives in, and
# the shift that gives host i its own sub-block
_HOME = {"v4": ("10.0.0.0", 8, 16), "v6": ("2001:db8::", 32, 80)}
_IFACES = ["eth0", "eth1", "br0", "vlan+"]


def _random_binding_spec(rng, hosts, family):
    """A binding file of disjoint address sets, one kind per host: a single
    address, a CIDR, an unaligned range, fragmented sets with and without a
    CIDR-aligned part, and at most one all_but host outside the home block."""
    home, home_len, shift = _HOME[family]
    width = family_width(family)
    kinds = ["single", "cidr", "range", "fragments", "fragments_with_cidr", "all_but"]
    spec = {}
    for i, h in enumerate(hosts):
        kind = rng.choice(kinds)
        if kind == "all_but":
            kinds.remove("all_but")
            spec[h] = {"iface": rng.choice(_IFACES), "ips": [f"{home}/{home_len}"],
                       "all_but": True}
            continue
        base = ip_parse(home, family) + ((i + 1) << shift)

        def text(offset):
            return ip_format(base + offset, width)

        def odd_range(block):  # starts on an odd offset, so no single CIDR
            lo = 256 * block + 2 * rng.randrange(100) + 1
            return f"{text(lo)}-{text(lo + rng.randrange(1, 200))}"

        cidr = f"{text(256 * rng.randrange(1, 100))}/{width - 8}"
        ips = {
            "single": lambda: [text(rng.randrange(1, 1 << 12))],
            "cidr": lambda: [cidr],
            "range": lambda: [odd_range(rng.randrange(1, 100))],
            "fragments": lambda: [odd_range(rng.randrange(1, 100)),
                                  odd_range(rng.randrange(101, 200))],
            "fragments_with_cidr": lambda: [cidr, odd_range(rng.randrange(101, 200))],
        }[kind]()
        spec[h] = {"iface": rng.choice(_IFACES), "ips": ips}
    return spec


def _addresses(rng, binding, family, n):
    """Addresses in, at the edges of and just outside each bound part, plus
    unbound addresses of the home block."""
    home, _, shift = _HOME[family]
    top = (1 << family_width(family)) - 1
    out = [ip_parse(home, family) + (250 << shift) + rng.randrange(1 << 12) for _ in range(4)]
    for b in binding.values():
        for lo, hi in b.addrs.parts:
            out += [lo, hi, rng.randint(lo, hi), max(lo - 1, 0), min(hi + 1, top)]
    return rng.sample(out, min(n, len(out)))


def _iface_of(rng, binding, addr):
    """Mostly an interface of a host bound to `addr`, else any other."""
    names = [b.iface.replace("+", "7") for b in binding.values() if addr in b.addrs]
    if names and rng.random() < 0.8:
        return rng.choice(names)
    return rng.choice(["eth0", "eth1", "eth2", "br0", "vlan7", "lo"])


class TestWriterDifferential:
    """The emitted ruleset, parsed back and unfolded, accepts exactly the
    packets of a flow (or, for ESTABLISHED packets, of a stateful flow's
    backflow) whose two bindings the packet's interfaces and addresses
    match; reflexive flows of one-address hosts are skipped."""

    @pytest.mark.parametrize("family", ["v4", "v6"])
    def test_emitted_ruleset_decides_like_the_policy(self, family):
        rng = random.Random(f"writer-{family}")
        for _ in range(25):
            hosts = [f"h{i}" for i in range(rng.randint(1, 6))]
            flows = {(a, b) for a in hosts for b in hosts if rng.random() < 0.35}
            sigma = {f for f in flows if rng.random() < 0.5}
            t = StatefulPolicy.of(hosts, flows, sigma)
            binding = binding_from_json(_random_binding_spec(rng, hosts, family), family)
            rules = unfold(parse_save(emit_iptables(t, binding), family), "FORWARD")

            def bound(host, iface, addr):
                b = binding[host]
                return match_iface(b.iface, iface) and addr in b.addrs

            expected = {"NEW": flows, "ESTABLISHED": flows | {(r, s) for s, r in sigma}}
            addrs = _addresses(rng, binding, family, 12)
            for state, edges in expected.items():
                edges = {(a, b) for a, b in edges
                         if a != b or binding[a].addrs.size() > 1}
                for src in addrs:
                    for dst in addrs:
                        p = Packet(iiface=_iface_of(rng, binding, src),
                                   oiface=_iface_of(rng, binding, dst),
                                   src=src, dst=dst, ctstate=state)
                        oracle = any(bound(a, p.iiface, src) and bound(b, p.oiface, dst)
                                     for a, b in edges)
                        assert (simple_list_eval(rules, p) == ALLOW) == oracle, (state, p)
