import random
import re

import pytest

import scenarios as sc
from checkers import per_flow_ruleset
from netfence import ruleset as rs
from netfence.cli import analyze_pipeline
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


def rule_lines(text):
    return [l for l in text.splitlines() if l.startswith("-A")]


def flow_rules(text):
    """The (kind, source match, destination match) of each path of the
    emitted layout: a source jump, in FORWARD or in `backflows`, then one
    ACCEPT of the row chain it jumps to; kind is "plain" or "answer"."""
    chains = {}
    for line in rule_lines(text):
        chain, body = line.split(" ", 2)[1:]
        chains.setdefault(chain, []).append(body)
    out = []
    for kind, chain in (("plain", "FORWARD"), ("answer", "backflows")):
        for body in chains.get(chain, []):
            match, target = body.split(" -j ")
            if "--state" not in match:
                out += [(kind, match, row.removesuffix(" -j ACCEPT")) for row in chains[target]]
    return out


class TestEmit:
    def test_single_edge_without_state(self):
        t = StatefulPolicy.of({"a", "b"}, {("a", "b")}, set())
        binding = {
            "a": HostBinding("eth_a", parse_address_set("10.0.0.1")),
            "b": HostBinding("eth_b", parse_address_set("10.0.0.2")),
        }
        text = emit_iptables(t, binding)
        assert rule_lines(text) == [
            "-A FORWARD -i eth_a -s 10.0.0.1/32 -j row-0",
            "-A row-0 -o eth_b -d 10.0.0.2/32 -j ACCEPT",
        ]
        assert ":FORWARD DROP [0:0]" in text and ":row-0 - [0:0]" in text
        assert "--state" not in text and "backflows" not in text

    def test_unbound_host(self):
        t = StatefulPolicy.of({"a", "b"}, {("a", "b")}, set())
        with pytest.raises(UnboundHost):
            emit_iptables(t, {"a": HostBinding("e", parse_address_set("10.0.0.1"))})

    def test_unbound_host_is_the_first_in_sorted_flow_order(self):
        """With one or two of the hosts left out of the binding, the error
        names the first unbound endpoint of the flows in sorted order, as a
        source or as a receiver; with none of them on a flow, it emits."""
        rng = random.Random("unbound")
        where = set()
        for _ in range(300):
            hosts = [f"h{i}" for i in range(rng.randint(2, 7))]
            t = _random_policy(rng, hosts)
            unbound = set(rng.sample(hosts, rng.randint(1, 2)))
            binding = {h: HostBinding(f"eth{i}", parse_address_set(f"10.0.0.{i + 1}"))
                       for i, h in enumerate(hosts) if h not in unbound}
            first = next(((i, h) for e in sorted(t.flows) for i, h in enumerate(e)
                          if h in unbound), None)
            if first is None:
                emit_iptables(t, binding)
            else:
                with pytest.raises(UnboundHost) as exc:
                    emit_iptables(t, binding)
                assert exc.value.args == (first[1],)
                where.add((first[0], first[1] == min(unbound)))
        assert where == {(0, True), (0, False), (1, True), (1, False)}

    def test_reflexive_flow_written_for_single_address(self):
        t = StatefulPolicy.of({"a"}, {("a", "a")}, set())
        binding = {"a": HostBinding("eth_a", parse_address_set("10.0.0.1"))}
        assert rule_lines(emit_iptables(t, binding)) == [
            "-A FORWARD -i eth_a -s 10.0.0.1/32 -j row-0",
            "-A row-0 -o eth_a -d 10.0.0.1/32 -j ACCEPT",
        ]

    def test_reflexive_flow_emitted_for_ranges(self):
        t = StatefulPolicy.of({"a"}, {("a", "a")}, set())
        binding = {"a": HostBinding("br0", parse_address_set("10.0.0.0/24"))}
        assert rule_lines(emit_iptables(t, binding)) == [
            "-A FORWARD -i br0 -s 10.0.0.0/24 -j row-0",
            "-A row-0 -o br0 -d 10.0.0.0/24 -j ACCEPT",
        ]

    def test_fragmented_binding_uses_iprange(self):
        t = StatefulPolicy.of({"inet", "srv"}, {("inet", "srv")}, set())
        binding = {
            "inet": HostBinding("eth0", parse_address_set("10.0.0.0/8").complement()),
            "srv": HostBinding("srv0", parse_address_set("10.0.0.1")),
        }
        assert rule_lines(emit_iptables(t, binding)) == [
            "-A FORWARD -i eth0 -m iprange --src-range 0.0.0.0-9.255.255.255 -j row-0",
            "-A FORWARD -i eth0 -m iprange --src-range 11.0.0.0-255.255.255.255 -j row-0",
            "-A row-0 -o srv0 -d 10.0.0.1/32 -j ACCEPT",
        ]

    def test_fragmented_binding_spells_a_cidr_part_with_s(self):
        t = StatefulPolicy.of({"lan", "srv"}, {("lan", "srv"), ("srv", "lan")}, set())
        binding = {
            "lan": HostBinding("br0", parse_address_set("10.0.0.0/24").union(
                parse_address_set("10.0.1.5-10.0.1.9"))),
            "srv": HostBinding("srv0", parse_address_set("10.0.2.1")),
        }
        assert rule_lines(emit_iptables(t, binding)) == [
            "-A FORWARD -i br0 -s 10.0.0.0/24 -j row-0",
            "-A FORWARD -i br0 -m iprange --src-range 10.0.1.5-10.0.1.9 -j row-0",
            "-A FORWARD -i srv0 -s 10.0.2.1/32 -j row-1",
            "-A row-0 -o srv0 -d 10.0.2.1/32 -j ACCEPT",
            "-A row-1 -o br0 -d 10.0.0.0/24 -j ACCEPT",
            "-A row-1 -o br0 -m iprange --dst-range 10.0.1.5-10.0.1.9 -j ACCEPT",
        ]

    def test_established_rules_ordered_first(self):
        """FORWARD enters the backflows first, behind its one state match."""
        t = StatefulPolicy.of({"a", "b"}, {("a", "b")}, {("a", "b")})
        binding = {
            "a": HostBinding("ea", parse_address_set("10.0.0.1")),
            "b": HostBinding("eb", parse_address_set("10.0.0.2")),
        }
        text = emit_iptables(t, binding)
        assert rule_lines(text) == [
            "-A FORWARD -m state --state ESTABLISHED -j backflows",
            "-A FORWARD -i ea -s 10.0.0.1/32 -j row-0",
            "-A backflow-row-0 -o ea -d 10.0.0.1/32 -j ACCEPT",
            "-A backflows -i eb -s 10.0.0.2/32 -j backflow-row-0",
            "-A row-0 -o eb -d 10.0.0.2/32 -j ACCEPT",
        ]
        assert text.count("--state") == 1

    def test_factory_ruleset_structure(self):
        """The emitted factory ruleset has exactly one path of a source jump
        and a row ACCEPT per flow, and one behind the ESTABLISHED match per
        stateful backflow."""
        t = generate_stateful(sc.factory_policy(), sc.factory_invariants())
        paths = flow_rules(emit_iptables(t, binding_for(sc.FACTORY_HOSTS)))
        assert len(paths) == len(set(paths))
        plain, answers = set(), set()
        for kind, src, dst in paths:
            src = src.split()[src.split().index("-s") + 1].removesuffix("/32")
            dst = dst.split()[dst.split().index("-d") + 1].removesuffix("/32")
            (answers if kind == "answer" else plain).add((src, dst))
        ip = sc.FACTORY_IPS
        assert len(paths) == len(plain) + len(answers)
        assert plain == {(ip[s], ip[r]) for s, r in sc.FACTORY_EDGES}
        assert answers == {(ip[r], ip[s]) for s, r in sc.FACTORY_STATEFUL}

    def test_emitted_ruleset_parses(self):
        t = generate_stateful(sc.factory_policy(), sc.factory_invariants())
        table = parse_save(emit_iptables(t, binding_for(sc.FACTORY_HOSTS)))
        assert table.policies == {"FORWARD": rs.DROP}
        assert table.chains["FORWARD"][0] == rs.Rule(
            rs.MPrim(rs.CtState(frozenset({"ESTABLISHED"}))), rs.call("backflows"))
        # 12 flows + 8 answers, and the chain policy
        assert len(unfold(table, "FORWARD")) == 21


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
        table = parse_save(emit_iptables(t, binding))
        jump, = table.chains["FORWARD"]
        accept, = table.chains[jump.action.chain]
        assert jump.match.left == MPrim(rs.IIface(iface))
        assert accept.match.left == MPrim(rs.OIface(iface))

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
    """A binding file of address sets, one kind per host: a single address,
    a CIDR, an unaligned range, fragmented sets with and without a
    CIDR-aligned part, and at most one all_but host outside the home block.
    A quarter of the hosts take the set of an earlier host instead, half
    of them with one address of their own added, so bindings overlap."""
    home, home_len, shift = _HOME[family]
    width = family_width(family)
    kinds = ["single", "cidr", "range", "fragments", "fragments_with_cidr", "all_but"]
    spec = {}
    for i, h in enumerate(hosts):
        kind = rng.choice(kinds)
        base = ip_parse(home, family) + ((i + 1) << shift)

        def text(offset):
            return ip_format(base + offset, width)

        if spec and rng.random() < 0.25:  # the set of an earlier host, or more
            earlier = spec[rng.choice(list(spec))]
            extra = [] if earlier.get("all_but") or rng.random() < 0.5 else [text(7)]
            spec[h] = {**earlier, "iface": rng.choice(_IFACES), "ips": earlier["ips"] + extra}
            continue
        if kind == "all_but":
            kinds.remove("all_but")
            spec[h] = {"iface": rng.choice(_IFACES), "ips": [f"{home}/{home_len}"],
                       "all_but": True}
            continue

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


def _random_policy(rng, hosts):
    """A random stateful policy in which some sources copy the receivers
    of another, so that row classes have more than one source."""
    flows = {(a, b) for a in hosts for b in hosts if rng.random() < 0.35}
    for a in hosts:
        if rng.random() < 0.3:
            model = rng.choice(hosts)
            flows = {f for f in flows if f[0] != a} | {(a, r) for s, r in flows if s == model}
    return StatefulPolicy.of(hosts, flows, {f for f in flows if rng.random() < 0.5})


def _random_cases(family, n):
    """n random (policy, binding) pairs of 1-6 hosts."""
    rng = random.Random(f"writer-{family}")
    for _ in range(n):
        hosts = [f"h{i}" for i in range(rng.randint(1, 6))]
        t = _random_policy(rng, hosts)
        yield rng, t, binding_from_json(_random_binding_spec(rng, hosts, family), family)


def _matrix_jsons(text, family):
    """The matrix JSON of both closures under NEW and ESTABLISHED."""
    return [analyze_pipeline(text, family=family, tactic=tactic, assumed_state=state)
            ["matrix"].to_json()
            for tactic in ("in_doubt_allow", "in_doubt_deny") for state in ("NEW", "ESTABLISHED")]


class TestWriterDifferential:
    """The emitted ruleset, parsed back and unfolded, accepts exactly the
    packets of a flow (or, for ESTABLISHED packets, of a stateful flow's
    backflow) whose two bindings the packet's interfaces and addresses
    match, and it analyzes to the matrices of `checkers.per_flow_ruleset`,
    the one rule per flow that it groups by row class."""

    @pytest.mark.parametrize("family", ["v4", "v6"])
    def test_emitted_ruleset_decides_like_the_policy(self, family):
        for rng, t, binding in _random_cases(family, 25):
            rules = unfold(parse_save(emit_iptables(t, binding), family), "FORWARD")

            def bound(host, iface, addr):
                b = binding[host]
                return match_iface(b.iface, iface) and addr in b.addrs

            expected = {"NEW": t.flows, "ESTABLISHED": t.flows | {(r, s) for s, r in t.stateful}}
            addrs = _addresses(rng, binding, family, 12)
            for state, edges in expected.items():
                for src in addrs:
                    for dst in addrs:
                        p = Packet(iiface=_iface_of(rng, binding, src),
                                   oiface=_iface_of(rng, binding, dst),
                                   src=src, dst=dst, ctstate=state)
                        oracle = any(bound(a, p.iiface, src) and bound(b, p.oiface, dst)
                                     for a, b in edges)
                        assert (simple_list_eval(rules, p) == ALLOW) == oracle, (state, p)

    @pytest.mark.parametrize("family", ["v4", "v6"])
    def test_matrix_json_equals_the_per_flow_ruleset(self, family):
        for _, t, binding in _random_cases(family, 12):
            assert _matrix_jsons(emit_iptables(t, binding), family) == \
                _matrix_jsons(per_flow_ruleset(t, binding), family)

    def test_factory_matrix_json_equals_the_per_flow_ruleset(self):
        t = generate_stateful(sc.factory_policy(), sc.factory_invariants())
        binding = binding_for(sc.FACTORY_HOSTS)
        assert _matrix_jsons(emit_iptables(t, binding), "v4") == \
            _matrix_jsons(per_flow_ruleset(t, binding), "v4")

    @pytest.mark.parametrize("family", ["v4", "v6"])
    def test_equal_rows_share_one_chain(self, family):
        """Sources jump to one chain exactly when their receivers are equal,
        in FORWARD and in `backflows`, and the ruleset has at most one rule
        more than the per-flow one plus a jump per source address part."""
        shared = 0
        for _, t, binding in _random_cases(family, 25):
            # one interface per host, so that each jump names its source
            binding = {h: HostBinding(h, b.addrs) for h, b in binding.items()}
            text = emit_iptables(t, binding)
            backflows = {(r, s) for s, r in t.stateful if s != r}
            for chain, flows in (("FORWARD", t.flows), ("backflows", backflows)):
                rows, targets = {}, {}
                for s, r in flows:
                    rows.setdefault(s, set()).add(r)
                for line in rule_lines(text):
                    words = line.split()
                    if words[1] == chain and words[2] == "-i":
                        targets.setdefault(words[3], set()).add(words[-1])
                assert targets.keys() == rows.keys()
                assert all(len(names) == 1 for names in targets.values())
                for a in rows:
                    for b in rows:
                        assert (targets[a] == targets[b]) == (rows[a] == rows[b])
                shared += len(rows) - len({frozenset(row) for row in rows.values()})
            parts = sum(len(binding[s].addrs.parts)
                        for flows in (t.flows, backflows) for s in {s for s, _ in flows})
            assert len(rule_lines(text)) <= len(rule_lines(per_flow_ruleset(t, binding))) + parts + 1
        assert shared >= 10
