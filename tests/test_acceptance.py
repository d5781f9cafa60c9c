"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
verdict lines.  Stated time limits are asserted, not just measured.
"""

import random
import time
from itertools import combinations

import checkers
import scenarios as sc
from checkers import sp_certify
from conftest import CORPUS, load_ruleset, stable_hash
from netfence import ruleset as rs
from netfence.analysis import ServiceTemplate, access_matrix, ip_partition
from netfence.cli import analyze_pipeline
from netfence.invariants import get_acs, set_offending_flows
from netfence.parser import parse_ipassmt, parse_save
from netfence.policy import PolicyGraph, backflows
from netfence.ruleset import MAnd, MNot, MPrim, MTrue, Rule
from netfence.semantics import (
    ALLOW,
    DENY,
    Packet,
    bigstep_evaluator,
    bool_matcher,
    closure,
    ctstate_specialize,
    simple_list_eval,
    unfold,
)
from netfence.serializer import HostBinding, emit_iptables
from netfence.simplefw import (
    prepare_for_simple,
    simple_fw_eval,
    simple_rules_table,
    translate_to_simple,
)
from netfence.stateful import StatefulPolicy, alpha, compliance_check, generate_stateful
from netfence.synthesis import generate_valid_topology
from netfence.templates import TEMPLATES, instantiate
from netfence.wordinterval import (
    WordInterval,
    ip_parse,
    parse_address_set,
)

from test_analysis import accept_cols, accept_rows, members, random_ruleset, wi_mask


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  [{detail}]")


def timed(limit_seconds):
    class Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.start
            if exc[0] is None:
                assert self.elapsed < limit_seconds, (
                    f"took {self.elapsed:.2f}s, limit {limit_seconds}s"
                )

    return Timer()


def test_criterion_1_unfolding_fidelity():
    with timed(1.0) as t:
        table = parse_save(load_ruleset("synology.iptables"))
        unfolded = unfold(table, "INPUT")
    icmp = MPrim(rs.Protocol(1))
    icmptype = MPrim(rs.Extra("-m icmp --icmp-type 8"))
    limit = MPrim(rs.Extra("-m limit --limit 1/sec --limit-burst 5"))
    expected = MAnd(MNot(MAnd(icmp, MAnd(icmptype, limit))), MAnd(icmp, icmptype))
    assert unfolded[0] == Rule(expected, rs.DROP)
    report(1, f"first unfolded Synology rule matches structurally, {t.elapsed:.3f}s")


def test_criterion_2_closure_reproduction():
    text = "\n".join(
        line
        for line in load_ruleset("synology.iptables").splitlines()
        if "--state" not in line
    )

    def ip_proto(prim):
        return isinstance(prim, (rs.Src, rs.Dst, rs.Protocol))

    with timed(1.0) as t:
        unfolded = unfold(parse_save(text), "INPUT")
        upper = closure(unfolded, "in_doubt_allow", ip_proto)
        lower = closure(unfolded, "in_doubt_deny", ip_proto)
    assert upper == [
        Rule(MPrim(rs.Src(parse_address_set("192.168.0.0/16"))), rs.ACCEPT),
        Rule(MTrue, rs.DROP),
    ]
    rng = random.Random(2)
    for _ in range(20_000):
        p = Packet(
            src=rng.getrandbits(32),
            dst=rng.getrandbits(32),
            protocol=rng.choice([6, 17]),
            sport=rng.getrandbits(16),
            dport=rng.getrandbits(16),
        )
        assert simple_list_eval(lower, p) == DENY
    report(2, f"upper closure exact, lower accepts no tcp/udp packet, {t.elapsed:.3f}s")


def test_criterion_3_translation_examples():
    def translate(name):
        unfolded = unfold(parse_save(load_ruleset(name)), "FORWARD")
        prepared = prepare_for_simple(ctstate_specialize(unfolded, "NEW"), 32)
        return translate_to_simple(prepared, "in_doubt_allow")

    foo = simple_rules_table(translate("forward_foo.iptables")).splitlines()
    assert foo == [
        "(+, +, 10.128.0.0/9, *, *, *, *) DROP",
        "(+, +, 10.0.0.0/8, *, tcp, *, *) ACCEPT",
        "(+, +, *, *, *, *, *) DROP",
    ]
    ports = simple_rules_table(translate("return_ports.iptables")).splitlines()
    assert ports == [
        "(+, +, *, *, udp, *, 0:79) DROP",
        "(+, +, *, *, udp, *, 81:65535) DROP",
        "(+, +, *, *, tcp, 0:21, *) DROP",
        "(+, +, *, *, tcp, 23:65535, *) DROP",
        "(+, +, *, *, *, *, *) ACCEPT",
    ]
    report(3, "10.128.0.0/9 example and protocol-correct ports table exact")


def test_criterion_4_service_matrix_reproduction():
    with timed(2.0) as t:
        result = analyze_pipeline(
            load_ruleset("example_ruleset.iptables"), service="tcp:10000"
        )
    matrix = result["matrix"]
    classes = {
        rep: wi for rep, wi in matrix.classes.items()
    }
    lan = ip_parse("131.159.21.0")
    dmz = ip_parse("131.159.15.240")
    loopback = ip_parse("127.0.0.0")
    internet = ip_parse("0.0.0.0")
    assert set(classes) == {lan, dmz, loopback, internet}
    assert classes[lan] == parse_address_set("131.159.21.0/24")
    assert classes[dmz] == parse_address_set("131.159.15.240/28")
    assert classes[loopback] == parse_address_set("127.0.0.0/8")
    expected_edges = {
        (lan, lan), (lan, dmz), (lan, loopback), (lan, internet),
        (dmz, dmz), (dmz, loopback), (dmz, internet),
        (loopback, lan), (loopback, dmz), (loopback, loopback), (loopback, internet),
        (internet, dmz),
    }
    assert matrix.edges == expected_edges
    report(4, f"4 classes and the figure's 12 edges, {t.elapsed:.3f}s")


def test_criterion_5_cidr_split():
    assert [str(c) for c in parse_address_set("10.0.0.0-10.0.0.15").to_cidrs()] == [
        "10.0.0.0/28"
    ]
    assert [str(c) for c in parse_address_set("10.0.0.1-10.0.0.15").to_cidrs()] == [
        "10.0.0.1/32",
        "10.0.0.2/31",
        "10.0.0.4/30",
        "10.0.0.8/29",
    ]
    wide = parse_address_set("0.0.0.1-255.255.255.254").to_cidrs()
    assert len(wide) == 62
    report(5, "both split examples exact; widest range yields 62 blocks")


def test_criterion_6_spoofing_certification():
    fw_assmt = parse_ipassmt(
        "eth0 = all_but_those_ips [192.168.1.1, 192.0.2.1, 192.168.1.0/24]"
    )
    table = parse_save(load_ruleset("fwbuilder.iptables"))
    for chain in ("INPUT", "FORWARD"):
        with timed(1.0):
            verdict = sp_certify(unfold(table, chain), "eth0", fw_assmt)
        assert verdict.certified, chain
    blog = parse_save(load_ruleset("blogpost.iptables"))
    with timed(1.0):
        failed = sp_certify(
            unfold(blog, "OUTPUT"),
            "eth1",
            {"eth1": parse_address_set("202.54.10.20")},
            field="out",
        )
    assert not failed.certified
    report(6, "firewall-builder certifies, blog-post OUTPUT fails")


def test_criterion_7a_eight_bit_brute_force():
    svc = ServiceTemplate(protocol=6, dport=22, sport=10000)
    rng = random.Random(77)
    # word-interval operations against naive sets
    for _ in range(10_000):
        parts_a = [(lo, min(255, lo + rng.randrange(8)))
                   for lo in (rng.randrange(256) for _ in range(rng.randrange(4)))]
        parts_b = [(lo, min(255, lo + rng.randrange(8)))
                   for lo in (rng.randrange(256) for _ in range(rng.randrange(4)))]
        a, b = WordInterval(parts_a, 8), WordInterval(parts_b, 8)
        sa = {v for lo, hi in a.parts for v in range(lo, hi + 1)}
        sb = {v for lo, hi in b.parts for v in range(lo, hi + 1)}
        assert {v for lo, hi in a.union(b).parts for v in range(lo, hi + 1)} == sa | sb
        assert {v for lo, hi in a.intersect(b).parts for v in range(lo, hi + 1)} == sa & sb
        assert {v for lo, hi in a.difference(b).parts for v in range(lo, hi + 1)} == sa - sb
        assert a.issubset(b) == (sa <= sb)
    # partitions and the service-matrix biconditional on random rulesets
    count = 0
    for _ in range(500):
        rules = random_ruleset(rng)
        rows, cols = accept_rows(rules), accept_cols(rules)
        for block in ip_partition(rules, 8):
            ms = members(block)
            assert all(rows[ms[0]] == rows[v] and cols[ms[0]] == cols[v] for v in ms)
        matrix = access_matrix(rules, svc, width=8)
        class_masks = {rep: wi_mask(wi) for rep, wi in matrix.classes.items()}
        for rep_s, ws in matrix.classes.items():
            allowed = 0
            for rep_d in matrix.classes:
                if (rep_s, rep_d) in matrix.edges:
                    allowed |= class_masks[rep_d]
            assert all(rows[s] == allowed for s in members(ws))
        count += 1
    report("7a", f"8-bit oracle: 10k interval cases, {count} rulesets")


def test_criterion_7b_random_packet_sandwiches():
    packets_per_ruleset = 100_000
    rng = random.Random(1234)
    for name, chain in CORPUS:
        table = parse_save(load_ruleset(name))
        unfolded = unfold(table, chain)
        upper = closure(unfolded, "in_doubt_allow")
        lower = closure(unfolded, "in_doubt_deny")

        def oracle(text, p):
            return (stable_hash(text, p.src, p.dst, p.sport) & 1) == 0

        matcher = bool_matcher(oracle)
        evaluate = bigstep_evaluator(table, chain, matcher)
        for _ in range(packets_per_ruleset):
            p = Packet(
                iiface=rng.choice(["eth0", "eth1", "lo", "internal"]),
                oiface=rng.choice(["eth0", "eth1"]),
                src=rng.getrandbits(32),
                dst=rng.getrandbits(32),
                protocol=rng.choice([1, 6, 17]),
                sport=rng.getrandbits(16),
                dport=rng.getrandbits(16),
                ctstate=rng.choice(["NEW", "ESTABLISHED"]),
            )
            exact = evaluate(p)
            assert exact == simple_list_eval(unfolded, p, matcher)  # unfolding sound
            if simple_list_eval(lower, p) == ALLOW:
                assert exact == ALLOW
            if exact == ALLOW:
                assert simple_list_eval(upper, p) == ALLOW
    report("7b", f"{packets_per_ruleset} packets x {len(CORPUS)} rulesets sandwiched")


def test_criterion_7c_exhaustive_template_checks():
    templates = [t for t in TEMPLATES.values() if t.has_default]
    for template in templates:
        checkers.check_empty_edges_validity(template)
        checkers.check_monotonicity_two_nodes(template)
        checkers.check_monotonicity_three_nodes(template)
        checkers.check_secure_default(template)
        checkers.check_default_uniqueness(template)
    report("7c", f"validity, monotonicity, secure+unique defaults for "
                 f"{len(templates)} templates")


def test_criterion_7d_compliance_formula_implication():
    rng = random.Random(55)
    hosts = ["a", "b", "c", "d"]
    checked = 0
    while checked < 20:
        edges = {(s, r) for s in hosts for r in hosts if s != r and rng.random() < 0.35}
        g = PolicyGraph.of(hosts, edges)
        invs = [
            instantiate(
                "SubnetsInGW",
                {h: rng.choice(["Member", "InboundGateway", "Unassigned"]) for h in hosts},
            ),
            instantiate(
                "Subnets",
                {h: rng.choice([("Subnet", 1), ("BorderRouter", 1), "Unassigned"])
                 for h in hosts},
            ),
        ]
        if not all(m.holds(g) for m in invs):
            continue
        sigma = {e for e in edges if rng.random() < 0.6}
        if len(sigma) > 6:
            continue
        t = StatefulPolicy.of(g.nodes, g.edges, sigma)
        if not compliance_check(t, invs).ok:  # formula (4)
            continue
        checked += 1
        back = sorted(backflows(sigma))
        for k in range(len(back) + 1):
            for combo in combinations(back, k):
                x = set(combo)
                candidate = PolicyGraph(g.nodes, g.edges | frozenset(x))
                for m in get_acs(invs):
                    for f in set_offending_flows(m, candidate):
                        assert f <= x  # formula (2); |x| = 1 gives formula (3)
    report("7d", f"formula (4) implies (2) and (3) on {checked} instances")


FACTORY_SVC = "tcp:10000"


def _factory_binding():
    return {
        h: HostBinding(h.lower(), parse_address_set(ip))
        for h, ip in sc.FACTORY_IPS.items()
    }


def _expected_factory_matrices():
    ip = {h: ip_parse(a) for h, a in sc.FACTORY_IPS.items()}
    all_hosts = sorted(ip.values())
    internet = WordInterval.universe(32)
    for a in all_hosts:
        internet = internet.difference(WordInterval.single(a, 32))
    single = lambda h: WordInterval.single(ip[h], 32)

    sensors = WordInterval.range(ip["PresenceSensor"], ip["FireSensor"], 32)
    new_classes = {
        single(h)
        for h in ("Statistics", "SensorSink", "MissionControl1", "MissionControl2",
                  "Watchdog", "Robot1", "Robot2", "AdminPc")
    } | {sensors, internet}
    new_edges = {
        (ip["PresenceSensor"], ip["SensorSink"]),
        (ip["SensorSink"], ip["Statistics"]),
        (ip["MissionControl1"], ip["Robot1"]),
        (ip["MissionControl1"], ip["Robot2"]),
        (ip["MissionControl2"], ip["Robot2"]),
        (ip["AdminPc"], ip["MissionControl1"]),
        (ip["AdminPc"], ip["MissionControl2"]),
        (ip["Watchdog"], ip["Robot1"]),
        (ip["Watchdog"], ip["Robot2"]),
    }

    stats_cam = single("Statistics").union(single("Webcam"))
    other_sensors = (
        single("PresenceSensor").union(single("TempSensor")).union(single("FireSensor"))
    )
    est_classes = {
        single(h)
        for h in ("SensorSink", "MissionControl1", "MissionControl2",
                  "Watchdog", "Robot1", "Robot2", "AdminPc")
    } | {stats_cam, other_sensors, internet}
    est_edges = new_edges - {(ip["PresenceSensor"], ip["SensorSink"])} | {
        (min(ip["Statistics"], ip["Webcam"]), ip["SensorSink"]),
        (ip["PresenceSensor"], ip["SensorSink"]),
        (ip["SensorSink"], min(ip["Statistics"], ip["Webcam"])),
        (ip["Robot1"], ip["MissionControl1"]),
        (ip["Robot2"], ip["MissionControl2"]),
        (ip["MissionControl1"], ip["AdminPc"]),
        (ip["MissionControl2"], ip["AdminPc"]),
        (ip["Robot1"], ip["Watchdog"]),
        (ip["Robot2"], ip["Watchdog"]),
    }
    return (new_classes, new_edges), (est_classes, est_edges)


def test_criterion_8_full_circle():
    with timed(5.0) as t:
        manual = sc.factory_policy()
        invariants = sc.factory_invariants()
        maximum = generate_valid_topology(invariants, manual.allow_all())
        assert manual.edges <= maximum.edges
        assert all(m.holds(manual) for m in invariants)
        stateful = generate_stateful(manual, invariants)
        assert stateful.stateful == sc.FACTORY_STATEFUL
        text = emit_iptables(stateful, _factory_binding())
        (new_expected, est_expected) = _expected_factory_matrices()
        for state, (classes, edges) in (
            ("NEW", new_expected),
            ("ESTABLISHED", est_expected),
        ):
            matrix = analyze_pipeline(
                text, chain="FORWARD", service=FACTORY_SVC, assumed_state=state
            )["matrix"]
            assert set(matrix.classes.values()) == classes, state
            assert matrix.edges == edges, state
    report(8, f"NEW and ESTABLISHED matrices isomorphic to the figures, "
              f"{t.elapsed:.2f}s")


def test_criterion_9_stateful_corollary():
    """No IFS invariants, side-effect-free ACS invariants: the generated
    stateful policy covers the whole graph."""
    hosts = ["s1", "s2", "srv", "ext", "box"]
    edges = {
        ("s1", "srv"), ("s2", "srv"), ("s1", "s2"), ("s2", "s1"),
        ("ext", "srv"), ("box", "s1"),
    }
    g = PolicyGraph.of(hosts, edges)
    invariants = [
        instantiate(
            "CommPartners",
            {"srv": TEMPLATES["CommPartners"].decode_attr(
                {"master": ["s1", "s2", "ext"]}),
             "s1": "Care", "s2": "Care", "ext": "Care", "box": "Care"},
        ),
        instantiate("SubnetsInGW", {"s1": "Member", "s2": "Member",
                                    "box": "InboundGateway"}),
    ]
    assert all(m.holds(g) for m in invariants)
    t = generate_stateful(g, invariants)
    assert alpha(t).edges == g.edges | backflows(g.edges)
    report(9, "alpha(generate) = (V, E u backflows(E)) exactly")
