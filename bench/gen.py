"""Seeded input generators for the benchmark.

Every generator takes a `random.Random` and returns plain text or plain
data, so the same seed yields byte-identical inputs.  The ruleset
generators take a second `shape` generator for the layout (which address
set, port and action each rule has); the workloads fix it per input, so
that the run's seed changes the addresses and ports but hardly the
amount of work, which keeps timings comparable across seeds.
"""

from __future__ import annotations

import ipaddress
import json

SSH_HEAVY_PORTS = (22, 22, 22, 80, 443, 8080, 3306, 25)
MULTIPORT_LISTS = ("22,80,443", "80,443", "22,2222", "3306,5432,22", "8080,8443")
RETURN_CONDS = ("-p udp", "-o eth3", "-p tcp -m tcp --dport 25", "-p icmp")
SUBNETS = 8     # /24s in each zone
HOSTS = 2       # /32s in each /24
CHAINS = 6      # custom chains of a wide ruleset
CERTIFIED = 2   # interfaces of a Docker-style ruleset with anti-spoofing rules
LANS = 6        # interfaces of a host binding


def _ip(value):
    return str(ipaddress.IPv4Address(value))


# -- analyze-wide ---------------------------------------------------------------


def _slots(rng, count):
    """One octet value in each of `count` aligned, equal slots of 0..255,
    so that the sets split each other the same way for every seed."""
    size = 256 >> (count - 1).bit_length()
    return [k * size + rng.randrange(size) for k in range(count)]


def address_pool(rng, zones):
    """Nested address sets: `zones` /16s under 10/8, SUBNETS /24s in each
    and HOSTS /32s in each /24 (25 sets per zone).  Returns the CIDR
    strings, zones first."""
    pool = []
    for second in _slots(rng, zones):
        zone = (10 << 24) | (second << 16)
        pool.append(f"{_ip(zone)}/16")
        for third in _slots(rng, SUBNETS):
            net = zone | (third << 8)
            pool.append(f"{_ip(net)}/24")
            for last in _slots(rng, HOSTS):
                pool.append(_ip(net | last))
    return pool


def wide_ruleset(rng, shape, n_rules, zones):
    """An iptables-save FORWARD ruleset of about `n_rules` rules.

    Custom chains are called per input interface; each has one RETURN
    whose condition carries no address.  Rules draw on the nested address
    pool so that every set is used; a fixed share uses multiport, udp,
    `-m limit` (unknown to the analysis) or a negated source.  `rng`
    picks the addresses; `shape` picks which pool set, port and action
    each rule has, and so how much work the ruleset is.
    """
    pool = address_pool(rng, zones)
    body = n_rules - 2 - CHAINS  # minus conntrack, catch-all and calls
    slots = list(pool)
    while len(slots) < 2 * body:
        slots.append(shape.choice(pool))
    shape.shuffle(slots)
    shares = (("port", 60), ("multi", 15), ("drop", 12), ("udp", 6), ("limit", 5),
              ("negsrc", 2))
    kinds = [k for k, pct in shares for _ in range(round(body * pct / 100))]
    kinds += ["port"] * (body - len(kinds))
    shape.shuffle(kinds)
    subnets = [c for c in pool if c.endswith("/24")]

    def rule_text(i):
        src, dst = slots[2 * i], slots[2 * i + 1]
        kind = kinds[i]
        if kind == "port":
            action = "ACCEPT" if i % 4 else "DROP"
            d = f"-d {dst} " if i % 12 else ""
            return f"-s {src} {d}-p tcp -m tcp --dport {SSH_HEAVY_PORTS[i % 8]} -j {action}"
        if kind == "multi":
            ports = MULTIPORT_LISTS[i % len(MULTIPORT_LISTS)]
            return f"-s {src} -d {dst} -p tcp -m multiport --dports {ports} -j ACCEPT"
        if kind == "drop":
            return f"-s {src} -d {dst} -j DROP"
        if kind == "udp":
            return f"-s {src} -d {dst} -p udp -m udp --dport {shape.choice((53, 123, 514))} -j ACCEPT"
        if kind == "limit":
            return f"-s {src} -p tcp -m tcp --dport 22 -m limit --limit 5/min -j ACCEPT"
        # a negated /24 keeps the complement's CIDR count fixed
        return f"! -s {subnets[i % len(subnets)]} -d {dst} -p tcp -m tcp --dport 22 -j DROP"

    names = [f"ZONE{c}" for c in range(CHAINS)]
    per_chain = body * 2 // 3 // CHAINS
    lines = ["*filter", ":INPUT ACCEPT [0:0]", ":FORWARD DROP [0:0]",
             ":OUTPUT ACCEPT [0:0]"]
    lines += [f":{n} - [0:0]" for n in names]
    lines.append("-A FORWARD -m conntrack --ctstate RELATED,ESTABLISHED -j ACCEPT")
    i = 0
    for c, name in enumerate(names):
        lines.append(f"-A FORWARD -i eth{c % 4} -j {name}")
        ret_at = shape.randrange(per_chain // 3, 2 * per_chain // 3)
        for j in range(per_chain):
            if j == ret_at:
                cond = RETURN_CONDS[c % len(RETURN_CONDS)]
                lines.append(f"-A {name} {cond} -j RETURN")
            lines.append(f"-A {name} {rule_text(i)}")
            i += 1
    while i < body:
        lines.append(f"-A FORWARD {rule_text(i)}")
        i += 1
    lines.append("-A FORWARD -j DROP")
    lines.append("COMMIT")
    return "\n".join(lines) + "\n"


# -- analyze-return -------------------------------------------------------------


BRIDGES = ("br-a", "br-b", "br-c")
EXTERNAL = "eth0"


def return_ruleset(rng, shape, k):
    """A Docker-style FORWARD ruleset with a ladder of `k` RETURN rules.

    Three bridges with one /16 each plus an external interface.  A seeded
    choice of CERTIFIED of those four interfaces gets top-of-chain
    anti-spoofing DROP rules; the others get none.  The RETURN rules are
    conditioned only on interfaces, ports and `-m limit`, so later rules
    of the ladder chain carry k negated conjunctions.  `shape` picks the
    guarded interfaces and the ports, `rng` the addresses.

    Returns (save_text, ipassmt_text, {iface: expected certified?}).
    """
    # bridge j gets a /16 inside 172.(16 + 4j).0.0/14, so the complements
    # split into the same number of CIDRs for every seed
    nets = {b: f"172.{16 + 4 * j + rng.randrange(4)}.0.0/16" for j, b in enumerate(BRIDGES)}
    ifaces = list(BRIDGES) + [EXTERNAL]
    guarded = set(shape.sample(ifaces, CERTIFIED))
    lines = ["*filter", ":INPUT ACCEPT [0:0]", ":FORWARD DROP [0:0]",
             ":OUTPUT ACCEPT [0:0]", ":DOCKER - [0:0]", ":DOCKER-ISOLATION - [0:0]",
             ":DOCKER-USER - [0:0]"]
    for iface in ifaces:
        if iface not in guarded:
            continue
        if iface == EXTERNAL:
            lines += [f"-A FORWARD -i {EXTERNAL} -s {nets[b]} -j DROP" for b in BRIDGES]
        else:
            lines.append(f"-A FORWARD -i {iface} ! -s {nets[iface]} -j DROP")
    lines += ["-A FORWARD -j DOCKER-USER", "-A FORWARD -j DOCKER-ISOLATION"]
    for b in BRIDGES:
        lines += [
            f"-A FORWARD -o {b} -j DOCKER",
            f"-A FORWARD -o {b} -m conntrack --ctstate RELATED,ESTABLISHED -j ACCEPT",
            f"-A FORWARD -i {b} ! -o {b} -j ACCEPT",
            f"-A FORWARD -i {b} -o {b} -j ACCEPT",
        ]
    for a in BRIDGES:
        for b in BRIDGES:
            if a != b:
                lines.append(f"-A DOCKER-ISOLATION -i {a} -o {b} -j DROP")
    lines.append("-A DOCKER-ISOLATION -j RETURN")
    for b in BRIDGES:
        base = int(ipaddress.IPv4Network(nets[b]).network_address)
        for _ in range(2):
            host = _ip(base | rng.randrange(2, 250))
            port = shape.choice((80, 443, 8080, 22, 5432))
            lines.append(f"-A DOCKER -d {host}/32 ! -i {b} -o {b} -p tcp -m tcp "
                         f"--dport {port} -j ACCEPT")
    # every rung differs from the others, so no seed gets a smaller NNF
    # blow-up by drawing two equal rungs
    conds = [
        lambda j: f"-i {ifaces[j % 4]} -p tcp -m tcp --dport {8080 + j}",
        lambda j: f"-o {BRIDGES[j % 3]} -p udp -m udp --dport {5300 + j}",
        lambda j: f"-m limit --limit {50 + j}/sec --limit-burst 100",
        lambda j: f"-i {ifaces[(j + 1) % 4]} -o {BRIDGES[j % 3]}",
    ]
    for j in range(k):
        lines.append(f"-A DOCKER-USER {conds[j % len(conds)](j)} -j RETURN")
    for b in BRIDGES:
        lines.append(f"-A DOCKER-USER -i {EXTERNAL} -o {b} -p tcp -m tcp "
                     f"--dport {shape.choice((22, 3306))} -j DROP")
    lines.append(f"-A DOCKER-USER -i {BRIDGES[0]} -p tcp -m tcp --dport 22 -j ACCEPT")
    lines.append("-A DOCKER-USER -j RETURN")
    lines.append("COMMIT")
    others = ", ".join(nets[b] for b in BRIDGES)
    ipassmt = [f"{b} = [{nets[b]}]" for b in BRIDGES]
    ipassmt.append(f"{EXTERNAL} = all_but_those_ips [{others}]")
    expected = {iface: iface in guarded for iface in ifaces}
    return "\n".join(lines) + "\n", "\n".join(ipassmt) + "\n", expected


# -- synthesize-mix -------------------------------------------------------------


def _domain(rng, depth):
    names = ["Core", "Ops", "Lab", "Plant", "Office"]
    return ".".join(rng.choice(names) + str(i) for i in range(depth, 0, -1))


def invariant_spec(rng, hosts, comm_with=False):
    """A Phi-structured mix (BLPTrusted, SubnetsInGW, Sink, NoRefl,
    DomainHierarchy) over `hosts`, optionally plus CommWith.

    Returns the spec as a JSON-ready list.
    """
    blp = {}
    for h in hosts:
        r = rng.random()
        if r < 0.5:
            blp[h] = {"level": rng.randrange(3), "trust": rng.random() < 0.1}
    gw = {}
    for h in rng.sample(hosts, len(hosts) // 3):
        gw[h] = "Member"
    for h in rng.sample([h for h in hosts if h not in gw], 2):
        gw[h] = "InboundGateway"
    sink = {h: rng.choice(("Sink", "SinkPool")) for h in rng.sample(hosts, len(hosts) // 6)}
    refl = {h: "Refl" for h in rng.sample(hosts, len(hosts) // 2)}
    dom = {}
    for h in rng.sample(hosts, len(hosts) // 2):
        dom[h] = {"level": _domain(rng, rng.randrange(1, 4)), "trust": rng.randrange(2)}
    spec = [
        {"template": "BLPTrusted", "attrs": blp},
        {"template": "SubnetsInGW", "attrs": gw},
        {"template": "Sink", "attrs": sink},
        {"template": "NoRefl", "attrs": refl},
        {"template": "DomainHierarchy", "attrs": dom},
    ]
    if comm_with:
        # each host may reach a seeded subset; the rest defaults to nobody
        reach = {}
        for h in rng.sample(hosts, len(hosts) * 2 // 3):
            reach[h] = sorted(rng.sample(hosts, len(hosts) // 2))
        spec.append({"template": "CommWith", "attrs": reach})
    return spec


def zone_spec(rng, node_zones, n_zones):
    """Invariants over an access matrix's class representatives, from the
    address zone each one lies in (None: outside every zone): per-zone
    BLPTrusted levels with one trusted zone, one zone of SubnetsInGW
    members, and one zone of SinkPool hosts."""
    levels = [rng.randrange(3) for _ in range(n_zones)]
    trusted, members, sinks = (rng.randrange(n_zones) for _ in range(3))
    zoned = sorted((n, z) for n, z in node_zones.items() if z is not None)
    return [
        {"template": "BLPTrusted",
         "attrs": {n: {"level": levels[z], "trust": z == trusted} for n, z in zoned}},
        {"template": "SubnetsInGW", "attrs": {n: "Member" for n, z in zoned if z == members}},
        {"template": "Sink", "attrs": {n: "SinkPool" for n, z in zoned if z == sinks}},
    ]


def host_names(prefix, n):
    return [f"{prefix}{i:03d}" for i in range(n)]


def binding(rng, hosts):
    """Each host gets one distinct /32 in 10.x.y.0/24 and one of LANS
    interfaces (hosts on one interface share a /24)."""
    seconds = rng.sample(range(1, 255), LANS)
    out = {}
    for i, h in enumerate(rng.sample(hosts, len(hosts))):
        lane = i % LANS
        out[h] = {"iface": f"lan{lane}", "ips": [f"10.{seconds[lane]}.0.{i // LANS + 1}"]}
    return out


def dump(obj):
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"
