"""Workloads, jobs and correctness checks of the netfence benchmark.

A workload is a list of cases.  An analysis case is one `iptables-save`
input: its `netfence analyze` job, a classification step that sends a
seeded packet sample through the three packet evaluators, and the checks
of both.  A synthesis case is one invariant specification and its
`netfence synthesize` job.  Every job runs in-process through
`netfence.cli.main`, one at a time, so a workload is a closed loop with
one client.

Both directions of the tool meet at the policy graph, and every workload
uses that to report every end-to-end metric: an analysis workload also
verifies the access matrix it computed against a seeded invariant
specification (`synthesize --verify`), and the synthesis workload also
analyzes the rulesets it emitted.

Checks use definitional oracles (the big-step evaluator, first-match
evaluation of simple rules, per-edge invariant predicates), never a
golden file written by netfence.  Expensive checks run once per case
before timing starts; each timed execution is then compared with the
checked outputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import ipaddress
import json
import random
import re
import shutil
import statistics
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import gen
from netfence import analysis, cli, parser, semantics, simplefw, templates
from netfence.invariants import all_hold
from netfence.policy import PolicyGraph
from netfence.stateful import StatefulPolicy, compliance_check

# Input sizes.  A run must finish well within a minute on a 2-core
# machine, checks included, so the analyze-wide rulesets are smaller than
# the 400 rules the scaling report also covers.
WIDE_RULESETS = 3
WIDE_RULES = 120
WIDE_ZONES = 5
RETURN_RULESETS = 4
RETURN_LADDER = 4
SYNTH_HOSTS_A = 50
SYNTH_HOSTS_B = 25
PACKETS = 400          # classification sample per analysis case
CHUNK = 100            # packets per timed block, each scaled by the reference loops around it
MATRIX_PAIRS = 300     # random address pairs per matrix check, besides the class representatives
ALL_PAIRS_UP_TO = 32   # classes up to which a matrix check covers every pair of representatives
HOST_PAIRS = 200       # sampled host pairs per emitted ruleset
VERIFY_HOSTS = 100     # hosts of the policy that the analysis workloads verify
VERIFY_REPEATS = 3     # runs per cycle of that verification, which takes tens of milliseconds

SERVICE = "ssh"
UPPER, LOWER = "in_doubt_allow", "in_doubt_deny"
LABELS = {"upper": (UPPER,), "lower": (LOWER,), "both": (UPPER, LOWER)}
TACTIC_LABEL = {UPPER: "upper", LOWER: "lower"}


# -- running one CLI job ----------------------------------------------------------


@dataclass
class Outcome:
    code: object        # the exit code, or a description of what was raised
    stdout: str
    seconds: float
    files: dict         # output file name -> text


def run_cli(argv, out_dir):
    """Run `netfence <argv>` in-process with stdout and stderr captured and
    a fresh output directory; only the `main` call is timed."""
    out_dir = Path(out_dir)
    if out_dir.exists():
        shutil.rmtree(out_dir)
    # A user's job starts in a fresh process; do not let it pay for the
    # garbage of earlier jobs and checks.
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv) + ["--out-dir", str(out_dir)])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the benchmark counts it and carries on
            code = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    files = {}
    if out_dir.is_dir():
        files = {p.name: p.read_text() for p in sorted(out_dir.iterdir())}
    stdout = out.getvalue()
    if err.getvalue():
        stdout += "[stderr]\n" + err.getvalue()
    return Outcome(code, stdout, seconds, files)


@dataclass
class Ledger:
    """Attempted and failed jobs, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    wrong_outputs: int = 0
    problems: list = field(default_factory=list)
    known: list = field(default_factory=list)

    def record(self, job, problems):
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        self.wrong_outputs += 1
        self.problems.append(f"{job}: " + "; ".join(problems[:3]))

    def record_known(self, job, problems, known_failure):
        """A failure the program is known to have.  It is reported on
        every run, but it is not one of the workload's operations, so it
        is not counted in `attempted` or `failed`."""
        self.known.append(f"{job}: " + "; ".join(problems[:3]) + f" [known failure: {known_failure}]")


@dataclass
class Job:
    """One CLI command.  `check` returns the problems of one execution; the
    first execution is checked against the oracles, later ones against
    the first."""

    name: str
    kind: str           # "analyze" or "synthesize"
    argv: list
    out_dir: Path
    expect: int
    check: object = None
    times: list = field(default_factory=list)   # at the nominal speed
    walls: list = field(default_factory=list)   # as the clock read them
    reference: Outcome = None

    def execute(self, ledger, speed=None):
        """Run once; with a `speed`, record the time."""
        outcome = run_cli(self.argv, self.out_dir)
        if speed is not None:
            self.times.append(outcome.seconds * speed.scale())
            self.walls.append(outcome.seconds)
        problems = []
        if outcome.code != self.expect:
            problems.append(f"exit code {outcome.code!r}, expected {self.expect}")
        elif self.reference is None:
            try:
                problems += self.check(outcome) if self.check else []
            except Exception as exc:  # malformed output: a wrong output, not a crash
                problems.append(f"check raised {type(exc).__name__}: {exc}")
            if not problems:
                self.reference = outcome
        else:
            if outcome.files != self.reference.files:
                problems.append("output files differ from the checked execution")
            if outcome.stdout != self.reference.stdout:
                problems.append("stdout differs from the checked execution")
        ledger.record(self.name, problems)
        return outcome


# -- oracles ------------------------------------------------------------------------


def extra_oracle(text, packet):
    """A fixed, seed-independent answer for matches the analysis does not
    understand; the sandwich must hold for any such answer."""
    key = f"{text}|{packet.src}|{packet.dst}|{packet.sport}".encode()
    return zlib.crc32(key) & 1 == 0


def parse_matrix_json(text):
    data = json.loads(text)
    classes = {}
    for rep, ranges in data["classes"].items():
        parts = []
        for r in ranges:
            lo, _, hi = r.partition("-")
            parts.append((int(ipaddress.IPv4Address(lo)), int(ipaddress.IPv4Address(hi))))
        classes[int(ipaddress.IPv4Address(rep))] = parts
    edges = {(int(ipaddress.IPv4Address(a)), int(ipaddress.IPv4Address(b)))
             for a, b in data["edges"]}
    return classes, edges


def class_of(classes, address):
    for rep, parts in classes.items():
        if any(lo <= address <= hi for lo, hi in parts):
            return rep
    raise KeyError(address)


def strip_ifaces(simple_rules):
    return [simplefw.SimpleRule(dataclasses.replace(r.match, iiface="+", oiface="+"), r.accept)
            for r in simple_rules]


def check_matrix(matrix_json, simple_rules, rng, pairs=MATRIX_PAIRS):
    """The matrix must agree with first-match evaluation of the
    interface-free simple rules, for pairs that include every class's
    representative as source and as destination."""
    classes, edges = parse_matrix_json(matrix_json)
    rules = strip_ifaces(simple_rules)
    svc = analysis.ServiceTemplate.preset(SERVICE)
    reps = sorted(classes)

    def member(rep):
        lo, hi = rng.choice(classes[rep])
        return rng.randint(lo, hi)

    if len(reps) <= ALL_PAIRS_UP_TO:
        sample = [(a, b) for a in reps for b in reps]
    else:
        sample = [(rep, member(rng.choice(reps))) for rep in reps]
        sample += [(member(rng.choice(reps)), rep) for rep in reps]
    sample += [(member(rng.choice(reps)), member(rng.choice(reps))) for _ in range(pairs)]
    problems = []
    for a, b in sample:
        claimed = (class_of(classes, a), class_of(classes, b)) in edges
        actual = simplefw.simple_fw_eval(rules, svc.packet(a, b)) == semantics.ALLOW
        if claimed != actual:
            problems.append(f"matrix says {'allow' if claimed else 'deny'} for "
                            f"{ipaddress.IPv4Address(a)} -> {ipaddress.IPv4Address(b)}")
    return problems


def invariant_oracle(invariants, graph):
    """Per-invariant verdicts, violating flows and the maximum policy,
    from the per-edge predicates (non-Phi invariants: their definition)."""

    def ok(inv, s, r):
        if inv.norefl and s == r:
            return True
        return inv.phi(inv.attr_map(s), s, inv.attr_map(r), r)

    holds, violating = [], set()
    for inv in invariants:
        if inv.phi is None:
            holds.append(inv.holds(graph))
            continue
        bad = {e for e in graph.edges if not ok(inv, *e)}
        holds.append(not bad)
        violating |= bad
    everything = {(s, r) for s in graph.nodes for r in graph.nodes}
    maximum = {e for e in everything if all(inv.phi is None or ok(inv, *e) for inv in invariants)}
    return holds, violating, maximum


def parse_spoofing(stdout):
    return {m.group(1): m.group(2) == "CERTIFIED"
            for m in re.finditer(r"^(\S+): (CERTIFIED|FAIL)", stdout, re.M)}


# -- analysis cases -------------------------------------------------------------------


def hot_addresses(save_text):
    """Address sets named in a ruleset, as (lo, hi) ranges."""
    out = []
    for m in re.finditer(r"(?:^| )-[sd] (\S+)", save_text, re.M):
        for token in m.group(1).split(","):
            net = ipaddress.IPv4Network(token, strict=False)
            out.append((int(net.network_address), int(net.broadcast_address)))
    return out


def sample_packets(rng, n, ifaces, hot, ipassmt):
    """NEW packets with SYN set.  The source is consistent with the input
    interface's assignment (lo carries 127.0.0.0/8), which is the part of
    the packet space the analysis makes claims about."""
    lo = (0x7F000000, 0x7FFFFFFF)

    def address():
        if rng.random() < 0.8:
            a, b = rng.choice(hot)
            return rng.randint(a, b)
        return rng.getrandbits(32)

    packets = []
    while len(packets) < n:
        iif, oif = rng.choice(ifaces), rng.choice(ifaces)
        src = address() if iif != "lo" else rng.randint(*lo)
        if iif in ipassmt and src not in ipassmt[iif]:
            continue
        if iif != "lo" and lo[0] <= src <= lo[1]:
            continue
        proto = rng.choice((6, 6, 6, 17, 1))
        dport = rng.choice((22, 22, 80, 443, 53, 3306, 8080, 25, rng.randrange(65536)))
        packets.append(semantics.Packet(
            iiface=iif, oiface=oif, src=src, dst=address(), protocol=proto,
            sport=rng.choice((10000, rng.randrange(1024, 65536))), dport=dport,
            tcp_flags=frozenset({"SYN"}), ctstate="NEW"))
    return packets


class AnalysisCase:
    """One ruleset: the analyze job, the packet classification and the
    checks of both."""

    def __init__(self, name, work, save_text, ifaces, closure="upper", ipassmt_text=None,
                 spoofing=None, expect=0, extra_check=None):
        self.name = name
        self.dir = work / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.save_text = save_text
        self.save_path = self.dir / "ruleset.iptables"
        self.save_path.write_text(save_text)
        self.ifaces = ifaces
        self.closure = closure
        self.spoofing = spoofing
        self.extra_check = extra_check
        argv = ["analyze", "--input", str(self.save_path), "--chain", "FORWARD",
                "--service", SERVICE, "--closure", closure, "--emit", "json"]
        self.ipassmt_text = ipassmt_text
        if ipassmt_text is not None:
            ipassmt_path = self.dir / "ipassmt.txt"
            ipassmt_path.write_text(ipassmt_text)
            argv += ["--ipassmt", str(ipassmt_path)]
        if spoofing is not None:
            argv.append("--spoofing")
        self.job = Job(f"{name}/analyze", "analyze", argv, self.dir / "out", expect,
                       check=self.check_outcome)
        self.eval_times = {}   # (evaluator, chunk) -> times at the nominal speed
        self.evaluations = 0

    # Expensive checks, once per case, before timing starts; their verdict
    # is reported with the job's first execution.
    def prepare(self, rng):
        ipassmt = parser.parse_ipassmt(self.ipassmt_text) if self.ipassmt_text else None
        self.refs = {
            TACTIC_LABEL[t]: cli.analyze_pipeline(self.save_text, chain="FORWARD",
                                                  ipassmt=ipassmt, service=SERVICE, tactic=t)
            for t in (UPPER, LOWER)
        }
        self.expected_files = {
            f"matrix-{TACTIC_LABEL[t]}.json": self.refs[TACTIC_LABEL[t]]["matrix"].to_json()
            for t in LABELS[self.closure]
        }
        problems = []
        for t in LABELS[self.closure]:
            label = TACTIC_LABEL[t]
            problems += check_matrix(self.expected_files[f"matrix-{label}.json"],
                                     self.refs[label]["simple"], rng)
        if self.extra_check:
            problems += self.extra_check(self.expected_files["matrix-upper.json"])
        self.packets = sample_packets(rng, PACKETS, self.ifaces, hot_addresses(self.save_text),
                                      ipassmt or {})
        matcher = semantics.bool_matcher(extra_oracle)
        evaluate = semantics.bigstep_evaluator(self.refs["upper"]["table"], "FORWARD", matcher)
        unfolded = self.refs["upper"]["unfolded"]
        upper, lower = self.refs["upper"]["simple"], self.refs["lower"]["simple"]
        self.evaluators = {
            "semantics.bigstep_evaluator": (1, lambda p: evaluate(p)),
            "semantics.simple_list_eval":
                (1, lambda p: semantics.simple_list_eval(unfolded, p, matcher)),
            "simplefw.simple_fw_eval":
                (2, lambda p: (simplefw.simple_fw_eval(upper, p),
                               simplefw.simple_fw_eval(lower, p))),
        }
        self.verdicts = {name: [fn(p) for p in self.packets]
                         for name, (_, fn) in self.evaluators.items()}
        problems += self.check_sandwich()
        self.oracle_problems = problems

    def check_sandwich(self):
        """lower-closure simple rules <= exact semantics <= upper-closure
        simple rules, and the unfolded list equals the exact semantics."""
        problems = []
        allow = semantics.ALLOW
        for p, exact, flat, (up, low) in zip(
                self.packets, self.verdicts["semantics.bigstep_evaluator"],
                self.verdicts["semantics.simple_list_eval"],
                self.verdicts["simplefw.simple_fw_eval"]):
            if flat != exact:
                problems.append(f"unfolded list says {flat}, big-step says {exact} for {p}")
            if low == allow and exact != allow:
                problems.append(f"lower closure allows what the ruleset denies: {p}")
            if exact == allow and up != allow:
                problems.append(f"upper closure denies what the ruleset allows: {p}")
        return problems

    def check_outcome(self, outcome):
        problems = list(self.oracle_problems)
        for name, text in self.expected_files.items():
            if outcome.files.get(name) != text:
                problems.append(f"{name} differs from analyze_pipeline's matrix")
        if self.spoofing is not None:
            verdicts = parse_spoofing(outcome.stdout)
            if verdicts != self.spoofing:
                problems.append(f"spoofing verdicts {verdicts}, expected {self.spoofing}")
        return problems

    # Timed: the same sample through each evaluator, compared with the
    # checked verdicts.  The sample is timed in chunks, because a whole
    # pass through a slow evaluator outlasts the machine's speed swings.
    def classify(self, ledger, speed):
        problems = []
        for name, (per_packet, fn) in self.evaluators.items():
            gc.collect()
            verdicts = []
            for k in range(0, len(self.packets), CHUNK):
                chunk = self.packets[k:k + CHUNK]
                start = time.perf_counter()
                verdicts += [fn(p) for p in chunk]
                seconds = time.perf_counter() - start
                self.eval_times.setdefault((name, k), []).append(seconds * speed.scale())
            if verdicts != self.verdicts[name]:
                problems.append(f"{name} verdicts changed between passes")
        self.evaluations = sum(n for n, _ in self.evaluators.values()) * len(self.packets)
        ledger.record(f"{self.name}/classify", problems)

    def host_policy(self, rng, n):
        """Which of `n` hosts may reach which, per the upper-closure access
        matrix: a policy graph of fixed size.  The hosts are seeded members
        of the ruleset's address sets, taken in the order the sets appear,
        so that every seed draws them from the same sets."""
        classes, edges = parse_matrix_json(self.expected_files["matrix-upper.json"])
        hot = list(dict.fromkeys(hot_addresses(self.save_text)))
        hosts = set()
        for i in range(100 * n):
            if len(hosts) == n:
                break
            lo, hi = hot[i % len(hot)]
            hosts.add(rng.randint(lo, hi))
        cls = {h: class_of(classes, h) for h in hosts}
        name = {h: str(ipaddress.IPv4Address(h)) for h in hosts}
        return {"nodes": sorted(name.values()),
                "edges": sorted([name[a], name[b]] for a in hosts for b in hosts
                                if (cls[a], cls[b]) in edges)}


class VerifyCase:
    """`synthesize --verify` of a policy read off an access matrix against
    a seeded zone specification: the analysis workloads' synthesis job."""

    def __init__(self, name, work, policy, spec):
        self.dir = work / name
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "policy.json").write_text(gen.dump(policy))
        (self.dir / "spec.json").write_text(gen.dump(spec))
        invariants = templates.load_invariants(json.dumps(spec))
        graph = PolicyGraph.of(policy["nodes"], [tuple(e) for e in policy["edges"]])
        self.holds, violating, maximum = invariant_oracle(invariants, graph)
        ok = all(self.holds)
        self.line = (f"verify: {'OK' if ok else 'VIOLATED'}; {len(violating)} violating, "
                     f"{len(maximum - graph.edges)} absent flows")
        argv = ["synthesize", "--invariants", str(self.dir / "spec.json"),
                "--policy", str(self.dir / "policy.json"), "--verify"]
        self.job = Job(f"{name}/synthesize", "synthesize", argv, self.dir / "out",
                       0 if ok else 2, check=self.check_outcome)

    def check_outcome(self, outcome):
        problems = []
        if self.line not in outcome.stdout:
            problems.append(f"expected {self.line!r}")
        report = json.loads(outcome.files.get("verify.json", "{}"))
        holds = [v["holds"] for v in report.get("invariants", [])]
        if holds != self.holds:
            problems.append(f"per-invariant verdicts {holds}, expected {self.holds}")
        return problems


def zone_of(address, zones):
    for i, (lo, hi) in enumerate(zones):
        if lo <= address <= hi:
            return i
    return None


def verify_case_for(case, work, rng, zone_cidrs):
    """The zone specification follows the generator's address zones; which
    zone gets which role comes from a fixed shape seed per case, like the
    rulesets' layouts."""
    policy = case.host_policy(rng, VERIFY_HOSTS)
    zones = []
    for cidr in zone_cidrs:
        net = ipaddress.IPv4Network(cidr)
        zones.append((int(net.network_address), int(net.broadcast_address)))
    node_zones = {n: zone_of(int(ipaddress.IPv4Address(n)), zones) for n in policy["nodes"]}
    spec = gen.zone_spec(random.Random(f"{case.name}-zones"), node_zones, len(zones))
    return VerifyCase(f"{case.name}-verify", work, policy, spec)


# -- synthesis cases ----------------------------------------------------------------------


def max_policy(invariants, hosts):
    graph = PolicyGraph.of(hosts, [])
    return invariant_oracle(invariants, graph.allow_all())[2]


class SynthesisCase:
    """One invariant specification and its `synthesize` job."""

    def __init__(self, name, work, spec, binding, flags, policy=None, emit=True):
        self.name = name
        self.dir = work / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.spec = spec
        self.binding = binding
        self.policy = policy
        self.flags = flags
        (self.dir / "spec.json").write_text(gen.dump(spec))
        (self.dir / "binding.json").write_text(gen.dump(binding))
        argv = ["synthesize", "--invariants", str(self.dir / "spec.json")]
        if policy is not None:
            (self.dir / "policy.json").write_text(gen.dump(policy))
            argv += ["--policy", str(self.dir / "policy.json")]
        argv += flags
        if emit:
            argv += ["--emit-iptables", str(self.dir / "binding.json")]
        self.job = Job(f"{name}/synthesize", "synthesize", argv, self.dir / "out", 0,
                       check=self.check_outcome)
        self.invariants = templates.load_invariants(json.dumps(spec))
        self.rng = None

    def check_outcome(self, outcome):
        invariants = self.invariants
        problems = []
        files = outcome.files
        manual = None
        if self.policy is not None:
            manual = PolicyGraph.of(self.policy["nodes"], [tuple(e) for e in self.policy["edges"]])
        if "--verify" in self.flags:
            if not json.loads(files["verify.json"])["overall"]:
                problems.append("verify rejected a policy that satisfies the invariants")
        constructed = PolicyGraph.from_json(files["policy.json"])
        if not all_hold(invariants, constructed).overall:
            problems.append("the constructed policy violates an invariant")
        if all(inv.phi is not None for inv in invariants):
            if set(constructed.edges) != max_policy(invariants, constructed.nodes):
                problems.append("the constructed policy is not the maximum policy")
        graph = manual or constructed
        sigma = frozenset()
        if "--stateful" in self.flags:
            t = StatefulPolicy.from_json(files["stateful.json"])
            if t.flows != graph.edges:
                problems.append("the stateful policy's flows are not the policy's")
            if not compliance_check(t, invariants).ok:
                problems.append("the stateful policy fails the compliance check")
            sigma = t.stateful
        self.flows, self.sigma = set(graph.edges), set(sigma)
        problems += self.check_ruleset(files["ruleset.iptables"])
        return problems

    def host_pairs(self):
        hosts = sorted(self.binding)
        pairs = [(h, self.rng.choice([x for x in hosts if x != h])) for h in hosts]
        while len(pairs) < HOST_PAIRS:
            s, r = self.rng.sample(hosts, 2)
            pairs.append((s, r))
        return pairs

    def packet(self, s, r, state):
        b = self.binding
        return semantics.Packet(
            iiface=b[s]["iface"], oiface=b[r]["iface"],
            src=int(ipaddress.IPv4Address(b[s]["ips"][0])),
            dst=int(ipaddress.IPv4Address(b[r]["ips"][0])),
            protocol=6, sport=40000, dport=22, tcp_flags=frozenset({"SYN"}), ctstate=state)

    def check_ruleset(self, text):
        """A NEW packet passes iff its flow is in the policy; an ESTABLISHED
        one iff its flow or the reverse of a stateful flow is."""
        evaluate = semantics.bigstep_evaluator(parser.parse_save(text), "FORWARD")
        problems = []
        for s, r in self.host_pairs():
            for state, allowed in (("NEW", (s, r) in self.flows),
                                   ("ESTABLISHED", (s, r) in self.flows or (r, s) in self.sigma)):
                verdict = evaluate(self.packet(s, r, state)) == semantics.ALLOW
                if verdict != allowed:
                    problems.append(f"emitted ruleset {'allows' if verdict else 'denies'} "
                                    f"{state} {s} -> {r}")
        return problems

    def round_trip_check(self, matrix_json):
        """The emitted ruleset's access matrix has an edge between two hosts
        iff the policy has that flow."""
        classes, edges = parse_matrix_json(matrix_json)
        problems = []
        for s, r in self.host_pairs():
            p = self.packet(s, r, "NEW")
            claimed = (class_of(classes, p.src), class_of(classes, p.dst)) in edges
            if claimed != ((s, r) in self.flows):
                problems.append(f"round-trip matrix {'allows' if claimed else 'denies'} {s} -> {r}")
        return problems


# -- workloads ------------------------------------------------------------------------------


class Workload:
    """Cases plus the steps of one cycle.  `prepare` runs the checks that
    need the oracles; `cycle` lists the timed steps."""

    def __init__(self):
        self.analyses = []
        self.verifies = []
        self.syntheses = []
        self.probes = []
        self.cycle = []

    def jobs(self):
        return ([c.job for c in self.syntheses] + [c.job for c in self.analyses]
                + [c.job for c in self.verifies])

    def run_cycle(self, ledger, speed, classify=True):
        for step in self.cycle:
            if isinstance(step, Job):
                step.execute(ledger, speed)
            elif classify:
                step(ledger, speed)


# The inputs' layouts (rulesets) and invariant specifications come from
# fixed shape seeds, one per input, and the run's seed picks addresses,
# ports and host bindings: on a shared machine the timings of different
# seeds must stay comparable.  The scaling report draws its inputs
# through the same functions, so that its sizes compare with these.


def wide_input(rng, i, n_rules=WIDE_RULES):
    """The i-th analyze-wide ruleset."""
    return gen.wide_ruleset(rng, random.Random(f"wide-{i}"), n_rules, WIDE_ZONES)


def return_input(rng, i, k=RETURN_LADDER):
    """The i-th analyze-return ruleset: (save text, ipassmt, spoofing verdicts)."""
    return gen.return_ruleset(rng, random.Random(f"return-{i}"), k)


def wide_case(name, work, text):
    return AnalysisCase(name, work, text, ["eth0", "eth1", "eth2", "eth3", "eth4"])


def return_case(name, work, text, ipassmt, expected):
    return AnalysisCase(name, work, text, list(gen.BRIDGES) + [gen.EXTERNAL, "lo"],
                        closure="both", ipassmt_text=ipassmt, spoofing=expected,
                        expect=0 if all(expected.values()) else 2)


def wide_workload(seed, work):
    """analyze-wide: several wide rulesets over many address sets."""
    wl = Workload()
    rng = random.Random(seed)
    inputs = []
    for i in range(WIDE_RULESETS):
        text = wide_input(rng, i)
        inputs.append((text, sorted({c for c in hot_cidrs(text) if c.endswith("/16")})))

    def prepare(ledger):
        check_rng = random.Random(seed + 1)
        for i, (text, zones) in enumerate(inputs):
            case = wide_case(f"wide{i}", work, text)
            case.prepare(check_rng)
            verify = verify_case_for(case, work, check_rng, zones)
            wl.analyses.append(case)
            wl.verifies.append(verify)
            wl.cycle += [case.job, case.classify] + [verify.job] * VERIFY_REPEATS

    wl.prepare = prepare
    return wl


def return_workload(seed, work):
    """analyze-return: Docker-style rulesets with a RETURN ladder."""
    wl = Workload()
    rng = random.Random(seed)
    inputs = [return_input(rng, i) for i in range(RETURN_RULESETS)]

    def prepare(ledger):
        check_rng = random.Random(seed + 1)
        for i, (text, ipassmt, expected) in enumerate(inputs):
            case = return_case(f"return{i}", work, text, ipassmt, expected)
            case.prepare(check_rng)
            bridges = [c for c in hot_cidrs(text) if c.startswith("172.") and c.endswith("/16")]
            verify = verify_case_for(case, work, check_rng, sorted(set(bridges)))
            wl.analyses.append(case)
            wl.verifies.append(verify)
            wl.cycle += [case.job, case.classify] + [verify.job] * VERIFY_REPEATS

    wl.prepare = prepare
    return wl


KNOWN_VERIFY_FAILURE = ("synthesis.policy_diff brute-forces CommWith offending flows above "
                        "16 edges (TooLargeForBruteForce); --construct falls back to "
                        "generate_valid_topology3, --verify does not")


def synthesis_cases(rng, work, hosts_a=SYNTH_HOSTS_A, hosts_b=SYNTH_HOSTS_B):
    """Spec (a): the Phi-structured mix over `hosts_a` hosts with a manual
    policy that satisfies it, run with --verify --construct --stateful.
    Spec (b): the same mix plus CommWith over `hosts_b` hosts, run with
    --construct; it leaves out --stateful because the stateful filter
    refuses non-Phi ACS invariants above 16 edges.  A fixed shape seed
    picks the specifications and the manual policy, `rng` the bindings."""
    shape = random.Random("synthesize")
    names_a = gen.host_names("h", hosts_a)
    spec_a = gen.invariant_spec(shape, names_a)
    bind_a = gen.binding(rng, names_a)
    names_b = gen.host_names("n", hosts_b)
    spec_b = gen.invariant_spec(shape, names_b, comm_with=True)
    bind_b = gen.binding(rng, names_b)
    # a manual policy that satisfies spec (a): a seeded half of its maximum
    maximum = sorted(max_policy(templates.load_invariants(json.dumps(spec_a)), names_a))
    manual = {"nodes": names_a,
              "edges": sorted(list(e) for e in shape.sample(maximum, len(maximum) // 2))}
    return [SynthesisCase("synth-a", work, spec_a, bind_a,
                          ["--verify", "--construct", "--stateful"], policy=manual),
            SynthesisCase("synth-b", work, spec_b, bind_b, ["--construct"])]


def synth_workload(seed, work):
    """synthesize-mix: the two specifications, then the rulesets they
    emitted are analyzed."""
    wl = Workload()
    wl.syntheses = synthesis_cases(random.Random(seed), work)
    case_b = wl.syntheses[1]

    def prepare(ledger):
        check_rng = random.Random(seed + 1)
        for case in wl.syntheses:
            case.rng = check_rng
            outcome = case.job.execute(ledger)
            wl.cycle.append(case.job)
            if case.job.reference is None:
                continue
            ifaces = sorted({b["iface"] for b in case.binding.values()})
            analysis_case = AnalysisCase(f"{case.name}-roundtrip", work,
                                         outcome.files["ruleset.iptables"], ifaces,
                                         extra_check=case.round_trip_check)
            analysis_case.prepare(check_rng)
            wl.analyses.append(analysis_case)
            wl.cycle += [analysis_case.job, analysis_case.classify]
        constructed = case_b.job.reference.files["policy.json"] if case_b.job.reference else None
        if constructed is not None:
            probe = SynthesisCase("synth-b-verify", work, case_b.spec, case_b.binding,
                                  ["--verify"], policy=json.loads(constructed), emit=False)
            probe.job.check = lambda o: ([] if json.loads(o.files["verify.json"])["overall"]
                                         else ["verify rejected the constructed policy"])
            wl.probes.append((probe.job, KNOWN_VERIFY_FAILURE, "exceed bound"))

    wl.prepare = prepare
    return wl


def hot_cidrs(save_text):
    return re.findall(r"(?:^| )-[sd] (\d+\.\d+\.\d+\.\d+/\d+)", save_text, re.M)


WORKLOADS = {
    "analyze-wide": wide_workload,
    "analyze-return": return_workload,
    "synthesize-mix": synth_workload,
}


def run_probes(wl, ledger):
    """Probes run once, untimed.  A probe that fails the known way is
    reported apart from the workload's operations; any other failure is
    a wrong output."""
    for job, known, signature in wl.probes:
        outcome = run_cli(job.argv, job.out_dir)
        problems = []
        if outcome.code != job.expect:
            last = (outcome.stdout.strip().splitlines() or [""])[-1]
            problems.append(f"exit code {outcome.code!r}, expected {job.expect} ({last})")
        elif job.check:
            problems += job.check(outcome)
        if problems and outcome.code == 1 and signature in outcome.stdout:
            ledger.record_known(job.name, problems, known)
        else:
            ledger.record(job.name, problems)


def median_sum(series):
    return sum(statistics.median(ts) for ts in series if ts)
