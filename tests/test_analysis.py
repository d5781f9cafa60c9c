import dataclasses
import itertools
import json
import random

import pytest

from checkers import slow_rows
from conftest import CORPUS, load_ruleset
from netfence import analysis
from netfence.analysis import (
    AccessMatrix,
    ServiceTemplate,
    _fast_rows,
    access_matrix,
    export_matrix,
    ip_partition,
)
from netfence.cli import analyze_pipeline
from netfence.errors import ConsistencyError, IllformedService
from netfence.parser import parse_ipassmt
from netfence.semantics import ALLOW, bigstep_evaluator
from netfence.simplefw import SimpleMatch, SimpleRule, simple_fw_eval
from netfence.wordinterval import Cidr, WordInterval, ip_format, ip_parse

SVC = ServiceTemplate(protocol=6, dport=22, sport=10000)
SIZE = 256
ALL = (1 << SIZE) - 1


def toy_rule(src=None, dst=None, accept=True, width=8):
    return SimpleRule(
        SimpleMatch(
            width=width,
            src=src or Cidr(0, 0, width),
            dst=dst or Cidr(0, 0, width),
        ),
        accept,
    )


def rand_cidr(rng, width=8):
    plen = rng.choice([0, 1, 2, 3, 4, 6, 8])
    base = rng.getrandbits(width) & ~((1 << (width - plen)) - 1) & ((1 << width) - 1)
    return Cidr(base, plen, width)


def random_ruleset(rng, max_rules=7):
    rules = [
        SimpleRule(
            SimpleMatch(width=8, src=rand_cidr(rng), dst=rand_cidr(rng)),
            rng.random() < 0.5,
        )
        for _ in range(rng.randrange(max_rules))
    ]
    rules.append(toy_rule(accept=rng.random() < 0.5))  # explicit default
    return rules


def fragmented_ruleset(rng, side):
    """Up to 40 rules whose `side` ("src" or "dst") is one address and whose
    other side is a CIDR of at least 16 addresses, then a default rule.
    The first rule's wide side is the universe, which its one address
    splits, so the fragmented side covers strictly fewer blocks in all."""
    rules = []
    for k in range(rng.randrange(1, 40)):
        narrow = Cidr(rng.randrange(SIZE), 8, 8)
        plen = 0 if k == 0 else rng.randrange(5)
        wide = Cidr(rng.getrandbits(8) & ~((1 << (8 - plen)) - 1) & 255, plen, 8)
        src, dst = (narrow, wide) if side == "src" else (wide, narrow)
        rules.append(SimpleRule(SimpleMatch(width=8, src=src, dst=dst), rng.random() < 0.5))
    rules.append(toy_rule(accept=rng.random() < 0.5))
    return rules


def covered(rules, side):
    """The blocks the rules' `side` sets cover, summed over the rules: the
    fast rows walk the side where this is smaller."""
    blocks = ip_partition(rules, 8)
    return sum(b.issubset(getattr(r.match, side).interval()) for r in rules for b in blocks)


# -- independent brute-force oracle over plain int bitsets --------------------


def _cidr_mask(cidr):
    """Bitset of the addresses inside a width-8 CIDR, from raw fields."""
    span = 1 << (8 - cidr.prefix)
    return ((1 << span) - 1) << cidr.base


def accept_rows(rules):
    """rows[s] = bitset of destinations d with accept(s, d); first-match
    computed over bitsets, one source at a time."""
    masks = [(_cidr_mask(r.match.src), _cidr_mask(r.match.dst), r.accept) for r in rules]
    rows = []
    for s in range(SIZE):
        acc, rem = 0, ALL
        for src_m, dst_m, accept in masks:
            if not rem:
                break
            if not (src_m >> s) & 1:
                continue
            if accept:
                acc |= dst_m & rem
            rem &= ~dst_m
        rows.append(acc)
    return rows


def accept_cols(rules):
    """cols[d] = bitset of sources s with accept(s, d)."""
    masks = [(_cidr_mask(r.match.src), _cidr_mask(r.match.dst), r.accept) for r in rules]
    cols = []
    for d in range(SIZE):
        acc, rem = 0, ALL
        for src_m, dst_m, accept in masks:
            if not rem:
                break
            if not (dst_m >> d) & 1:
                continue
            if accept:
                acc |= src_m & rem
            rem &= ~src_m
        cols.append(acc)
    return cols


def oracle_block_rows(rules, reps):
    """Rows and columns over the blocks with minima reps, read off the
    brute-force address rows and columns at each block's minimum."""
    rows, cols = accept_rows(rules), accept_cols(rules)
    over_blocks = lambda mask: sum(1 << j for j, b in enumerate(reps) if mask >> b & 1)
    return [over_blocks(rows[a]) for a in reps], [over_blocks(cols[a]) for a in reps]


def members(wi):
    return [v for lo, hi in wi.parts for v in range(lo, hi + 1)]


def wi_mask(wi):
    mask = 0
    for lo, hi in wi.parts:
        mask |= ((1 << (hi - lo + 1)) - 1) << lo
    return mask


def fold_partition(rules, width):
    """The definitional partition: fold over every rule address set,
    splitting each block into its parts inside and outside the set."""
    blocks = [WordInterval.universe(width)]
    sets = []
    for r in rules:
        sets.append(r.match.src.interval())
        sets.append(r.match.dst.interval())
    for s in sets:
        next_blocks = []
        for block in blocks:
            inside = block.intersect(s)
            outside = block.difference(s)
            if not inside.is_empty():
                next_blocks.append(inside)
            if not outside.is_empty():
                next_blocks.append(outside)
        blocks = next_blocks
    return blocks


def sorted_reps(rules, width):
    return sorted(b.min() for b in ip_partition(rules, width))


def wildcard_ifaces(rules):
    return [SimpleRule(dataclasses.replace(r.match, iiface="+", oiface="+"), r.accept)
            for r in rules]


@pytest.fixture(scope="module")
def corpus_rules():
    """The simple rules of every IPv4 corpus ruleset under both closures,
    as translated and with interfaces wildcarded as the matrix sees them."""
    out = []
    for name, chain in CORPUS:
        for tactic in ("in_doubt_allow", "in_doubt_deny"):
            simple = analyze_pipeline(load_ruleset(name), chain=chain, tactic=tactic)["simple"]
            out.append((f"{name} {tactic}", simple))
            out.append((f"{name} {tactic} without interfaces", wildcard_ifaces(simple)))
    return out


def test_oracle_agrees_with_definitional_evaluator():
    """Anchor the bitset oracle to the recursive first-match definition."""
    rng = random.Random(42)
    for _ in range(40):
        rules = random_ruleset(rng)
        rows = accept_rows(rules)
        cols = accept_cols(rules)
        for _ in range(200):
            s, d = rng.randrange(SIZE), rng.randrange(SIZE)
            expected = simple_fw_eval(rules, SVC.packet(s, d)) == ALLOW
            assert bool((rows[s] >> d) & 1) == expected
            assert bool((cols[d] >> s) & 1) == expected


class TestPartition:
    def test_single_split(self):
        # src constraint {0..5} over a 4-bit toy universe
        rules = [
            SimpleRule(SimpleMatch(width=4, src=Cidr(0, 2, 4)), True),
            SimpleRule(SimpleMatch(width=4, src=Cidr(4, 3, 4)), True),
        ]
        blocks = ip_partition(rules, width=4)
        assert WordInterval.range(6, 15, 4) in blocks

    def test_allow_all_gives_universe(self):
        assert ip_partition([toy_rule(accept=True)], 8) == [WordInterval.universe(8)]

    def test_example_ruleset_blocks(self):
        from netfence.wordinterval import parse_address_set

        result = analyze_pipeline(load_ruleset("example_ruleset.iptables"),
                                  service="tcp:10000")
        blocks = result["partition"]
        for text in ("131.159.21.0/24", "131.159.15.240/28", "127.0.0.0/8"):
            assert parse_address_set(text) in blocks

    def test_covers_and_disjoint(self):
        rng = random.Random(50)
        for _ in range(200):
            blocks = ip_partition(random_ruleset(rng), 8)
            union = WordInterval.empty(8)
            for b in blocks:
                assert b.isdisjoint(union)
                union = union.union(b)
            assert union.is_universe()

    def test_blocks_behave_uniformly(self):
        rng = random.Random(51)
        for _ in range(150):
            rules = random_ruleset(rng)
            rows, cols = accept_rows(rules), accept_cols(rules)
            for block in ip_partition(rules, 8):
                ms = members(block)
                rep = ms[0]
                for other in ms[1:]:
                    assert rows[rep] == rows[other]
                    assert cols[rep] == cols[other]


class TestSweepPartition:
    """The boundary sweep against the definitional fold."""

    def test_equals_fold_on_random_rulesets(self):
        rng = random.Random(56)
        for _ in range(300):
            rules = random_ruleset(rng, max_rules=rng.choice([7, 20]))
            blocks = ip_partition(rules, 8)
            assert len(set(blocks)) == len(blocks)
            assert set(blocks) == set(fold_partition(rules, 8))

    def test_equals_fold_on_corpus(self, corpus_rules):
        for label, rules in corpus_rules:
            blocks = ip_partition(rules, 32)
            assert len(set(blocks)) == len(blocks), label
            assert set(blocks) == set(fold_partition(rules, 32)), label

    def test_blocks_ascend_by_minimum_on_random_rulesets(self):
        """access_matrix numbers the blocks in ip_partition's order, which
        must be ascending by minimum (as fragmented blocks interleave)."""
        rng = random.Random(57)
        for _ in range(300):
            rules = random_ruleset(rng, max_rules=rng.choice([7, 20]))
            minima = [b.min() for b in ip_partition(rules, 8)]
            assert minima == sorted(minima)

    def test_blocks_ascend_by_minimum_on_corpus(self, corpus_rules):
        for label, rules in corpus_rules:
            minima = [b.min() for b in ip_partition(rules, 32)]
            assert minima == sorted(minima), label


class TestBitsetRows:
    """The first-match bitset rows against simple_fw_eval on every pair."""

    def test_fast_rows_equal_slow_rows_on_random_rulesets(self):
        rng = random.Random(57)
        for _ in range(200):
            rules = random_ruleset(rng, max_rules=rng.choice([7, 20]))
            reps = sorted_reps(rules, 8)
            assert _fast_rows(rules, SVC, reps) == slow_rows(rules, SVC, reps)

    def test_fast_rows_equal_slow_rows_on_corpus(self, corpus_rules):
        services = [ServiceTemplate.preset(name) for name in ("ssh", "http", "udp:53")]
        for label, rules in corpus_rules:
            reps = sorted_reps(rules, 32)
            for svc in services:
                fast = _fast_rows(rules, svc, reps)
                assert fast is not None, label
                assert fast == slow_rows(rules, svc, reps), (label, svc)

    def test_no_default_rule_denies_undecided_pairs(self):
        rules = [SimpleRule(SimpleMatch(width=8, src=Cidr(0, 1, 8)), True)]
        reps = sorted_reps(rules, 8)
        assert _fast_rows(rules, SVC, reps) == slow_rows(rules, SVC, reps)

    @pytest.mark.parametrize("side", ["src", "dst"])
    def test_fragmented_rulesets_on_either_side(self, side):
        """Rules fragmented in their sources walk the sources and transpose
        to the columns; fragmented in their destinations, the other way
        round.  Both equal slow_rows and the brute-force oracle."""
        other = {"src": "dst", "dst": "src"}[side]
        rng = random.Random(f"fragmented-{side}")
        for _ in range(80):
            rules = fragmented_ruleset(rng, side)
            assert covered(rules, side) < covered(rules, other)
            reps = sorted_reps(rules, 8)
            fast = _fast_rows(rules, SVC, reps)
            assert fast == slow_rows(rules, SVC, reps)
            assert fast == tuple(oracle_block_rows(rules, reps))

    @pytest.mark.parametrize("side", ["src", "dst"])
    def test_fragmented_rulesets_without_default_deny_undecided_pairs(self, side):
        """Without the default rule the addresses that no rule's single
        address names stay undecided, whichever side is walked; they are
        denied, as in slow_rows, and the matrix equals the one with an
        explicit default deny."""
        rng = random.Random(f"no-default-{side}")
        for _ in range(40):
            rules = fragmented_ruleset(rng, side)[:-1]
            reps = sorted_reps(rules, 8)
            assert _fast_rows(rules, SVC, reps) == slow_rows(rules, SVC, reps)
            implicit = access_matrix(rules, SVC, width=8)
            explicit = access_matrix(rules + [toy_rule(accept=False)], SVC, width=8)
            assert (implicit.classes, implicit.edges) == (explicit.classes, explicit.edges)


class TestAccessMatrix:
    def test_allow_all_single_class_with_loop(self):
        m = access_matrix([toy_rule(accept=True)], SVC, width=8)
        assert len(m.classes) == 1
        rep = next(iter(m.classes))
        assert m.edges == {(rep, rep)}

    def test_deny_all_single_class_no_edges(self):
        m = access_matrix([toy_rule(accept=False)], SVC, width=8)
        assert len(m.classes) == 1
        assert m.edges == set()

    def test_matrix_biconditional_and_minimality_bruteforce(self):
        """The service-matrix theorem at 8 bits: a pair (s, d) is in the
        matrix iff the firewall accepts it, and no two classes behave
        identically."""
        rng = random.Random(52)
        for _ in range(500):
            rules = random_ruleset(rng)
            matrix = access_matrix(rules, SVC, width=8)
            rows, cols = accept_rows(rules), accept_cols(rules)
            class_masks = {rep: wi_mask(wi) for rep, wi in matrix.classes.items()}
            for rep_s, ws in matrix.classes.items():
                allowed = 0
                for rep_d in matrix.classes:
                    if (rep_s, rep_d) in matrix.edges:
                        allowed |= class_masks[rep_d]
                for s in members(ws):
                    assert rows[s] == allowed
            seen = {}
            for rep, wi in matrix.classes.items():
                s = wi.min()
                signature = (rows[s], cols[s])
                assert signature not in seen, "two classes behave identically"
                seen[signature] = rep

    def test_ring_edges_equal_bruteforce_class_pairs(self):
        """A ring of /32 -> /32 Accepts over 100 hosts gives a class per
        host.  Drops from 20 unused addresses to themselves cut the unused
        addresses into blocks that behave alike, one class of many blocks,
        and one host also reaches every address, so its row holds all of
        them.  The edges are exactly the class pairs the brute-force rows
        accept."""
        rng = random.Random(59)
        for _ in range(5):
            hosts = rng.sample(range(SIZE), 120)
            hosts, unused = hosts[:100], hosts[100:]
            rules = [toy_rule(src=Cidr(a, 8, 8), dst=Cidr(b, 8, 8))
                     for a, b in zip(hosts, hosts[1:] + hosts[:1])]
            rules += [toy_rule(src=Cidr(u, 8, 8), dst=Cidr(u, 8, 8), accept=False) for u in unused]
            rules += [toy_rule(src=Cidr(hosts[0], 8, 8)), toy_rule(accept=False)]
            assert len(ip_partition(rules, 8)) == 121
            matrix = access_matrix(rules, SVC, width=8)
            assert len(matrix.classes) == 101
            rows = accept_rows(rules)
            assert matrix.edges == {(a, b) for a in matrix.classes for b in matrix.classes
                                    if rows[a] >> b & 1}

    def test_partition_never_coarser_than_matrix(self):
        rng = random.Random(53)
        for _ in range(100):
            rules = random_ruleset(rng)
            assert len(ip_partition(rules, 8)) >= len(
                access_matrix(rules, SVC, width=8).classes
            )

    def test_no_default_rule_equals_explicit_default_deny(self):
        """Appending an explicit default deny to a ruleset without a
        default rule must not change the matrix."""
        rng = random.Random(54)
        for _ in range(60):
            rules = random_ruleset(rng)[:-1]
            implicit = access_matrix(rules, SVC, width=8)
            explicit = access_matrix(rules + [toy_rule(accept=False)], SVC, width=8)
            assert implicit.classes == explicit.classes
            assert implicit.edges == explicit.edges

    @pytest.mark.parametrize(
        "blocks",
        [
            [WordInterval.range(0, 99, 8)],  # does not cover
            [WordInterval.range(0, 200, 8), WordInterval.range(150, 255, 8)],  # overlaps
        ],
    )
    def test_classes_must_partition_the_space(self, monkeypatch, blocks):
        rules = [SimpleRule(SimpleMatch(width=8, src=Cidr(0, 1, 8)), True), toy_rule(accept=False)]
        monkeypatch.setattr(analysis, "ip_partition", lambda rules, width: blocks)
        with pytest.raises(ConsistencyError):
            access_matrix(rules, SVC, width=8)

    def test_class_lookup_and_allows(self):
        rules = [
            SimpleRule(SimpleMatch(width=8, src=Cidr(0, 1, 8)), True),
            toy_rule(accept=False),
        ]
        m = access_matrix(rules, SVC, width=8)
        assert m.allows(3, 200)
        assert not m.allows(200, 3)


class TestInterfaceFreeView:
    """The matrix ignores interfaces: it equals the matrix of the copy with
    every interface wildcarded, with and without a default rule."""

    def test_corpus_matrices_equal_the_wildcarded_copy(self, corpus_rules):
        rules = dict(corpus_rules)
        translated = [label for label in rules if not label.endswith(" without interfaces")]
        assert any(r.match.iiface != "+" or r.match.oiface != "+"
                   for label in translated for r in rules[label])
        for label in translated:
            for svc in map(ServiceTemplate.preset, ("ssh", "http", "udp:53")):
                got = access_matrix(rules[label], svc, 32)
                want = access_matrix(rules[f"{label} without interfaces"], svc, 32)
                assert (got.classes, got.edges) == (want.classes, want.edges), (label, svc)

    def test_no_default_rule_equals_the_wildcarded_copy(self):
        """Rulesets with interface names and no default rule, the same with
        an explicit default deny appended, and the wildcarded copy give
        the same matrix, and _fast_rows equals slow_rows on them."""
        rng = random.Random(58)
        names = ["+", "eth+", "eth0", "eth1", "lo"]
        for _ in range(60):
            rules = [
                SimpleRule(dataclasses.replace(r.match, iiface=rng.choice(names),
                                               oiface=rng.choice(names)), r.accept)
                for r in random_ruleset(rng)[:-1]
            ]
            reps = sorted_reps(rules, 8)
            assert _fast_rows(rules, SVC, reps) == slow_rows(rules, SVC, reps)
            implicit = access_matrix(rules, SVC, width=8)
            explicit = access_matrix(rules + [toy_rule(accept=False)], SVC, width=8)
            want = access_matrix(wildcard_ifaces(rules), SVC, width=8)
            assert (implicit.classes, implicit.edges) == (want.classes, want.edges)
            assert (explicit.classes, explicit.edges) == (want.classes, want.edges)

    @pytest.mark.xfail(strict=True, reason="an interface without an ipassmt entry is kept as "
                                           "a name that the matrix then ignores")
    def test_matrix_is_sound_for_interfaces_without_ipassmt(self):
        """The upper matrix allows every pair big-step accepts on some
        interface, and the lower matrix only pairs big-step accepts on
        every interface."""
        src, dst = ip_parse("10.0.0.1"), ip_parse("8.8.8.8")
        packet = ServiceTemplate.preset("ssh").packet(src, dst)
        cases = [
            (":FORWARD ACCEPT [0:0]\n-A FORWARD -i eth1 -s 10.0.0.0/8 -p tcp -j DROP",
             "in_doubt_allow", "eth0"),
            (":FORWARD DROP [0:0]\n-A FORWARD -i eth0 -s 10.0.0.0/8 -p tcp -j ACCEPT",
             "in_doubt_deny", "eth1"),
        ]
        wrong = []
        for rules, tactic, iface in cases:
            result = analyze_pipeline(f"*filter\n{rules}\nCOMMIT\n", tactic=tactic)
            accepted = bigstep_evaluator(result["table"], "FORWARD")(packet.with_(iiface=iface))
            if result["matrix"].allows(src, dst) != (accepted == ALLOW):
                wrong.append((tactic, iface))
        assert not wrong

    # eth0 and eth1 both hold 10.0.0.0/8, so a DROP on -i eth0 does not drop
    # 10.0.0.1 arriving on eth1
    OVERLAP_SAVE = "*filter\n:FORWARD ACCEPT [0:0]\n-A FORWARD -i eth0 -p tcp -j DROP\nCOMMIT\n"
    OVERLAP_IPASSMT = "eth0 = [10.0.0.0/8]\neth1 = [10.0.0.0/8, 192.168.0.0/16]\n"

    def overlap_run(self, tactic):
        """(the matrix of `tactic` allows 10.0.0.1 -> 8.8.8.8 for ssh,
        big-step's verdict on that packet arriving on eth1)."""
        src, dst = ip_parse("10.0.0.1"), ip_parse("8.8.8.8")
        result = analyze_pipeline(self.OVERLAP_SAVE, ipassmt=parse_ipassmt(self.OVERLAP_IPASSMT),
                                  tactic=tactic)
        packet = ServiceTemplate.preset("ssh").packet(src, dst).with_(iiface="eth1")
        return (result["matrix"].allows(src, dst),
                bigstep_evaluator(result["table"], "FORWARD")(packet))

    def test_lower_matrix_denies_a_pair_dropped_on_one_interface(self):
        assert self.overlap_run("in_doubt_deny") == (False, ALLOW)

    @pytest.mark.xfail(strict=True, reason="iface_rewrite narrows -i eth0 by an ipassmt range "
                                           "that eth1 shares")
    def test_upper_matrix_is_sound_for_an_overlapping_ipassmt(self):
        """Big-step accepts the packet on eth1, so the upper matrix must
        allow the pair."""
        assert self.overlap_run("in_doubt_allow") == (True, ALLOW)


class TestAddressLists:
    def test_two_source_lists_match_only_their_common_sources(self):
        """`-s a,b -s c,d` matches the sources in both lists, here none; the
        second list used to replace the first, so 8.8.8.8 reached every host."""
        save = ("*filter\n:FORWARD DROP [0:0]\n-A FORWARD -s 1.2.3.4,5.6.7.8 "
                "-s 9.9.9.9,8.8.8.8 -p tcp --dport 22 -j ACCEPT\nCOMMIT\n")
        hosts = [ip_parse(a) for a in ("1.2.3.4", "5.6.7.8", "9.9.9.9", "8.8.8.8", "10.0.0.1")]
        for tactic in ("in_doubt_allow", "in_doubt_deny"):
            result = analyze_pipeline(save, tactic=tactic)
            evaluate = bigstep_evaluator(result["table"], "FORWARD")
            assert len(result["unfolded"]) == 5
            for s, d in itertools.product(hosts, hosts):
                packet = ServiceTemplate.preset("ssh").packet(s, d)
                assert not result["matrix"].allows(s, d) and evaluate(packet) != ALLOW


class TestWebappCentralFirewall:
    def test_new_matrix_reconstructs_the_policy(self):
        """The central-firewall ruleset of the distributed web application
        condenses back into its six-node policy with fourteen flows."""
        from netfence.wordinterval import ip_parse, parse_address_set

        result = analyze_pipeline(
            load_ruleset("webapp_central.iptables"), chain="FORWARD", service="http"
        )
        matrix = result["matrix"]
        ten = parse_address_set("10.0.0.0/8")
        hosts = {h: ip_parse(f"10.0.0.{h}") for h in (1, 2, 3, 4)}
        inet = ip_parse("0.0.0.0")
        assert len(matrix.classes) == 6
        assert matrix.classes[inet] == ten.complement()
        expected = {
            (inet, inet), (inet, hosts[1]),
            (hosts[1], hosts[1]), (hosts[1], hosts[2]), (hosts[1], hosts[4]),
            (hosts[2], hosts[2]),
            (hosts[3], hosts[2]), (hosts[3], hosts[3]), (hosts[3], hosts[4]),
            (hosts[4], inet), (hosts[4], hosts[1]), (hosts[4], hosts[2]),
            (hosts[4], hosts[3]), (hosts[4], hosts[4]),
        }
        assert matrix.edges == expected
        # the unused remainder of 10/8 is an isolated class
        rest = ten.difference(
            parse_address_set("10.0.0.1-10.0.0.4")
        )
        assert rest in matrix.classes.values()


class TestExports:
    def matrix(self):
        text = load_ruleset("example_ruleset.iptables")
        return analyze_pipeline(text, service="tcp:10000")["matrix"]

    def test_dot_nodes_have_interval_labels(self):
        dot = self.matrix().to_dot()
        assert '"131.159.21.0" [label="{131.159.21.0 .. 131.159.21.255}"];' in dot
        assert dot.count("->") == 12

    def test_json_roundtrips_schema(self):
        data = json.loads(self.matrix().to_json())
        assert set(data) == {"service", "classes", "edges"}
        assert len(data["classes"]) == 4
        assert len(data["edges"]) == 12
        for a, b in data["edges"]:
            assert a in data["classes"] and b in data["classes"]

    @pytest.mark.parametrize("width", [32, 128])
    def test_json_equals_json_dumps(self, width):
        """to_json writes the text of json.dumps(..., indent=2) of the same
        dict: for one class, for no edges and for random matrices."""

        def dumps(m):
            return json.dumps({
                "service": {"protocol": m.service.protocol, "dport": m.service.dport,
                            "sport": m.service.sport},
                "classes": {ip_format(rep, width): [f"{ip_format(lo, width)}-{ip_format(hi, width)}"
                                                    for lo, hi in m.classes[rep].parts]
                            for rep in sorted(m.classes)},
                "edges": [[ip_format(a, width), ip_format(b, width)] for a, b in sorted(m.edges)],
            }, indent=2)

        rng = random.Random(f"json-{width}")
        one = {0: WordInterval.universe(width)}
        matrices = [AccessMatrix(one, set(), SVC, width), AccessMatrix(one, {(0, 0)}, SVC, width)]
        for _ in range(30):
            cuts = sorted({0, *(rng.getrandbits(width) for _ in range(rng.randrange(12)))})
            spans = [(lo, hi - 1) for lo, hi in zip(cuts, cuts[1:] + [1 << width])]
            groups = {}
            for span in spans:
                groups.setdefault(rng.randrange(len(spans)), []).append(span)
            classes = {parts[0][0]: WordInterval(parts, width) for parts in groups.values()}
            edges = {(a, b) for a in classes for b in classes if rng.random() < 0.3}
            svc = ServiceTemplate(rng.choice([6, 17]), rng.randrange(65536), rng.randrange(65536))
            matrices.append(AccessMatrix(classes, edges, svc, width))
        assert any(not m.edges for m in matrices[2:])
        for m in matrices:
            assert m.to_json() == dumps(m)

    def test_export_dispatch(self):
        m = self.matrix()
        assert export_matrix(m, "dot") == m.to_dot()
        assert export_matrix(m, "json") == m.to_json()
        with pytest.raises(ValueError):
            export_matrix(m, "yaml")

    def test_deterministic_output(self):
        assert self.matrix().to_dot() == self.matrix().to_dot()


class TestServiceTemplates:
    def test_ssh_preset(self):
        svc = ServiceTemplate.preset("ssh")
        assert (svc.protocol, svc.dport) == (6, 22)
        assert svc.sport >= 1024

    def test_http_preset(self):
        svc = ServiceTemplate.preset("http")
        assert (svc.protocol, svc.dport) == (6, 80)

    def test_proto_port_syntax(self):
        svc = ServiceTemplate.preset("udp:53")
        assert (svc.protocol, svc.dport) == (17, 53)

    @pytest.mark.parametrize("name", ["foo", "bogus:22", "tcp:abc", "tcp:70000", "tcp:-1", "tcp:"])
    def test_malformed_names_raise_typed_error(self, name):
        with pytest.raises(IllformedService):
            ServiceTemplate.preset(name)

    def test_port_bounds_are_inclusive(self):
        assert ServiceTemplate.preset("tcp:0").dport == 0
        assert ServiceTemplate.preset("tcp:65535").dport == 65535
