import gc
import hashlib
import json
import time
from collections import Counter

import pytest

import scenarios as sc
from checkers import (doubling_returns, fan_out, nested_chains, return_chain, return_ladder,
                      seeded_return_ladder)
from conftest import CORPUS, DATA, load_ruleset
from netfence import analysis, invariants, parser, semantics, simplefw, spoofing
from netfence import cli
from netfence.cli import analyze_pipeline, closure_results, main
from netfence.errors import PreconditionViolated, TooLargeForBruteForce
from netfence.parser import parse_ipassmt, parse_routing, parse_save
from netfence.policy import PolicyGraph
from netfence.semantics import unfold
from netfence.serializer import binding_from_json, emit_iptables
from netfence.stateful import StatefulPolicy
from netfence.synthesis import ClassRows, generate_valid_topology3, policy_diff
from netfence.templates import load_invariants


def run(argv):
    return main([str(a) for a in argv])


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()] and err.startswith("error: "), err
    assert "Traceback" not in err
    return err


class TestUsage:
    """A malformed command line exits 1 with one `error:` line, not
    argparse's exit code 2, which means certification failure; an option
    combination that cannot work is rejected before any output is
    written."""

    @pytest.mark.parametrize("argv", [
        [],
        ["nope"],
        ["analyze"],
        ["analyze", "--input", DATA / "example_ruleset.iptables", "--closure", "nope"],
        ["analyze", "--input", DATA / "example_ruleset.iptables", "--table", "filter"],
        ["analyze", "--input", DATA / "example_ruleset.iptables", "--chain"],
        ["synthesize"],
        ["synthesize", "--invariants", DATA / "factory_invariants.json", "--family", "v5"],
        ["synthesize", "--invariants", DATA / "factory_invariants.json", "--bogus"],
    ])
    def test_parser_errors_exit_one(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run([*argv, "--out-dir", out]) == 1
        assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", [[], ["analyze"], ["synthesize"]])
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run([*command, "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_parser_is_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        """main builds its argument parser on first use and keeps it; an
        option given to one call does not carry over to the next."""
        example = DATA / "example_ruleset.iptables"
        assert run(["analyze", "--input", example, "--closure", "both", "--emit", "json",
                    "--out-dir", tmp_path / "both"]) == 0

        def no_build():
            raise AssertionError("the argument parser was built again")

        monkeypatch.setattr(cli, "build_arg_parser", no_build)
        assert run(["analyze", "--input", example, "--out-dir", tmp_path / "upper"]) == 0
        assert sorted(p.name for p in (tmp_path / "upper").iterdir()) == ["matrix-upper.dot"]
        assert sorted(p.name for p in (tmp_path / "both").iterdir()) == [
            "matrix-lower.json", "matrix-upper.json"]
        capsys.readouterr()
        assert run(["analyze", "--closure", "nope"]) == 1
        assert_one_error_line(capsys)

    def test_spoofing_without_ipassmt(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["analyze", "--input", DATA / "fwbuilder.iptables", "--chain", "INPUT",
                    "--spoofing", "--out-dir", out])
        assert code == 1
        assert "--spoofing requires --ipassmt" in assert_one_error_line(capsys)
        assert not out.exists()

    def test_verify_without_policy(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["synthesize", "--invariants", DATA / "factory_invariants.json",
                    "--verify", "--construct", "--out-dir", out])
        assert code == 1
        assert "--verify requires --policy" in assert_one_error_line(capsys)
        assert not out.exists()

    def test_no_hosts_without_policy(self, tmp_path, capsys):
        spec = tmp_path / "inv.json"
        spec.write_text(json.dumps([{"template": "NoRefl", "attrs": {}}]))
        out = tmp_path / "out"
        code = run(["synthesize", "--invariants", spec, "--construct",
                    "--emit-iptables", DATA / "factory_binding.json", "--out-dir", out])
        assert code == 1
        assert "no hosts found" in assert_one_error_line(capsys)
        assert not out.exists()


class TestAnalyze:
    def test_example_ruleset_writes_expected_matrix(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            ["analyze", "--input", DATA / "example_ruleset.iptables",
             "--service", "tcp:10000", "--emit", "dot", "--out-dir", out]
        )
        assert code == 0
        dot = (out / "matrix-upper.dot").read_text()
        assert dot == (DATA / "golden_example_matrix.dot").read_text()  # byte-stable
        assert dot.count("->") == 12
        assert '[label="{131.159.21.0 .. 131.159.21.255}"]' in dot
        assert '[label="{131.159.15.240 .. 131.159.15.255}"]' in dot
        assert '[label="{127.0.0.0 .. 127.255.255.255}"]' in dot

    def test_both_closures_and_table_output(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            ["analyze", "--input", DATA / "return_ports.iptables",
             "--closure", "both", "--emit", "table", "--out-dir", out]
        )
        assert code == 0
        upper = (out / "rules-upper.txt").read_text()
        assert "(+, +, *, *, udp, *, 0:79) DROP" in upper
        assert (out / "rules-lower.txt").exists()

    def test_spoofing_certification_exit_zero(self, tmp_path):
        code = run(
            ["analyze", "--input", DATA / "fwbuilder.iptables",
             "--chain", "INPUT", "--ipassmt", DATA / "fwbuilder.ipassmt",
             "--spoofing", "--out-dir", tmp_path / "out"]
        )
        assert code == 0

    def test_wildcard_ipassmt_name_exits_one(self, tmp_path, capsys):
        """eth+ would certify an interface that -i eth0 rules never name
        (match_iface("eth0", "eth+") is False); names are exact instead."""
        ruleset, ipassmt = tmp_path / "rules", tmp_path / "assmt"
        ruleset.write_text("*filter\n:INPUT DROP [0:0]\n-A INPUT -i eth0 -j ACCEPT\nCOMMIT\n")
        ipassmt.write_text("eth+ = [10.0.0.0/8]\n")
        code = run(["analyze", "--input", ruleset, "--chain", "INPUT", "--ipassmt", ipassmt,
                    "--spoofing", "--out-dir", tmp_path / "out"])
        assert code == 1
        err = assert_one_error_line(capsys)
        assert "'eth+'" in err and "line 1" in err

    @pytest.mark.parametrize("text", ["", "# no interface here\n\n"], ids=["empty", "comments"])
    def test_spoofing_with_no_assigned_interface_warns(self, tmp_path, capsys, text):
        """An ipassmt that assigns no interface certifies vacuously: exit 0,
        no verdict line, and one warning line saying so."""
        ipassmt = tmp_path / "assmt"
        ipassmt.write_text(text)
        code = run(["analyze", "--input", DATA / "fwbuilder.iptables", "--chain", "INPUT",
                    "--ipassmt", ipassmt, "--spoofing", "--out-dir", tmp_path / "out"])
        assert code == 0
        out, err = capsys.readouterr()
        assert not any(":" in line for line in out.splitlines() if not line.startswith("["))
        assert err.splitlines() == [err.strip()] and err.startswith("warning: "), err
        assert "no interface" in err

    def test_spoofing_failure_exit_two(self, tmp_path):
        ipassmt = tmp_path / "assmt"
        ipassmt.write_text("eth1 = [202.54.10.20]\n")
        code = run(
            ["analyze", "--input", DATA / "blogpost.iptables",
             "--chain", "OUTPUT", "--ipassmt", ipassmt,
             "--spoofing", "--out-dir", tmp_path / "out"]
        )
        assert code == 2

    def test_malformed_input_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.iptables"
        bad.write_text("*filter\n:INPUT ACCEPT [0:0]\n-A INPUT --dport x -j DROP\nCOMMIT\n")
        code = run(["analyze", "--input", bad, "--out-dir", tmp_path / "out"])
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("option,text", [
        ("--input", "*filter\n:INPUT ACCEPT [0:0]\n-N\nCOMMIT\n"),
        ("--input", "*filter\n:INPUT ACCEPT [0:0]\n-A INPUT -i -j DROP\nCOMMIT\n"),
        ("--input", "*filter\n-A INPUT -j DROP\n-I INPUT 0 -j ACCEPT\nCOMMIT\n"),
        ("--input", "*filter\n:INPUT ACCEPT [0:0]\n-A INPUT -s 10.0.0.0/33 -j DROP\n"),
        ("--ipassmt", "eth0 = [10.0.0.0/8]\n\n= [192.168.0.0/16]\n"),
        ("--ipassmt", "eth0 = [10.0.0.0/8]\n\neth1 = [10.0.0.0/33]\n"),
        ("--ipassmt", "eth0 = [10.0.0.0/8]\n\neth0 = [0.0.0.0/0]\n"),
        ("--routing", "default dev eth0\n\n10.0.0.0/8 dev\n"),
        ("--routing", "default dev eth0\n\n10.0.0.0/33 dev eth1\n"),
    ])
    def test_malformed_line_exit_one_naming_it(self, tmp_path, capsys, option, text):
        (tmp_path / "routes").write_text("default dev eth0\n")
        argv = {"--input": DATA / "fwbuilder.iptables", "--ipassmt": DATA / "fwbuilder.ipassmt",
                "--routing": tmp_path / "routes"}
        argv[option] = tmp_path / "bad"
        argv[option].write_text(text)
        code = run(["analyze", "--chain", "INPUT", *(x for kv in argv.items() for x in kv),
                    "--spoofing", "--out-dir", tmp_path / "out"])
        assert code == 1
        assert "(line 3)" in assert_one_error_line(capsys)

    @pytest.mark.parametrize("service", ["foo", "bogus:22", "tcp:abc", "tcp:70000"])
    def test_malformed_service_exit_one(self, tmp_path, capsys, service):
        code = run(
            ["analyze", "--input", DATA / "example_ruleset.iptables",
             "--service", service, "--out-dir", tmp_path / "out"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_service_is_checked_before_the_input_is_read(self, tmp_path, capsys):
        code = run(
            ["analyze", "--input", tmp_path / "missing.iptables",
             "--service", "foo", "--out-dir", tmp_path / "out"]
        )
        assert code == 1
        assert "unknown service 'foo'" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--input", "--ipassmt", "--routing"])
    def test_missing_input_file_exit_one(self, tmp_path, capsys, option):
        argv = {"--input": DATA / "fwbuilder.iptables",
                "--ipassmt": DATA / "fwbuilder.ipassmt",
                "--routing": DATA / "fwbuilder.ipassmt"}
        argv[option] = tmp_path / "missing"
        code = run(["analyze", "--chain", "INPUT", *(x for kv in argv.items() for x in kv),
                    "--out-dir", tmp_path / "out"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and err.startswith("error: cannot read ")
        assert "missing" in err and "Traceback" not in err

    def test_unreadable_input_exit_one(self, tmp_path, capsys):
        binary = tmp_path / "binary"
        binary.write_bytes(b"\xff\xfe\x00")
        for path in (tmp_path, binary):  # a directory, then not text
            assert run(["analyze", "--input", path, "--out-dir", tmp_path / "out"]) == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith("error: cannot read ")

    def test_json_emission(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            ["analyze", "--input", DATA / "example_ruleset.iptables",
             "--service", "tcp:10000", "--emit", "json", "--out-dir", out]
        )
        assert code == 0
        data = json.loads((out / "matrix-upper.json").read_text())
        assert len(data["edges"]) == 12

    def test_ipv6_family(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            ["analyze", "--input", DATA / "ipv6_host.iptables",
             "--family", "v6", "--chain", "INPUT", "--service", "ssh",
             "--emit", "json", "--out-dir", out]
        )
        assert code == 0
        data = json.loads((out / "matrix-upper.json").read_text())
        assert "2001:4ca0:2001:13::" in data["classes"]

    def test_routing_table_constrains_output(self, tmp_path):
        routing = tmp_path / "routes"
        routing.write_text("10.0.0.0/8 dev br0\ndefault dev eth0\n")
        out = tmp_path / "out"
        code = run(
            ["analyze", "--input", DATA / "docker_mynet.iptables",
             "--routing", routing, "--service", "http", "--out-dir", out]
        )
        assert code == 0

    def test_wildcard_routing_interface_exit_one(self, tmp_path, capsys):
        """A `dev eth+` route would narrow the wildcard box `-o eth+` to
        192.168.0.0/16, and the upper matrix would then keep only the DROP
        where big-step accepts oiface eth0 -> 10.0.0.1; the routing table
        is refused as an ipassmt naming `eth+` is."""
        rules = tmp_path / "rules.iptables"
        rules.write_text("*filter\n:FORWARD DROP [0:0]\n"
                         "-A FORWARD -o eth+ -d 10.0.0.0/8 -j ACCEPT\nCOMMIT\n")
        routing = tmp_path / "routes"
        routing.write_text("192.168.0.0/16 dev eth+\n")
        code = run(["analyze", "--input", rules, "--routing", routing,
                    "--out-dir", tmp_path / "out"])
        assert code == 1
        err = assert_one_error_line(capsys)
        assert "exact, not patterns" in err and "(line 1)" in err


ROUTING = "10.0.0.0/8 dev eth1\n192.168.0.0/16 dev eth2\ndefault dev eth0\n"


def write_ladder(tmp_path, k):
    """A RETURN ladder ruleset, its assignment and a routing table, written
    as input files."""
    text, ipassmt = return_ladder(k)
    (tmp_path / "ladder.iptables").write_text(text)
    (tmp_path / "ladder.ipassmt").write_text(
        "".join(f"{iface} = [{wi.to_cidrs()[0]}]\n" for iface, wi in ipassmt.items()))
    (tmp_path / "routes").write_text(ROUTING)
    return ["--input", tmp_path / "ladder.iptables", "--ipassmt", tmp_path / "ladder.ipassmt",
            "--routing", tmp_path / "routes"]


def simple_digest(rules):
    table = simplefw.simple_rules_table(rules)
    return {"sha256": hashlib.sha256(table.encode()).hexdigest(), "rules": len(rules)}


class TestOneAnalysisRun:
    """The tactic-independent stages run once per `netfence analyze`.
    DIGESTS recorded the simple rules of the stage order that ran
    everything per tactic over rebuilt match trees.  The entries that the
    walk over each match shortens, because it keeps one of equal boxes per
    input rule (synology INPUT's and example_ruleset's lower closures, the
    RETURN ladders), were re-recorded once they were checked to equal the
    old lists with the repeats within each input rule removed."""

    TACTICS = ("in_doubt_allow", "in_doubt_deny")
    DIGESTS = json.loads((DATA / "simple_rule_digests.json").read_text())

    @pytest.mark.parametrize("name,chain", CORPUS)
    def test_simple_rules_match_the_staged_order_on_the_corpus(self, name, chain):
        text = load_ruleset(name)
        ipassmt = parse_ipassmt((DATA / "fwbuilder.ipassmt").read_text())
        routing = parse_routing(ROUTING)
        for tactic in self.TACTICS:
            for label, kwargs in (("none", {}), ("ipassmt", {"ipassmt": ipassmt}),
                                  ("routing", {"ipassmt": ipassmt, "routing": routing})):
                got = analyze_pipeline(text, chain=chain, tactic=tactic, **kwargs)["simple"]
                assert simple_digest(got) == self.DIGESTS[f"{name} {tactic} {label}"]

    def test_simple_rules_match_the_staged_order_on_return_ladders(self):
        routing = parse_routing(ROUTING)
        for k in range(7):
            text, ipassmt = return_ladder(k)
            for tactic in self.TACTICS:
                for label, kwargs in (("ipassmt", {"ipassmt": ipassmt}),
                                      ("routing", {"ipassmt": ipassmt, "routing": routing})):
                    got = analyze_pipeline(text, tactic=tactic, **kwargs)["simple"]
                    assert simple_digest(got) == self.DIGESTS[f"ladder{k} {tactic} {label}"]

    def test_simple_rules_match_the_staged_order_on_the_benchmark_ladder(self):
        """The k=10 ladder of bench/gen.py at seed 1: 27 prepared boxes and
        67 lower-closure simple rules, which were 1,047 and 14,602 when
        each NNF disjunct was read into its own box."""
        text, ipassmt = seeded_return_ladder(1, 10)
        result = analyze_pipeline(text, ipassmt=parse_ipassmt(ipassmt), tactic=self.TACTICS[0])
        lower = closure_results(result["prepared"], self.TACTICS[1],
                                analysis.ServiceTemplate.preset("ssh"), 32)
        for tactic, got in zip(self.TACTICS, (result["simple"], lower["simple"])):
            assert simple_digest(got) == self.DIGESTS[f"seed1 ladder10 {tactic} ipassmt"]

    @pytest.mark.parametrize("emit", ["dot", "json", "table"])
    @pytest.mark.parametrize("case", ["fwbuilder", "ladder"])
    def test_one_run_equals_separate_runs(self, tmp_path, capsys, emit, case):
        if case == "fwbuilder":
            argv = ["--input", DATA / "fwbuilder.iptables", "--chain", "INPUT",
                    "--ipassmt", DATA / "fwbuilder.ipassmt"]
            exit_code = 0
        else:
            argv = write_ladder(tmp_path, 5)
            exit_code = 2  # eth1 and eth2 are not certified

        def analyze(out, *extra):
            code = run(["analyze", *argv, "--emit", emit, "--out-dir", tmp_path / out, *extra])
            return code, capsys.readouterr().out.splitlines()

        both = analyze("both", "--closure", "both", "--spoofing")
        upper = analyze("upper", "--closure", "upper")
        lower = analyze("lower", "--closure", "lower")
        spoof = analyze("spoof", "--spoofing")
        assert upper[0] == lower[0] == 0 and both[0] == spoof[0] == exit_code
        assert spoof[1][0] == upper[1][0]
        assert both[1] == upper[1] + lower[1] + spoof[1][1:]
        assert len(spoof[1]) > 1
        written = {f.name: f.read_text() for f in (tmp_path / "both").iterdir()}
        assert len(written) == 2
        for label in ("upper", "lower"):
            for f in (tmp_path / label).iterdir():
                assert written[f.name] == f.read_text()

    def test_stage_calls_of_one_both_closures_spoofing_run(self, tmp_path, monkeypatch):
        calls = Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in [(parser, "parse_save"), (semantics, "unfold"),
                             (semantics, "ctstate_specialize"), (semantics, "closure"),
                             (simplefw, "prepare_for_simple"), (simplefw, "iface_rewrite"),
                             (simplefw, "translate_to_simple"), (spoofing, "sp_certify_all")]:
            count(module, name)
        # preparation walks each match itself: the NNF oracle never runs
        count(semantics, "normalize_rules")
        count(semantics, "normalize_nnf")
        code = run(["analyze", *write_ladder(tmp_path, 4), "--closure", "both", "--spoofing",
                    "--out-dir", tmp_path / "out"])
        assert code == 2
        # translation closes the prepared boxes itself: the tree closure never runs
        assert calls == Counter({"parse_save": 1, "unfold": 1, "ctstate_specialize": 1,
                                 "iface_rewrite": 2, "prepare_for_simple": 1, "normalize_rules": 0,
                                 "normalize_nnf": 0, "translate_to_simple": 2,
                                 "sp_certify_all": 1})

    def test_call_cycle_exits_one_naming_the_chain(self, tmp_path, capsys, monkeypatch):
        ruleset = tmp_path / "cycle.iptables"
        ruleset.write_text("*filter\n:FORWARD ACCEPT [0:0]\n:A - [0:0]\n-A FORWARD -j A\n"
                           "-A A -s 10.0.0.0/8 -j A\n-A A -d 10.0.0.0/8 -j A\nCOMMIT\n")

        def no_step(*args):  # unfolding this chain doubles the rule list each step
            raise AssertionError("unfolding started on a cyclic ruleset")

        monkeypatch.setattr(semantics, "process_call", no_step)
        code = run(["analyze", "--input", ruleset, "--closure", "both",
                    "--out-dir", tmp_path / "out"])
        assert code == 1
        err = assert_one_error_line(capsys)
        assert "calling loop through chain 'A'" in err

    def test_over_deep_nesting_exits_one_naming_a_chain(self, tmp_path, capsys):
        bound = semantics.MAX_CALL_DEPTH
        ruleset = tmp_path / "deep.iptables"
        ruleset.write_text(nested_chains(bound))
        assert run(["analyze", "--input", ruleset, "--closure", "both",
                    "--out-dir", tmp_path / "out"]) == 0
        capsys.readouterr()
        ruleset.write_text(nested_chains(2 * bound))
        code = run(["analyze", "--input", ruleset, "--closure", "both",
                    "--out-dir", tmp_path / "out"])
        assert code == 1
        err = assert_one_error_line(capsys)
        assert f"chain 'C{bound + 1}' is nested more than {bound} calls deep" in err

    def test_return_nesting_is_bounded_like_call_nesting(self, tmp_path, capsys):
        """A chain of RETURNs at the nesting bound certifies through every
        stage; 1,200 of them used to end in a RecursionError traceback."""
        ruleset, ipassmt = tmp_path / "returns.iptables", tmp_path / "returns.ipassmt"
        ipassmt.write_text("eth0 = [10.0.0.0/8]\n")
        ruleset.write_text(return_chain(semantics.MAX_CALL_DEPTH - 1))
        assert run(["analyze", "--input", ruleset, "--closure", "both", "--ipassmt", ipassmt,
                    "--spoofing", "--out-dir", tmp_path / "out"]) == 0
        assert "eth0: CERTIFIED" in capsys.readouterr().out
        ruleset.write_text(return_chain(1200))
        code = run(["analyze", "--input", ruleset, "--out-dir", tmp_path / "out"])
        assert code == 1
        err = assert_one_error_line(capsys)
        assert "chain 'USER' is nested more than" in err

    def test_box_blowup_exits_one_naming_the_rule(self, tmp_path, capsys):
        """RETURNs that cut two fields double the boxes of the rule after
        them: past simplefw.MAX_BOXES the run fails before translating."""
        ruleset = tmp_path / "doubling.iptables"
        ruleset.write_text(doubling_returns(simplefw.MAX_BOXES.bit_length()))
        code = run(["analyze", "--input", ruleset, "--closure", "both",
                    "--out-dir", tmp_path / "out"])
        assert code == 1
        err = assert_one_error_line(capsys)
        assert (f"rule '-A USER -j ACCEPT' splits into more than {simplefw.MAX_BOXES} "
                "distinct boxes") in err

    def test_call_fan_out_exits_one_naming_the_chain(self, tmp_path, capsys, monkeypatch):
        """30 levels of chains that each call the next twice unfold to
        2^30 + 1 rules: the run fails before any rule is inlined."""
        ruleset = tmp_path / "fanout.iptables"
        ruleset.write_text(fan_out(30))

        def no_step(*args):
            raise AssertionError("unfolding started past the bound")

        monkeypatch.setattr(semantics, "process_call", no_step)
        start = time.perf_counter()
        code = run(["analyze", "--input", ruleset, "--closure", "both",
                    "--out-dir", tmp_path / "out"])
        assert time.perf_counter() - start < 1
        assert code == 1
        err = assert_one_error_line(capsys)
        assert (f"chain 'C10' unfolds to more than {semantics.MAX_UNFOLDED_RULES:,} rules"
                in err)


class TestSynthesize:
    def test_verify_valid_policy(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            ["synthesize", "--invariants", DATA / "factory_invariants.json",
             "--policy", DATA / "factory_policy.json", "--verify",
             "--out-dir", out]
        )
        assert code == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["overall"] is True
        assert "0 violating" in capsys.readouterr().out

    def test_construct_maximum_policy(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            ["synthesize", "--invariants", DATA / "factory_invariants.json",
             "--policy", DATA / "factory_policy.json", "--construct",
             "--out-dir", out]
        )
        assert code == 0
        maximum = PolicyGraph.from_json((out / "policy.json").read_text())
        manual = sc.factory_policy()
        assert manual.edges <= maximum.edges
        assert ("MissionControl1", "MissionControl2") in maximum.edges

    def test_verify_and_construct_write_the_construct_policy(self, tmp_path):
        """--verify --construct computes the maximum policy once, for the
        diff and for policy.json; the file equals --construct's alone."""
        files = {}
        for flags in (["--construct"], ["--verify", "--construct"]):
            out = tmp_path / "-".join(flags)
            code = run(["synthesize", "--invariants", DATA / "factory_invariants.json",
                        "--policy", DATA / "factory_policy.json", *flags, "--out-dir", out])
            assert code == 0
            files[len(flags)] = (out / "policy.json").read_text()
        assert files[1] == files[2]
        absent = policy_diff(sc.factory_policy(), sc.factory_invariants()).absent
        maximum = PolicyGraph.from_json(files[1])
        assert maximum.edges - sc.factory_policy().edges == absent

    def test_stateful_and_emission(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            ["synthesize", "--invariants", DATA / "factory_invariants.json",
             "--policy", DATA / "factory_policy.json", "--stateful",
             "--emit-iptables", DATA / "factory_binding.json",
             "--out-dir", out]
        )
        assert code == 0
        stateful = json.loads((out / "stateful.json").read_text())
        assert {tuple(e) for e in stateful["stateful"]} == sc.FACTORY_STATEFUL
        ruleset = (out / "ruleset.iptables").read_text()
        table = parse_save(ruleset)
        assert len(unfold(table, "FORWARD")) == 21  # 20 rules + default drop

    def test_construct_does_not_hijack_stateful_step(self, tmp_path):
        """With --policy, --construct and --stateful combined, the stateful
        policy is computed from the supplied policy, not the maximum."""
        out = tmp_path / "out"
        code = run(
            ["synthesize", "--invariants", DATA / "factory_invariants.json",
             "--policy", DATA / "factory_policy.json",
             "--verify", "--construct", "--stateful", "--out-dir", out]
        )
        assert code == 0
        stateful = json.loads((out / "stateful.json").read_text())
        assert {tuple(e) for e in stateful["stateful"]} == sc.FACTORY_STATEFUL

    def test_contradictory_invariants_warn_deny_all(self, tmp_path, capsys):
        spec = tmp_path / "inv.json"
        spec.write_text(json.dumps([
            {"template": "NoRefl", "attrs": {}},
            {"template": "CommPartners",
             "attrs": {"a": {"master": []}, "b": {"master": []}}},
        ]))
        out = tmp_path / "out"
        code = run(["synthesize", "--invariants", spec, "--construct", "--out-dir", out])
        assert code == 0
        assert capsys.readouterr().err == "warning: invariants are contradictory, policy is deny-all\n"
        constructed = PolicyGraph.from_json((out / "policy.json").read_text())
        assert not constructed.edges

    def test_empty_non_phi_maximum_is_not_called_contradictory(self, tmp_path, capsys):
        """CommWith a -> b, b -> c is satisfied by the policy {a -> b}, yet
        the maximum policy of this non-Phi spec has no edge; the warning
        says deny-all without calling the invariants contradictory."""
        spec = tmp_path / "inv.json"
        spec.write_text(json.dumps([
            {"template": "CommWith", "attrs": {"a": ["b"], "b": ["c"], "c": []}},
        ]))
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"nodes": ["a", "b", "c"], "edges": [["a", "b"]]}))
        out = tmp_path / "out"
        code = run(["synthesize", "--invariants", spec, "--policy", policy,
                    "--verify", "--construct", "--out-dir", out])
        assert code == 0
        captured = capsys.readouterr()
        assert "verify: OK" in captured.out
        assert "deny-all" in captured.err
        assert "contradictory" not in captured.err
        assert not PolicyGraph.from_json((out / "policy.json").read_text()).edges

    def test_verify_detects_violations(self, tmp_path, monkeypatch):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({
            "nodes": sorted(sc.FACTORY_HOSTS),
            "edges": [["Robot2", "INET"]],
        }))
        checked = []
        phi_failing_edges = invariants.phi_failing_edges
        monkeypatch.setattr(invariants, "phi_failing_edges",
                            lambda inv, edges: checked.append(inv) or phi_failing_edges(inv, edges))
        code = run(
            ["synthesize", "--invariants", DATA / "factory_invariants.json",
             "--policy", policy, "--verify", "--out-dir", tmp_path / "out"]
        )
        assert code == 2
        # verify.json and diff.dot share one computation of the offending flows
        phi = [inv for inv in load_invariants((DATA / "factory_invariants.json").read_text())
               if inv.phi is not None]
        assert len(checked) == len(phi) > 0
        assert "color=red" in (tmp_path / "out" / "diff.dot").read_text()

    def test_verify_past_the_brute_force_bound_exit_one(self, tmp_path, capsys):
        """CommWith over 5 hosts: the maximum policy's offending flows would
        be enumerated over the 25 edges of the allow-all graph."""
        spec = tmp_path / "inv.json"
        spec.write_text(json.dumps([{"template": "CommWith",
                                     "attrs": {"a": ["b", "c"], "b": ["c"]}}]))
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"nodes": ["a", "b", "c", "d", "e"],
                                      "edges": [["a", "b"], ["b", "c"]]}))
        code = run(["synthesize", "--invariants", spec, "--policy", policy, "--verify",
                    "--out-dir", tmp_path / "out"])
        assert code == 1
        err = assert_one_error_line(capsys)
        assert "exceed bound" in err and "minimalize" not in err

    def test_construct_past_the_brute_force_bound_falls_back(self, tmp_path, capsys):
        """CommWith over 5 hosts: ClassRows refuses to enumerate the
        offending flows of the 25-edge allow-all graph, so --construct
        builds the policy with generate_valid_topology3."""
        text = json.dumps([{"template": "CommWith",
                            "attrs": {"a": ["b", "c"], "b": ["c"], "c": [], "d": ["a", "b", "c"],
                                      "e": ["a", "b", "c", "d"]}}])
        spec = tmp_path / "inv.json"
        spec.write_text(text)
        invs = load_invariants(text)
        hosts = {"a", "b", "c", "d", "e"}
        with pytest.raises(TooLargeForBruteForce):
            ClassRows(invs, hosts)
        out = tmp_path / "out"
        assert run(["synthesize", "--invariants", spec, "--construct", "--out-dir", out]) == 0
        constructed = PolicyGraph.from_json((out / "policy.json").read_text())
        expected = generate_valid_topology3(invs, PolicyGraph.of(hosts).allow_all())
        assert (constructed.nodes, constructed.edges) == (expected.nodes, expected.edges)
        assert ("e", "a") in constructed.edges and ("a", "e") not in constructed.edges
        assert f"constructed policy with {len(expected.edges)} flows" in capsys.readouterr().out

    def test_construct_falls_back_only_past_the_bound(self, tmp_path, capsys, monkeypatch):
        """Any other error of ClassRows exits 1 with its message instead
        of being masked by the fallback."""
        def refuse(invariants, nodes):
            raise PreconditionViolated("refused")

        monkeypatch.setattr(cli, "ClassRows", refuse)
        code = run(["synthesize", "--invariants", DATA / "factory_invariants.json",
                    "--construct", "--out-dir", tmp_path / "out"])
        assert code == 1
        assert "refused" in assert_one_error_line(capsys)

    def test_run_leaves_no_reference_cycles(self, tmp_path, capsys):
        """A synthesize run frees what it builds by reference counting: with
        the cyclic collector off, a collection after the run finds no more
        unreachable objects than one after building and parsing the
        argument parser alone (argparse's own cycles)."""
        argv = [str(a) for a in ["synthesize", "--invariants", DATA / "factory_invariants.json",
                                 "--construct", "--stateful", "--emit-iptables",
                                 DATA / "factory_binding.json", "--out-dir", tmp_path / "out"]]
        assert main(argv) == 0  # imports and caches are in place before counting
        gc.collect()
        gc.disable()
        try:
            cli.build_arg_parser().parse_args(argv)
            parser_alone = gc.collect()
            assert main(argv) == 0
            after_run = gc.collect()
        finally:
            gc.enable()
        capsys.readouterr()
        assert after_run <= parser_alone

    def test_emission_without_stateful(self, tmp_path):
        """--emit-iptables alone writes the policy without stateful flows:
        the lines of the --stateful run less its ESTABLISHED jump and its
        backflow chains."""
        texts = {}
        for flags in ([], ["--stateful"]):
            out = tmp_path / "-".join(["out", *flags])
            code = run(["synthesize", "--invariants", DATA / "factory_invariants.json",
                        "--policy", DATA / "factory_policy.json", *flags,
                        "--emit-iptables", DATA / "factory_binding.json", "--out-dir", out])
            assert code == 0
            assert (out / "stateful.json").exists() == bool(flags)
            texts[bool(flags)] = (out / "ruleset.iptables").read_text()
        text = texts[False]
        assert "ESTABLISHED" not in text and "--state" not in text
        with_state = texts[True].splitlines()
        assert "-j backflows" in texts[True]
        assert text.splitlines() == [x for x in with_state if "backflow" not in x]
        # the --stateful run adds one ESTABLISHED rule for each of its 8 stateful flows
        assert len(unfold(parse_save(text), "FORWARD")) == 21 - 8
        stateful = StatefulPolicy(sc.factory_policy().nodes, sc.factory_policy().edges,
                                  frozenset())
        binding = binding_from_json(json.loads((DATA / "factory_binding.json").read_text()))
        assert text == emit_iptables(stateful, binding)

    @pytest.mark.parametrize("entry", [
        {"template": "CommWith", "attrs": {"a": "db"}},
        {"template": "SystemBoundary", "internal": "db"},
    ])
    def test_string_valued_name_list_exit_one(self, tmp_path, capsys, entry):
        spec = tmp_path / "inv.json"
        spec.write_text(json.dumps([entry]))
        out = tmp_path / "out"
        assert run(["synthesize", "--invariants", spec, "--construct", "--out-dir", out]) == 1
        assert "malformed" in assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--invariants", "--policy", "--emit-iptables"])
    def test_missing_input_file_exit_one(self, tmp_path, capsys, option):
        argv = {"--invariants": DATA / "factory_invariants.json",
                "--policy": DATA / "factory_policy.json",
                "--emit-iptables": DATA / "factory_binding.json"}
        argv[option] = tmp_path / "missing.json"
        out = tmp_path / "out"
        code = run(["synthesize", *(x for kv in argv.items() for x in kv),
                    "--stateful", "--out-dir", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and err.startswith("error: cannot read ")
        assert "missing.json" in err and "Traceback" not in err
        assert not out.exists()  # inputs are read before any output is written

    @pytest.mark.parametrize("option,text", [
        ("--invariants", '[{"template": "Nope"}]'),
        ("--invariants", '{"x": 1}'),
        ("--invariants", "[{"),
        ("--invariants", '[{"attrs": {}}]'),
        ("--invariants", '[{"template": "BLPTrusted", "attrs": {"Robot1": {"level": "x"}}}]'),
        ("--invariants", '[{"template": "SystemBoundary", "internal": 5}]'),
        ("--policy", '{"edges": []}'),
        ("--policy", '{"nodes": ["a"], "edges": [["a"]]}'),
        ("--policy", "[1, 2]"),
        ("--emit-iptables", '{"Robot1": {"ips": ["10.0.0.1"]}}'),
        ("--emit-iptables", '{"Robot1": {"iface": "eth0", "ips": [7]}}'),
        ("--emit-iptables", '{"Robot1": {"iface": "-j DROP", "ips": ["10.0.0.1"]}}'),
        ("--emit-iptables", '{"Robot1": {"iface": "eth0", "ips": []}}'),
        ("--emit-iptables", '{"Robot1": {"iface": "eth0", "ips": ["10.0.0.300"]}}'),
        ("--emit-iptables", "{,}"),
    ])
    def test_malformed_spec_exit_one(self, tmp_path, capsys, option, text):
        argv = {"--invariants": DATA / "factory_invariants.json",
                "--policy": DATA / "factory_policy.json",
                "--emit-iptables": DATA / "factory_binding.json"}
        argv[option] = tmp_path / "spec.json"
        argv[option].write_text(text)
        out = tmp_path / "out"
        code = run(["synthesize", *(x for kv in argv.items() for x in kv),
                    "--stateful", "--out-dir", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()  # inputs are read before any output is written

    @pytest.mark.parametrize("option,text,says", [
        ("--invariants", "[" * 5000 + "]" * 5000, "nested too deeply"),
        ("--policy", '{"nodes": ' * 5000 + "1" + "}" * 5000, "nested too deeply"),
        ("--emit-iptables", "[" * 5000 + "]" * 5000, "nested too deeply"),
        ("--policy", '{"nodes": ' + "1" * 5000 + ', "edges": []}', "policy: "),
        ("--invariants", '[{"template": "BLPTrusted", "attrs": {"Robot1": {"level": 1e999}}}]',
         "OverflowError"),
        ("--invariants", '[{"template": "BLPTrusted", "attrs": {"Robot1": {"level": -1e999}}}]',
         "OverflowError"),
        ("--invariants", '[{"template": "DomainHierarchy", '
                         '"attrs": {"Robot1": {"level": "a.b", "trust": 1e999}}}]', "OverflowError"),
        ("--invariants", '[{"template": "DomainHierarchy", '
                         '"attrs": {"Robot1": {"level": "a.b", "trust": -1e999}}}]', "OverflowError"),
        ("--invariants", '[{"template": "Subnets", "attrs": {"Robot1": {"subnet": 1e999}}}]',
         "OverflowError"),
        ("--invariants", '[{"template": "Subnets", "attrs": {"Robot1": {"subnet": -1e999}}}]',
         "OverflowError"),
    ], ids=["deep-invariants", "deep-policy", "deep-binding", "long-int-policy", "blp-inf",
            "blp-neg-inf", "domain-inf", "domain-neg-inf", "subnets-inf", "subnets-neg-inf"])
    def test_deep_long_or_infinite_json_exit_one(self, tmp_path, capsys, option, text, says):
        """JSON nested past the decoder's recursion limit, an integer of
        more digits than Python converts, and an infinite number where a
        template reads an integer, are malformed specs."""
        argv = {"--invariants": DATA / "factory_invariants.json",
                "--policy": DATA / "factory_policy.json",
                "--emit-iptables": DATA / "factory_binding.json"}
        argv[option] = tmp_path / "spec.json"
        argv[option].write_text(text)
        out = tmp_path / "out"
        code = run(["synthesize", *(x for kv in argv.items() for x in kv),
                    "--stateful", "--out-dir", out])
        assert code == 1
        assert says in assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("policy,says", [
        ({"nodes": [1, 2, "x"], "edges": [[1, 2]]}, "a name must be a string, got 1"),
        ({"nodes": ["a", None], "edges": []}, "a name must be a string, got None"),
        ({"nodes": ["a", ["b"]], "edges": [["a", "a"]]}, "a name must be a string, got ['b']"),
        ({"nodes": ["a", 1.5], "edges": []}, "a name must be a string, got 1.5"),
        ({"nodes": ["a", True], "edges": []}, "a name must be a string, got True"),
        ({"nodes": "ab", "edges": [["a", "b"]]}, "expected a list of names, got 'ab'"),
        ({"nodes": {"a": 1}, "edges": []}, "expected a list of names"),
        ({"nodes": ["a", "b"], "edges": [["a", 1]]}, "edge endpoint 1 is not a declared node"),
        ({"nodes": ["a", "b"], "edges": ["ab"]}, "an edge must be a [src, dst] list"),
        ({"nodes": ["a", "b"], "edges": {"a": "b"}}, "an edge must be a [src, dst] list"),
        ({"nodes": ["a", "b"], "edges": [["a", "b", "a"]]}, "too many values"),
        ({"nodes": ["a", "b"], "edges": [["a", "c"]]}, "edge endpoint 'c' is not a declared node"),
    ], ids=["int", "null", "list", "float", "bool", "string", "object", "int-endpoint",
            "string-edge", "object-edges", "triple-edge", "dangling-edge"])
    def test_malformed_policy_names_exit_one(self, tmp_path, capsys, policy, says):
        """A policy node must be a string name, as the invariants' host names
        are; a node list or an edge that is a string is not split into
        characters."""
        (tmp_path / "policy.json").write_text(json.dumps(policy))
        out = tmp_path / "out"
        code = run(["synthesize", "--invariants", DATA / "factory_invariants.json",
                    "--policy", tmp_path / "policy.json", "--verify", "--construct",
                    "--stateful", "--out-dir", out])
        assert code == 1
        assert says in assert_one_error_line(capsys)
        assert not out.exists()

    def test_golden_stateful_dot(self, tmp_path):
        out = tmp_path / "out"
        run(
            ["synthesize", "--invariants", DATA / "factory_invariants.json",
             "--policy", DATA / "factory_policy.json", "--stateful",
             "--out-dir", out]
        )
        got = (out / "stateful.dot").read_text()
        golden = (DATA / "golden_factory_stateful.dot").read_text()
        assert got == golden
