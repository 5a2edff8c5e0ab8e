"""CLI tests: every subcommand runs and prints its report."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_seed_flag_global(self):
        args = build_parser().parse_args(["--seed", "7", "placement"])
        assert args.seed == 7


class TestCommands:
    def test_inventory(self, capsys):
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        assert "20160" in out
        assert "32.26 PB" in out

    def test_inventory_spider1(self, capsys):
        assert main(["inventory", "--system", "spider1"]) == 0
        assert "13440" in capsys.readouterr().out

    def test_layers(self, capsys):
        assert main(["layers"]) == 0
        out = capsys.readouterr().out
        assert "RAID groups" in out
        assert "couplets" in out

    def test_ior(self, capsys):
        assert main(["ior", "-n", "96", "--ppn", "16"]) == 0
        assert "aggregate" in capsys.readouterr().out

    def test_ior_optimal_upgraded(self, capsys):
        assert main(["ior", "-n", "96", "--ppn", "1",
                     "--placement", "optimal", "--upgraded"]) == 0

    def test_incident_both_designs(self, capsys):
        assert main(["incident", "--enclosures", "5"]) == 0
        assert "FAILED" in capsys.readouterr().out
        assert main(["incident", "--enclosures", "10"]) == 0
        assert "tolerated" in capsys.readouterr().out

    def test_placement_map(self, capsys):
        assert main(["placement"]) == 0
        out = capsys.readouterr().out
        assert "router groups" in out

    def test_workload(self, capsys):
        assert main(["workload", "--hours", "1"]) == 0
        assert "write fraction" in capsys.readouterr().out

    def test_interference(self, capsys):
        assert main(["interference"]) == 0
        assert "p99" in capsys.readouterr().out

    def test_reliability(self, capsys):
        assert main(["reliability", "--years", "3"]) == 0
        assert "disk failures" in capsys.readouterr().out

    def test_reliability_declustered(self, capsys):
        assert main(["reliability", "--years", "3", "--declustered"]) == 0
        assert "declustered" in capsys.readouterr().out


class TestNewCommands:
    def test_recovery_standard(self, capsys):
        assert main(["recovery"]) == 0
        out = capsys.readouterr().out
        assert "standard" in out
        assert "Router failure" in out

    def test_recovery_imperative(self, capsys):
        assert main(["recovery", "--imperative", "--hp-journaling"]) == 0
        assert "imperative" in capsys.readouterr().out

    def test_suite(self, capsys):
        assert main(["suite", "--ssu", "1"]) == 0
        out = capsys.readouterr().out
        assert "fs overhead" in out


class TestChaos:
    def test_random_campaign(self, capsys):
        assert main(["--seed", "7", "chaos", "--faults", "4"]) == 0
        out = capsys.readouterr().out
        assert "Bandwidth-degradation timeline" in out
        assert "availability" in out
        assert "Health-checker incident triage" in out

    def test_cable_scenario(self, capsys):
        assert main(["chaos", "--scenario", "cable"]) == 0
        out = capsys.readouterr().out
        assert "cable_fail" in out
        assert "Recovery time per fault class" in out

    def test_trace_records_fault_spans(self, tmp_path, capsys):
        trace = tmp_path / "chaos.json"
        assert main(["chaos", "--scenario", "cable",
                     "--trace", str(trace)]) == 0
        from repro.obs.trace import read_chrome_trace

        data = read_chrome_trace(trace)
        assert any(e.get("cat") == "faults" for e in data["traceEvents"])
        assert "telemetry" in data

    def test_remediate_closes_the_loop(self, capsys):
        assert main(["chaos", "--scenario", "cable", "--remediate"]) == 0
        out = capsys.readouterr().out
        assert "Closed-loop remediation" in out
        assert "mean MTTD" in out
        assert "MTTD/MTTR decomposition per fault class" in out
        assert "mean recovery" in out  # the upgraded stats table

    def test_remediate_trace_records_pipeline_spans(self, tmp_path, capsys):
        trace = tmp_path / "remediate.json"
        assert main(["chaos", "--scenario", "cable", "--remediate",
                     "--trace", str(trace)]) == 0
        from repro.obs.trace import read_chrome_trace

        events = read_chrome_trace(trace)["traceEvents"]
        names = [e.get("name", "") for e in events
                 if e.get("cat") == "resilience"]
        for stage in ("detect:", "decide:", "act:", "verify:"):
            assert any(n.startswith(stage) for n in names)


class TestResilienceCommand:
    def test_cable_paired_study(self, capsys):
        assert main(["resilience"]) == 0
        out = capsys.readouterr().out
        assert "Manual vs closed-loop remediation (cable)" in out
        assert "blackout reduction" in out
        assert "availability gain" in out
        assert "Closed-loop pipeline (automated arm)" in out

    def test_recovery_trace_records_reconnect_replay_spans(
            self, tmp_path, capsys):
        trace = tmp_path / "recovery.json"
        assert main(["recovery", "--imperative",
                     "--trace", str(trace)]) == 0
        from repro.obs.trace import read_chrome_trace

        events = read_chrome_trace(trace)["traceEvents"]
        names = {e.get("name") for e in events
                 if e.get("cat") == "recovery"}
        assert {"recovery:reconnect-window", "recovery:replay",
                "recovery:reroute"} <= names


class TestSched:
    def test_paired_run_prints_both_policies(self, capsys):
        assert main(["--seed", "7", "sched", "--duration", "3600",
                     "--rate-scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "QoS caps disabled" in out
        assert "QoS caps enabled" in out
        assert "Per-class outcomes" in out
        assert "fairness" in out

    def test_faults_under_load(self, capsys):
        assert main(["--seed", "7", "sched", "--duration", "1800",
                     "--rate-scale", "0.5", "--faults", "2"]) == 0
        out = capsys.readouterr().out
        assert "fault events" in out

    def test_bad_arguments_are_clean_failures(self, capsys):
        assert main(["sched", "--duration", "-5"]) == 1
        assert "--duration" in capsys.readouterr().err
        assert main(["sched", "--rate-scale", "0"]) == 1
        assert "--rate-scale" in capsys.readouterr().err
        assert main(["sched", "--faults", "-1"]) == 1
        assert "--faults" in capsys.readouterr().err


class TestMeta:
    def test_paired_study_prints_both_arms(self, capsys):
        assert main(["--seed", "7", "meta", "--files", "4000"]) == 0
        out = capsys.readouterr().out
        assert "Small-file metadata tier" in out
        assert "Per-file baseline" in out
        assert "Aggregated tier" in out
        assert "f4-ec" in out
        assert "metadata throughput gain" in out

    def test_no_faults_flag(self, capsys):
        assert main(["meta", "--files", "2000", "--no-faults"]) == 0
        assert "Headline" in capsys.readouterr().out

    def test_trace_records_arm_spans(self, tmp_path, capsys):
        import json
        trace = tmp_path / "meta.json"
        assert main(["meta", "--files", "2000", "--no-faults",
                     "--trace", str(trace)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        names = {e["name"] for e in events if e.get("cat") == "metatier"}
        assert {"meta:arm:per-file", "meta:arm:aggregated",
                "meta:untar", "meta:training"} <= names

    def test_bad_arguments_are_clean_failures(self, capsys):
        assert main(["meta", "--files", "0"]) == 1
        assert "--files" in capsys.readouterr().err
        assert main(["meta", "--shards", "0"]) == 1
        assert "--shards" in capsys.readouterr().err
        assert main(["meta", "--cache-hit", "1.5"]) == 1
        assert "--cache-hit" in capsys.readouterr().err


class TestErrorPaths:
    def test_report_missing_file_is_clean_failure(self, capsys):
        assert main(["report", "/no/such/trace.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("spider-repro: cannot read trace")

    def test_report_corrupt_file_is_clean_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["report", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_report_wrong_shape_is_clean_failure(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]")
        assert main(["report", str(bad)]) == 1
        assert "Chrome-trace" in capsys.readouterr().err

    def test_report_without_telemetry_is_clean_failure(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"traceEvents": []}')
        assert main(["report", str(empty)]) == 1
        assert "no telemetry snapshot" in capsys.readouterr().err

    def test_unwritable_trace_path_fails_before_running(self, capsys):
        assert main(["chaos", "--scenario", "cable",
                     "--trace", "/no/such/dir/t.json"]) == 1
        assert "cannot write trace file" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["chaos", "--faults", "-1"], "--faults"),
        (["chaos", "--duration", "0"], "--duration"),
        (["resilience", "--scenario", "week", "--faults", "-1"], "--faults"),
        (["resilience", "--scenario", "week", "--duration", "0"],
         "--duration"),
        (["storm", "--duration", "3600"], "storm_end <= duration"),
        (["meta", "--stores", "0"], "--stores"),
        (["workload", "--hours", "0"], "--hours"),
        (["workload", "--hours", "-1"], "--hours"),
        (["suite", "--ssu", "999"], "--ssu"),
        (["suite", "--ssu", "-1"], "--ssu"),
        (["ior", "-n", "0"], "--n-processes"),
        (["ior", "--ppn", "0"], "--ppn"),
        (["ior", "--transfer-size", "0"], "--transfer-size"),
        (["scaling", "--ppn", "0"], "--ppn"),
        (["reliability", "--years", "0"], "--years"),
        (["culling", "--threshold", "2"], "--threshold"),
        (["chaos", "--threshold", "1"], "--threshold"),
        (["resilience", "--threshold", "2"], "--threshold"),
        (["monitor", "--threshold", "1"], "--threshold"),
        (["sched", "--duration", "1"], "--duration"),
        (["sched", "--duration", "nan"], "--duration"),
        (["sched", "--rate-scale", "nan"], "--rate-scale"),
        (["chaos", "--duration", "nan"], "--duration"),
        (["monitor", "--scenario", "random", "--duration", "nan"],
         "--duration"),
        (["resilience", "--scenario", "week", "--duration", "nan"],
         "--duration"),
        (["workload", "--hours", "nan"], "--hours"),
        (["workload", "--hours", "inf"], "--hours"),
        (["reliability", "--years", "nan"], "--years"),
        (["reliability", "--years", "inf"], "--years"),
        (["storm", "--duration", "inf"], "--duration"),
        (["storm", "--link-bw", "nan"], "--link-bw"),
        (["monitor", "--scrape-interval", "nan"], "scrape_interval"),
        (["monitor", "--rollup-interval", "nan"], "rollup_interval"),
        (["monitor", "--hop-latency", "nan"], "hop_latency"),
    ])
    def test_bad_campaign_arguments_are_clean_failures(self, argv, flag,
                                                       capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("spider-repro: ") and flag in err
