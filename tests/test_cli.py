"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestGenerate:
    def test_generate_binary_and_validate(self, tmp_path, capsys):
        out = tmp_path / "g.bin"
        rc = main([
            "generate", "-n", "500", "-x", "3", "-P", "4",
            "--scheme", "rrp", "--seed", "1", "--validate", "-o", str(out),
        ])
        assert rc == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "validation: ok" in captured
        assert "m=1494" in captured

    def test_generate_text_output(self, tmp_path):
        out = tmp_path / "g.txt"
        rc = main([
            "generate", "-n", "100", "-P", "2", "--seed", "0",
            "--text", "-o", str(out),
        ])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 99

    def test_generate_event_engine(self, capsys):
        rc = main(["generate", "-n", "80", "-x", "1", "-P", "3",
                   "--engine", "event", "--seed", "2"])
        assert rc == 0

    def test_generate_sequential(self, capsys):
        rc = main(["generate", "-n", "80", "-x", "2", "--engine", "sequential",
                   "--seed", "2"])
        assert rc == 0

    def test_ecp_scheme_accepted(self, capsys):
        rc = main(["generate", "-n", "500", "-x", "2", "-P", "4",
                   "--scheme", "ecp", "--seed", "8", "--validate"])
        assert rc == 0


class TestValidateCommand:
    def test_valid_file(self, tmp_path, capsys):
        out = tmp_path / "g.bin"
        main(["generate", "-n", "200", "-x", "2", "-P", "2", "--seed", "3",
              "-o", str(out)])
        rc = main(["validate", str(out), "-n", "200", "-x", "2"])
        assert rc == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_file(self, tmp_path, capsys):
        out = tmp_path / "g.bin"
        main(["generate", "-n", "200", "-x", "2", "-P", "2", "--seed", "3",
              "-o", str(out)])
        rc = main(["validate", str(out), "-n", "200", "-x", "3"])  # wrong x
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err


class TestStats:
    def test_stats_output(self, tmp_path, capsys):
        out = tmp_path / "g.bin"
        main(["generate", "-n", "3000", "-x", "4", "-P", "4", "--seed", "4",
              "-o", str(out)])
        rc = main(["stats", str(out), "--k-min", "8"])
        assert rc == 0
        cap = capsys.readouterr().out
        assert "power-law fit" in cap
        assert "edges: 11990" in cap

    def test_missing_file_fails_in_one_line(self, tmp_path, capsys):
        rc = main(["stats", str(tmp_path / "nonexist.bin")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "No such file or directory" in err

    def test_empty_text_file_fails_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        rc = main(["stats", "--text", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "holds no edges" in err

    def test_too_few_degrees_skips_the_fit(self, tmp_path, capsys):
        out = tmp_path / "g.bin"
        main(["generate", "-n", "2", "-x", "1", "--engine", "sequential",
              "-o", str(out)])
        capsys.readouterr()
        rc = main(["stats", str(out)])
        assert rc == 0
        cap = capsys.readouterr()
        assert "degree: min=1 mean=1.00 max=1" in cap.out
        assert "power-law fit: skipped (need at least 10 positive degrees" in cap.out
        assert cap.err == ""


class TestReadEdges:
    @pytest.mark.parametrize("command", [
        ["validate", "-n", "3", "-x", "1"], ["degree-dist"],
    ], ids=lambda c: c[0])
    def test_unreadable_file_fails_in_one_line(self, command, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"garbage")
        rc = main([command[0], str(path), *command[1:]])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "truncated header" in err


class TestScalingCommand:
    def test_table_printed(self, capsys):
        rc = main(["scaling", "-n", "2000", "-x", "2", "--ranks", "1", "4",
                   "--schemes", "rrp"])
        assert rc == 0
        cap = capsys.readouterr().out
        assert "strong scaling" in cap
        assert "rrp" in cap


class TestChainsCommand:
    def test_within_bounds(self, capsys):
        rc = main(["chains", "-n", "50000", "--seed", "1"])
        assert rc == 0
        assert "within Theorem 3.3 bounds: True" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_requires_n(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])

    def test_no_other_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["other", "--model", "er"])
        assert exc.value.code == 2


class TestDegreeDist:
    def test_series_and_plot(self, tmp_path, capsys):
        out = tmp_path / "g.bin"
        main(["generate", "-n", "3000", "-x", "3", "-P", "4", "--seed", "5",
              "-o", str(out)])
        rc = main(["degree-dist", str(out), "--plot"])
        assert rc == 0
        cap = capsys.readouterr().out
        assert "log-binned degree distribution" in cap
        assert "*" in cap


class TestTelemetryCLI:
    def test_trace_out_then_inspect(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        rc = main(["generate", "-n", "1500", "-P", "4", "--engine", "mp",
                   "--seed", "5", "--trace-out", str(trace)])
        assert rc == 0
        assert "wrote trace" in capsys.readouterr().out

        from repro.telemetry.export import load_chrome_trace, validate_chrome_trace

        assert validate_chrome_trace(load_chrome_trace(trace)) == []

        rc = main(["inspect", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lane" in out and "barrier" in out
        assert "rss per lane (first->peak): -1: " in out

    def test_metrics_out_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "-n", "200", "--metrics-out", str(tmp_path / "m.prom")])
        assert exc.value.code == 2
        assert not (tmp_path / "m.prom").exists()

    def test_plain_generate_records_no_telemetry(self, capsys):
        rc = main(["generate", "-n", "200", "-P", "2", "--seed", "1"])
        assert rc == 0
        assert "wrote trace" not in capsys.readouterr().out

    def test_inspect_missing_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(["inspect", str(tmp_path / "nope.trace.json")])
        assert rc == 1
        cap = capsys.readouterr()
        assert "no such trace file" in cap.err
        assert "Traceback" not in cap.err

    def test_inspect_corrupt_trace_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace.json"
        bad.write_text("{not json")
        rc = main(["inspect", str(bad)])
        assert rc == 1
        cap = capsys.readouterr()
        assert "not valid trace JSON" in cap.err
        assert "Traceback" not in cap.err


class TestExploreCLI:
    def test_clean_sweep_exits_zero(self, capsys):
        rc = main(["explore", "-n", "200", "-x", "1", "-P", "4",
                   "--engine", "bsp", "--schedules", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "explored 6 random schedules" in out
        assert "all schedules agree" in out

    def test_divergent_sweep_then_replay(self, tmp_path, capsys):
        # the seeded order-sensitivity knob is not exposed on the CLI; drive
        # explore directly to produce an artifact, then replay it via the CLI
        from repro.schedsim import explore

        rep = explore(
            {"n": 300, "x": 3, "p": 0.5, "ranks": 4, "scheme": "ecp",
             "seed": 7, "engine": "bsp", "knobs": {"canonical_inbox": False}},
            policy="random", schedules=16, artifact_dir=str(tmp_path),
        )
        assert not rep.ok
        art = rep.divergences[0].artifact
        rc = main(["explore", "--replay", art])
        assert rc == 0
        assert "reproduced" in capsys.readouterr().out

    def test_replay_missing_artifact_fails_cleanly(self, tmp_path, capsys):
        rc = main(["explore", "--replay", str(tmp_path / "gone.json")])
        assert rc == 1
        assert "no such artifact" in capsys.readouterr().err

    def test_conflicting_config_rejected_before_any_run(self, monkeypatch, capsys):
        from repro.core import event_driven
        from repro.core.generator import CONFLICTS

        def no_run(*args, **kwargs):
            raise AssertionError("a rejected config must not run")

        monkeypatch.setattr(event_driven, "run_event_driven_pa_x1", no_run)
        rc = main(["explore", "-n", "200", "-x", "3", "--engine", "event"])
        assert rc == 2
        row = next(row for row in CONFLICTS if row.name == "event-x")
        cap = capsys.readouterr()
        assert cap.err == row.reason.format(x=3) + "\n"
        assert cap.out == ""

    def test_crash_rank_requires_trigger(self, capsys):
        rc = main(["explore", "-n", "200", "-x", "1", "--crash-rank", "1"])
        assert rc == 2
        assert "--crash-rank needs --crash-superstep" in capsys.readouterr().err

    def test_event_crash_rejected_before_any_run(self, monkeypatch, capsys):
        from repro.core import event_driven
        from repro.core.generator import CONFLICTS

        def no_run(*args, **kwargs):
            raise AssertionError("a rejected config must not run")

        monkeypatch.setattr(event_driven, "run_event_driven_pa_x1", no_run)
        rc = main(["explore", "-n", "200", "-x", "1", "--engine", "event",
                   "--crash-rank", "1", "--crash-superstep", "2"])
        assert rc == 2
        row = next(row for row in CONFLICTS if row.name == "faults-engine")
        cap = capsys.readouterr()
        assert cap.err == row.reason.format(engine="event") + "\n"
        assert cap.out == ""

    def test_crash_plan_sweep(self, capsys):
        rc = main(["explore", "-n", "200", "-x", "1", "-P", "4",
                   "--engine", "bsp", "--schedules", "4",
                   "--crash-rank", "2", "--crash-superstep", "2"])
        assert rc == 0
        assert "RankFailure(rank=2)" in capsys.readouterr().out


class TestCommfreeCLI:
    def test_generate_commfree_default_engine(self, tmp_path, capsys):
        out = tmp_path / "g.bin"
        rc = main(["generate", "-n", "500", "--generator", "commfree",
                   "--seed", "1", "--validate", "-o", str(out)])
        assert rc == 0
        assert out.exists()
        assert "validation: ok" in capsys.readouterr().out

    def test_commfree_matches_library_output(self, tmp_path, capsys):
        from repro.core.commfree import commfree
        from repro.graph.io import read_edges_binary

        out = tmp_path / "g.bin"
        rc = main(["generate", "-n", "400", "-x", "3", "-P", "2",
                   "--generator", "commfree", "--engine", "mp",
                   "--seed", "9", "-o", str(out)])
        assert rc == 0
        assert read_edges_binary(out) == commfree(400, x=3, seed=9)

    @pytest.mark.parametrize("extra,fragment", [
        (["--inject-faults", "1"], "no distributed state to crash"),
        (["--checkpoint-dir", "unused"], "nothing to snapshot"),
        (["--engine", "event"], "nothing to simulate"),
    ])
    def test_meaningless_flags_rejected(self, extra, fragment, capsys):
        rc = main(["generate", "-n", "100", "--generator", "commfree",
                   "--seed", "1", *extra])
        assert rc == 2
        assert fragment in capsys.readouterr().err


class TestGenerateRejections:
    @pytest.mark.parametrize("extra,fragment", [
        (["--engine", "sequential", "-P", "2"], "requires ranks=1"),
        (["--engine", "event", "-P", "2", "--checkpoint-dir", "F"],
         "superstep boundaries"),
        (["-n", "5", "-x", "6"], "need n > x"),
    ])
    def test_invalid_combinations_rejected(
        self, extra, fragment, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        rc = main(["generate", "-n", "100", "--seed", "1", *extra])
        assert rc == 2
        err = capsys.readouterr().err
        assert fragment in err and err.count("\n") == 1
        assert not (tmp_path / "F").exists()
