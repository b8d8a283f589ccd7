"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestRunCommand:
    def test_basic_run(self, capsys):
        assert main(["run", "--t-sync", "200", "--packets", "8",
                     "--interval", "150"]) == 0
        out = capsys.readouterr().out
        assert "generated" in out
        assert "accuracy" in out
        assert "T_sync=200" in out

    def test_adaptive_run(self, capsys):
        assert main(["run", "--t-sync", "400", "--packets", "8",
                     "--interval", "150", "--adaptive"]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_tcp_mode(self, capsys):
        assert main(["run", "--t-sync", "200", "--packets", "8",
                     "--interval", "150", "--mode", "tcp"]) == 0
        assert "measured" in capsys.readouterr().out

    def test_queue_mode_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--mode", "queue"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_trace_export(self, tmp_path, capsys):
        trace_file = tmp_path / "windows.csv"
        assert main(["run", "--t-sync", "200", "--packets", "8",
                     "--interval", "150", "--trace", str(trace_file)]) == 0
        assert "window records" in capsys.readouterr().out
        content = trace_file.read_text()
        assert content.startswith("index,ticks,")

    @pytest.mark.parametrize("mode", ["tcp"])
    def test_trace_in_threaded_modes(self, tmp_path, capsys, mode):
        trace_file = tmp_path / "windows.csv"
        assert main(["run", "--t-sync", "200", "--packets", "4",
                     "--mode", mode, "--trace", str(trace_file)]) == 0
        assert "window records" in capsys.readouterr().out
        header, *rows = trace_file.read_text().splitlines()
        assert header.startswith("index,ticks,master_cycles,board_ticks,")
        assert rows
        for row in rows:
            _index, _ticks, master_cycles, board_ticks = row.split(",")[:4]
            assert master_cycles == board_ticks


class TestExploreCommand:
    def test_explore(self, capsys):
        assert main(["explore", "--packets", "16", "--interval", "200",
                     "--buffer", "8",
                     "--t-sync-values", "100", "500", "2000"]) == 0
        out = capsys.readouterr().out
        assert "optimal T_sync" in out
        assert "<-- optimum" in out


class TestFiguresCommand:
    def test_fast_figures(self, capsys):
        assert main(["figures", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "Figure 7" in out
        assert "x" in out and "%" in out


class TestIssCommand:
    def test_assemble_and_run(self, tmp_path, capsys):
        source = tmp_path / "prog.asm"
        source.write_text("""
            ldi r1, 6
            ldi r2, 7
            ldi r3, 0
        loop:
            add r3, r3, r1
            addi r2, r2, -1
            bne r2, r0, loop
            halt
        """)
        assert main(["iss", str(source)]) == 0
        out = capsys.readouterr().out
        assert "halted after" in out
        assert "0x0000002a" in out  # r3 = 6 * 7

    def test_register_presets(self, tmp_path, capsys):
        source = tmp_path / "prog.asm"
        source.write_text("add r3, r1, r2\n halt")
        assert main(["iss", str(source), "--reg", "r1=0x10",
                     "--reg", "r2=2"]) == 0
        assert "0x00000012" in capsys.readouterr().out

    def test_assembler_errors_point_at_lines(self, tmp_path, capsys):
        source = tmp_path / "bad.asm"
        source.write_text("nop\nfoo r1, r2\nldi r99, 5\nhalt\n")
        assert main(["iss", str(source)]) == 1
        err = capsys.readouterr().err
        assert f"{source}:2: error: unknown opcode 'foo'" in err
        assert f"{source}:3: error: register r99 out of range" in err

    def test_runtime_errors_point_at_lines(self, tmp_path, capsys):
        source = tmp_path / "crash.asm"
        source.write_text("; lint: live-in r1\nld r2, 0(r1)\nhalt\n")
        assert main(["iss", str(source), "--reg", "r1=0xffffff"]) == 1
        err = capsys.readouterr().err
        assert f"{source}:2: runtime error:" in err

    def test_lint_gate_blocks_error_findings(self, tmp_path, capsys):
        source = tmp_path / "oob.asm"
        source.write_text("ldi r1, 0x20000\nld r2, 0(r1)\nhalt\n")
        assert main(["iss", str(source)]) == 1
        err = capsys.readouterr().err
        assert "ISS005" in err
        assert "--no-lint" in err

    def test_no_lint_skips_the_gate(self, tmp_path, capsys):
        source = tmp_path / "oob.asm"
        source.write_text("ldi r1, 0x20000\nld r2, 0(r1)\nhalt\n")
        # Still fails, but now at runtime, not in the lint gate.
        assert main(["iss", str(source), "--no-lint"]) == 1
        assert "runtime error" in capsys.readouterr().err


class TestLintCommand:
    def test_default_sweep_is_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_text_findings_and_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.asm"
        bad.write_text("ldi r1, 0x20000\nld r2, 0(r1)\nhalt\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "ISS005[memory-out-of-bounds]" in out

    def test_json_schema(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.asm"
        bad.write_text("ldi r0, 1\nhalt\n")
        assert main(["lint", "--format", "json", str(bad)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-lint-report/1"
        assert doc["findings"][0]["rule"] == "ISS004"
        assert doc["summary"]["warnings"] == 1

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        bad = tmp_path / "warn.asm"
        bad.write_text("ldi r0, 1\nhalt\n")
        assert main(["lint", str(bad)]) == 0
        capsys.readouterr()
        assert main(["lint", "--strict", str(bad)]) == 1

    def test_suppress_flag(self, tmp_path, capsys):
        bad = tmp_path / "warn.asm"
        bad.write_text("ldi r0, 1\nhalt\n")
        assert main(["lint", "--strict", "--suppress", "ISS004",
                     str(bad)]) == 0
        assert "1 suppressed" in capsys.readouterr().out

    def test_memory_flag_changes_bounds(self, tmp_path, capsys):
        prog = tmp_path / "prog.asm"
        prog.write_text("ldi r1, 0x180\nld r2, 0(r1)\nhalt\n")
        assert main(["lint", str(prog)]) == 0
        capsys.readouterr()
        assert main(["lint", "--memory", "256", str(prog)]) == 1

    def test_wcet_flag_reports_bounds(self, capsys):
        assert main(["lint", "--wcet", "bundled"]) == 0
        assert "ISS006" in capsys.readouterr().out


class TestProfileCommand:
    def test_chrome_trace_output(self, tmp_path, capsys):
        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        assert main(["profile", "router", "--t-sync", "200",
                     "--packets", "6", "--interval", "150",
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "spans=" in stdout
        assert "trace events" in stdout
        import json

        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) > 0
        assert doc["metadata"]["app"] == "router"

    def test_text_report(self, capsys):
        assert main(["profile", "--t-sync", "200", "--packets", "6",
                     "--interval", "150", "--format", "text",
                     "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "per-layer" in out
        assert "session" in out

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "spans.csv"
        assert main(["profile", "--t-sync", "200", "--packets", "6",
                     "--interval", "150", "--format", "csv",
                     "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("kind,cat,name")

    def test_sampled_profile(self, tmp_path, capsys):
        out = tmp_path / "sampled.json"
        assert main(["profile", "--t-sync", "200", "--packets", "6",
                     "--interval", "150", "--sample", "4",
                     "--out", str(out)]) == 0
        assert "trace events" in capsys.readouterr().out

    def test_unknown_app_rejected(self, capsys):
        assert main(["profile", "toaster"]) == 2
        assert "unknown application" in capsys.readouterr().err


class TestFuzzPreflight:
    def test_lint_concurrency_preflight_passes_and_fuzzes(self, capsys):
        assert main(["fuzz", "--seed", "42", "--runs", "1",
                     "--lint-concurrency"]) == 0
        out = capsys.readouterr().out
        assert "pre-flight clean" in out

    def test_preflight_failure_aborts_before_fuzzing(self, monkeypatch,
                                                     capsys):
        import repro.staticcheck.protocol_rules as protocol_rules

        mutated = dict(protocol_rules.BOARD_WINDOW_TABLE)
        del mutated[("reporting", "send_report")]
        monkeypatch.setattr(protocol_rules, "BOARD_WINDOW_TABLE", mutated)
        assert main(["fuzz", "--seed", "42", "--runs", "1",
                     "--lint-concurrency", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "pre-flight failed" in err
        assert "PROTO001" in err
