"""Tests for the command-line interface."""

import pytest

from repro.cli import main


FIG2 = "x[i] = y[i]*a + y[i-3]"


class TestCompile:
    def test_compile_inline_fits(self, capsys):
        code = main([
            "compile", "-e", FIG2, "--machine", "generic:4:2",
            "--registers", "6", "--method", "spill",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok" in out
        assert "II=2" in out
        assert "Ld_y" in out  # spilled value listed

    def test_compile_cache_dir_round_trip(self, capsys, tmp_path):
        from repro.sched import cache as sched_cache

        sched_cache.clear()  # cold memos: computations must write through
        argv = [
            "compile", "-e", FIG2, "--machine", "generic:4:2",
            "--registers", "6", "--method", "spill",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0  # warm: served from the store
        assert capsys.readouterr().out == cold
        assert list((tmp_path / "cache").rglob("*.pkl"))

    def test_compile_invalid_cache_dir_is_a_clean_error(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("occupied")
        with pytest.raises(SystemExit, match="cache directory"):
            main([
                "compile", "-e", FIG2,
                "--cache-dir", str(not_a_dir),
            ])

    def test_compile_all_methods(self, capsys):
        for method in ("spill", "increase", "combined", "prespill"):
            code = main([
                "compile", "-e", FIG2, "--registers", "32",
                "--method", method,
            ])
            assert code == 0, method

    def test_compile_failure_exit_code(self, capsys):
        code = main([
            "compile", "-e", FIG2, "--machine", "generic:4:2",
            "--registers", "1", "--method", "spill",
        ])
        assert code == 1
        assert "DID NOT FIT" in capsys.readouterr().out

    def test_show_sections(self, capsys):
        main([
            "compile", "-e", FIG2, "--registers", "32",
            "--show", "all",
        ])
        out = capsys.readouterr().out
        for section in ("graph", "schedule", "kernel", "lifetimes",
                        "pressure"):
            assert f"--- {section} ---" in out

    def test_compile_from_file(self, tmp_path, capsys):
        path = tmp_path / "loop.l"
        path.write_text("z[i] = x[i] + y[i]\n")
        code = main(["compile", str(path), "--registers", "32"])
        assert code == 0

    def test_stage_pass_flag(self, capsys):
        code = main([
            "compile", "-e", FIG2, "--registers", "32", "--stage-pass",
        ])
        assert code == 0

    def test_scheduler_choice(self, capsys):
        for scheduler in ("hrms", "ims", "swing"):
            code = main([
                "compile", "-e", FIG2, "--registers", "32",
                "--scheduler", scheduler,
            ])
            assert code == 0, scheduler

    def test_unknown_machine_rejected(self):
        with pytest.raises(SystemExit):
            main(["compile", "-e", FIG2, "--machine", "VAX"])

    def test_json_flag(self, capsys):
        code = main([
            "compile", "-e", FIG2, "--machine", "generic:4:2",
            "--registers", "6", "--method", "spill", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert '"schema": "repro.compile/1"' in out
        assert '"status": "ok"' in out

    def test_json_flag_on_failure(self, capsys):
        # the increase strategy's non-convergence certificate yields no
        # schedule at all; the JSON document must still be printed
        code = main([
            "compile", "-e", FIG2, "--registers", "1",
            "--method", "increase", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out
        assert '"schema": "repro.compile/1"' in out
        assert '"status": "failed"' in out


class TestMII:
    def test_mii_output(self, capsys):
        code = main(["mii", "-e", "s = s + x[i]*y[i]", "--machine", "P1L4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ResMII = 2" in out
        assert "RecMII = 4" in out
        assert "MII    = 4" in out


class TestSuite:
    def test_suite_summary(self, capsys):
        code = main(["suite", "--size", "6", "--registers", "32"])
        out = capsys.readouterr().out
        assert code == 0
        assert "suite of 6 loops" in out
        assert "apsi47_like" in out


class TestSweep:
    def test_sweep_renders_and_writes_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "sweep.json"
        code = main([
            "sweep", "--size", "8", "--machines", "P2L4",
            "--artifacts", "table1", "--jobs", "2",
            "--json-out", str(path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 1" in out
        assert "sweep:" in out  # engine summary line
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.sweep/1"
        assert document["suite"]["kind"] == "club"
        assert len(document["cells"]) == 16

    def test_sweep_random_suite(self, capsys):
        code = main([
            "sweep", "--suite", "random", "--size", "5",
            "--machines", "generic:4:2", "--budgets", "16",
            "--artifacts", "table1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 1" in out

    def test_sweep_multi_scheduler_grid(self, tmp_path, capsys):
        import json

        path = tmp_path / "multi.json"
        code = main([
            "sweep", "--size", "6", "--machines", "P2L4",
            "--budgets", "32", "--artifacts", "table1",
            "--scheduler", "hrms,swing", "--json-out", str(path),
        ])
        assert code == 0
        assert "[table1@hrms]" in capsys.readouterr().out
        document = json.loads(path.read_text())
        assert sorted(document["artifacts"]) == [
            "table1@hrms", "table1@swing",
        ]
        assert {c["scheduler"] for c in document["cells"]} == {
            "hrms", "swing",
        }

    def test_sweep_unknown_scheduler_in_list(self):
        with pytest.raises(SystemExit, match="unknown scheduler"):
            main([
                "sweep", "--size", "4", "--artifacts", "table1",
                "--scheduler", "hrms,vliw9000",
            ])

    @pytest.mark.parametrize("axis", [
        ["--artifacts", "table1", "table1"],
        ["--budgets", "32", "32"],
        ["--machines", "P2L4", "p2l4"],
    ])
    def test_sweep_duplicate_axis(self, axis):
        with pytest.raises(SystemExit, match="repro sweep: duplicate"):
            main([
                "sweep", "--size", "3", "--machines", "P2L4",
                "--budgets", "32", "--artifacts", "table1", *axis,
            ])

    def test_sweep_suite_filter(self, tmp_path):
        import json

        path = tmp_path / "filtered.json"
        code = main([
            "sweep", "--size", "8", "--machines", "P2L4",
            "--budgets", "32", "--artifacts", "table1",
            "--suite-filter", "high_pressure", "--json-out", str(path),
        ])
        assert code == 0
        document = json.loads(path.read_text())
        assert {c["workload"] for c in document["cells"]} == {
            "apsi47_like",
        }

    def test_sweep_unknown_suite_filter(self):
        with pytest.raises(SystemExit, match="unknown suite category"):
            main([
                "sweep", "--size", "4", "--artifacts", "table1",
                "--suite-filter", "nope",
            ])


class TestCacheCommand:
    def _populate(self, cache_dir):
        from repro.sched import cache as sched_cache

        sched_cache.clear()  # cold memos: computations must write through
        assert main([
            "compile", "-e", FIG2, "--machine", "generic:4:2",
            "--registers", "6", "--method", "spill",
            "--cache-dir", str(cache_dir),
        ]) == 0

    def test_stats_reports_namespaces_and_totals(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        self._populate(cache_dir)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert f"store: {cache_dir}" in out
        assert "schedule:" in out
        assert "mii:" in out
        assert "total:" in out

    def test_clear_removes_every_entry(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        self._populate(cache_dir)
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "cleared" in capsys.readouterr().out
        assert not list(cache_dir.rglob("*.pkl"))
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "total: 0 entries" in capsys.readouterr().out

    def test_env_default_directory(self, tmp_path, capsys, monkeypatch):
        cache_dir = tmp_path / "env-cache"
        self._populate(cache_dir)
        capsys.readouterr()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert main(["cache", "stats"]) == 0
        assert f"store: {cache_dir}" in capsys.readouterr().out

    def test_missing_directory_is_a_clean_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit, match="no cache directory"):
            main(["cache", "stats"])

    def test_nonexistent_directory_is_not_created(self, tmp_path):
        typo = tmp_path / "cachee"
        with pytest.raises(SystemExit, match="not an existing directory"):
            main(["cache", "clear", "--cache-dir", str(typo)])
        assert not typo.exists()

    def test_prune_evicts_down_to_the_cap(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        self._populate(cache_dir)
        before = sum(
            path.stat().st_size for path in cache_dir.rglob("*.pkl")
        )
        assert before > 512
        assert main([
            "cache", "prune", "--cache-dir", str(cache_dir),
            "--max-bytes", "512",
        ]) == 0
        assert "pruned" in capsys.readouterr().out
        total = sum(
            path.stat().st_size for path in cache_dir.rglob("*.pkl")
        )
        assert total <= 512

    def test_prune_dry_run_deletes_nothing(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        self._populate(cache_dir)
        entries = sorted(cache_dir.rglob("*.pkl"))
        assert sum(path.stat().st_size for path in entries) > 512
        assert main([
            "cache", "prune", "--cache-dir", str(cache_dir),
            "--max-bytes", "512", "--dry-run",
        ]) == 0
        out = capsys.readouterr().out
        assert "dry run" in out
        assert "would delete" in out
        assert sorted(cache_dir.rglob("*.pkl")) == entries

    def test_prune_under_cap_removes_nothing(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        self._populate(cache_dir)
        entries = sorted(cache_dir.rglob("*.pkl"))
        assert main([
            "cache", "prune", "--cache-dir", str(cache_dir),
        ]) == 0  # default cap is 512 MiB: nothing to do
        assert sorted(cache_dir.rglob("*.pkl")) == entries

    def test_prune_rejects_nonpositive_cap(self, tmp_path):
        cache_dir = tmp_path / "cache"
        self._populate(cache_dir)
        with pytest.raises(SystemExit, match="positive"):
            main([
                "cache", "prune", "--cache-dir", str(cache_dir),
                "--max-bytes", "0",
            ])


class TestServeAndConnect:
    def test_compile_connect_unreachable_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="--connect"):
            main([
                "compile", "-e", FIG2,
                "--connect", str(tmp_path / "nothing.sock"),
            ])

    def test_compile_connect_rejects_show(self, tmp_path):
        with pytest.raises(SystemExit, match="--show"):
            main([
                "compile", "-e", FIG2, "--show", "all",
                "--connect", str(tmp_path / "nothing.sock"),
            ])

    def test_compile_connect_rejects_cache_flags(self, tmp_path):
        with pytest.raises(SystemExit, match="cache"):
            main([
                "compile", "-e", FIG2,
                "--cache-dir", str(tmp_path / "cache"),
                "--connect", str(tmp_path / "nothing.sock"),
            ])

    def test_serve_rejects_bad_arguments(self):
        with pytest.raises(SystemExit, match="--jobs"):
            main(["serve", "--jobs", "0"])
        with pytest.raises(SystemExit, match="--http"):
            main(["serve", "--http", "70000"])

    def test_serve_stdio_round_trip(self, monkeypatch, capsys):
        import io
        import json
        import sys
        import types

        lines = (
            json.dumps({
                "op": "compile", "id": 1,
                "request": {"loop": FIG2, "machine": "generic:4:2",
                            "registers": 6, "strategy": "spill"},
            }) + "\n" + json.dumps({"op": "shutdown", "id": 2}) + "\n"
        ).encode()
        out = io.BytesIO()
        monkeypatch.setattr(
            sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(lines))
        )
        monkeypatch.setattr(
            sys, "stdout", types.SimpleNamespace(buffer=out)
        )
        assert main(["serve"]) == 0
        responses = [
            json.loads(line) for line in out.getvalue().splitlines()
        ]
        assert responses[0]["ok"] is True
        assert responses[0]["result"]["schema"] == "repro.compile/1"
        assert responses[0]["result"]["status"] == "ok"
        assert responses[1]["shutdown"] is True
