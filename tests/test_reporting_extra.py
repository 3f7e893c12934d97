"""Additional coverage for reporting, metrics assembly and the result
dataclasses' derived fields."""

import pytest

from repro.eval.metrics import LoopOutcome
from repro.eval.reporting import format_table
from repro.graph import ddg_from_source
from repro.machine import p2l4
from repro.sched import HRMSScheduler


class TestFormatTableEdges:
    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text
        assert len(text.splitlines()) == 2  # header + rule

    def test_column_width_follows_content(self):
        text = format_table(["x"], [["a-very-long-cell-value"]])
        header, rule, row = text.splitlines()
        assert len(rule) == len("a-very-long-cell-value")

    def test_float_formats(self):
        text = format_table(["v"], [[0.0], [3.14159], [12345.6]])
        assert "0" in text
        assert "3.14" in text
        assert "12,346" in text

    def test_mixed_alignment(self):
        text = format_table(["name", "n"], [["left", 12]])
        row = text.splitlines()[-1]
        assert row.startswith("left")
        assert row.rstrip().endswith("12")


class TestLoopOutcome:
    def test_from_schedule_derives_fields(self):
        ddg = ddg_from_source("z[i] = x[i]*a", name="t")
        machine = p2l4()
        schedule = HRMSScheduler().schedule(ddg, machine)
        outcome = LoopOutcome.from_schedule(
            "t", weight=100, schedule=schedule, ddg=ddg, registers=5
        )
        assert outcome.cycles == schedule.cycles_for(100)
        assert outcome.traffic == 2 * 100  # load + store per iteration
        assert outcome.memory_ops == 2
        assert outcome.ii == schedule.ii
        assert outcome.converged


class TestSpillTraceRow:
    def test_row_fields(self, fig2_loop, fig2_machine):
        from repro.api import compile_loop

        result = compile_loop(
            fig2_loop, fig2_machine, strategy="spill", registers=6
        )
        first = result.trace[0]
        assert list(first) == [
            "ii", "mii", "registers", "max_live", "memory_ops", "spilled",
        ]
        assert first["ii"] >= first["mii"]
        assert first["spilled"] == ["Ld_y"]


class TestResultRenderers:
    def test_table1_render_contains_rows(self):
        from repro.eval.experiments import Table1Result

        result = Table1Result(suite_size=10)
        result.rows.append(("P2L4", 32, 2, 25.0))
        text = result.render()
        assert "P2L4" in text
        assert "25.00" in text

    def test_fig4_render_notes_nonconvergence(self):
        from repro.eval.experiments import Fig4Result

        result = Fig4Result()
        result.trails["loop"] = [(5, 40), (6, 38)]
        result.converged["loop"] = {32: 6, 16: None}
        text = result.render()
        assert "never converges" in text
        assert "II=6" in text

    def test_fig8_render_lists_variants(self):
        from repro.eval.experiments import Fig8Result

        result = Fig8Result(suite_size=3)
        result.rows.append(dict(
            config="P1L4", budget=32, variant="Max(LT)", cycles=10,
            traffic=20, attempts=1, placements=2, seconds=0.1, failed=0,
        ))
        assert "Max(LT)" in result.render()
