"""Unit tests for the interactive shell."""

import io

import pytest

from repro.cli import Shell, format_table, main, split_statements
from repro.core.tango import Tango
from repro.dbms.database import MiniDB


@pytest.fixture
def shell():
    db = MiniDB()
    db.execute("CREATE TABLE T (K INT, Name VARCHAR(8))")
    db.execute("INSERT INTO T VALUES (1, 'a'), (2, 'b')")
    out = io.StringIO()
    return Shell(Tango(db), out=out), out


class TestFormatTable:
    def test_alignment(self):
        text = format_table(("K", "Name"), [(1, "alpha"), (22, "b")])
        lines = text.splitlines()
        assert lines[0].startswith("K ")
        assert "(2 rows)" in lines[-1]

    def test_truncation(self):
        text = format_table(("K",), [(i,) for i in range(100)], limit=5)
        assert "... 95 more rows" in text
        assert "(100 rows)" in text

    def test_singular_row(self):
        assert "(1 row)" in format_table(("K",), [(1,)])


class TestSplitStatements:
    def test_basic(self):
        assert split_statements("A; B; C") == ["A", "B", "C"]

    def test_semicolon_inside_string_kept(self):
        statements = split_statements("INSERT INTO T VALUES (1, 'a;b'); SELECT 1 FROM T")
        assert len(statements) == 2
        assert "a;b" in statements[0]

    def test_trailing_statement_without_semicolon(self):
        assert split_statements("SELECT 1 FROM T") == ["SELECT 1 FROM T"]

    def test_empty_segments_dropped(self):
        assert split_statements(";;  ;") == []


class TestShell:
    def test_select_prints_table(self, shell):
        sh, out = shell
        sh.run_line("SELECT K FROM T ORDER BY K;")
        text = out.getvalue()
        assert "(2 rows)" in text

    def test_temporal_statement_reports_optimizer(self, shell):
        sh, out = shell
        sh.tango.db.execute("CREATE TABLE P (K INT, T1 DATE, T2 DATE)")
        sh.tango.db.execute("INSERT INTO P VALUES (1, 0, 5)")
        sh.run_line("VALIDTIME SELECT K, COUNT(K) FROM P GROUP BY K;")
        assert "optimizer:" in out.getvalue()

    def test_error_reported_not_raised(self, shell):
        sh, out = shell
        sh.run_line("SELECT Bogus FROM T;")
        assert "error:" in out.getvalue()

    def test_ddl_prints_ok(self, shell):
        sh, out = shell
        sh.run_line("CREATE TABLE U (X INT);")
        assert "ok" in out.getvalue()

    def test_tables_meta(self, shell):
        sh, out = shell
        sh.run_line("\\tables")
        assert "T" in out.getvalue()
        assert "2 rows" in out.getvalue()

    def test_quit_returns_false(self, shell):
        sh, _ = shell
        assert sh.run_line("\\q") is False

    def test_unknown_meta(self, shell):
        sh, out = shell
        sh.run_line("\\frobnicate")
        assert "unknown command" in out.getvalue()

    def test_timing_toggle(self, shell):
        sh, out = shell
        sh.run_line("\\timing off")
        sh.run_line("SELECT K FROM T;")
        assert "time:" not in out.getvalue().split("timing off")[-1]

    def test_explain_meta(self, shell):
        sh, out = shell
        sh.tango.db.execute("CREATE TABLE P (K INT, T1 DATE, T2 DATE)")
        sh.tango.db.execute("INSERT INTO P VALUES (1, 0, 5)")
        sh.run_line("\\explain VALIDTIME SELECT K, COUNT(K) FROM P GROUP BY K")
        assert "cost breakdown" in out.getvalue()

    def test_plan_meta(self, shell):
        sh, out = shell
        sh.tango.db.execute("CREATE TABLE P (K INT, T1 DATE, T2 DATE)")
        sh.tango.db.execute("INSERT INTO P VALUES (1, 0, 5)")
        sh.run_line("\\plan VALIDTIME SELECT K, COUNT(K) FROM P GROUP BY K")
        assert "TRANSFER^M" in out.getvalue()

    def test_analyze_meta(self, shell):
        sh, out = shell
        sh.run_line("\\analyze")
        assert "analyzed" in out.getvalue()
        assert sh.tango.db.statistics_of("T") is not None

    def test_metrics_meta_reports_the_statement_and_kernel_caches(self, shell):
        sh, out = shell
        # The second run is the plan cache's hit; its T^M's SELECT, the
        # prepared plans'.
        sh.run_line("CREATE TABLE P (K INT, T1 DATE, T2 DATE);")
        sh.run_line("INSERT INTO P VALUES (1, 2, 20);")
        for _ in range(2):
            sh.run_line("VALIDTIME SELECT K, COUNT(K) FROM P GROUP BY K;")
        sh.run_line("\\metrics")
        text = out.getvalue()
        # One line per cache, the statement cache being the prepared plans.
        caches = [row.split()[0] for row in text.splitlines() if "size=" in row]
        assert caches == ["plan_cache", "shape_cache", "prepared_plans", "kernel_code_cache"]
        line = next(row for row in text.splitlines() if "plan_cache (planner)" in row)
        assert "hits=1" in line and "misses=1" in line and "size=1/64" in line
        assert "statement_cache" not in text

    def test_metrics_meta_reports_the_prepared_plans(self, shell):
        sh, out = shell
        sh.run_line("CREATE TABLE P (K INT, T1 DATE, T2 DATE);")
        sh.run_line("INSERT INTO P VALUES (1, 2, 20);")
        for _ in range(2):
            sh.run_line("VALIDTIME SELECT K, COUNT(K) FROM P GROUP BY K;")
        sh.run_line("\\metrics")
        text = out.getvalue()
        assert "dbms_prepared_hits" in text and "dbms_prepared_misses" in text
        line = next(row for row in text.splitlines() if "prepared_plans (database)" in row)
        assert "hits=1" in line and "misses=1" in line and "/64" in line

    def test_empty_line_is_noop(self, shell):
        sh, out = shell
        assert sh.run_line("   ;") is True
        assert out.getvalue() == ""


class TestMainArguments:
    def test_unknown_flag_is_refused_not_taken_for_a_script(self, capsys):
        # `--columnar` was a real flag once; a stale one must not be
        # silently swallowed as a script path.
        assert main(["--columnar", "python"]) == 2
        captured = capsys.readouterr()
        assert "unknown option --columnar" in captured.err
        assert "python -m repro --workers 4" in captured.err  # the usage block
        assert captured.out == ""

    def test_positional_argument_is_still_a_script_path(self, tmp_path):
        script = tmp_path / "setup.sql"
        script.write_text("CREATE TABLE T (K INT); SELECT K FROM T;")
        assert main([str(script)]) == 0
        with pytest.raises(FileNotFoundError):
            main([str(tmp_path / "missing.sql")])
