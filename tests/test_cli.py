"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tables_defaults(self):
        args = build_parser().parse_args(["tables"])
        assert args.schemes == ["MDEH", "MEHTree", "BMEHTree"]
        assert args.table is None

    def test_stats_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--scheme", "btree"])


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "BMEHTree" in out
        assert "invariants: OK" in out

    def test_stats_bmeh(self, capsys):
        assert main(["stats", "--scheme", "bmeh", "--n", "1500"]) == 0
        out = capsys.readouterr().out
        assert "region depth histogram" in out
        assert "per-level directory profile" in out

    def test_stats_gridfile(self, capsys):
        assert main(["stats", "--scheme", "gridfile", "--n", "1200"]) == 0
        out = capsys.readouterr().out
        assert "GridFile" in out
        assert "per-level" not in out  # flat scheme: no tree profile

    def test_tables_small(self, capsys):
        code = main(
            ["tables", "--table", "2", "--n", "1500", "--schemes", "BMEHTree"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "measured/paper" in out

    def test_figures_small(self, capsys):
        code = main(
            ["figures", "--figure", "6", "--n", "1500",
             "--schemes", "BMEHTree"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig6" in out
        assert "BMEHTree" in out

    def test_analyze_repo_is_clean(self, capsys):
        assert main(["analyze"]) == 0
        assert "analyze: OK" in capsys.readouterr().out

    def test_analyze_flags_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(x=[]):\n    return x == 1.5\n")
        assert main(["analyze", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REP102" in out
        assert "REP103" in out

    def test_lint_is_not_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint"])

    def test_check_small(self, capsys):
        assert main(["check", "--n", "60", "--skip-lint"]) == 0
        out = capsys.readouterr().out
        for name in ("mdeh", "meh", "bmeh", "gridfile", "kdb"):
            assert f"{name}: OK" in out
