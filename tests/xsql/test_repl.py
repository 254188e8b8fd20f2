"""Tests for the interactive shell (driven over in-memory streams)."""

import io
import subprocess
import sys

import pytest

from repro.xsql.repl import run_repl
from repro.xsql.session import Session
from tests.conftest import make_paper_session


def drive(script: str) -> str:
    session = make_paper_session()
    out = io.StringIO()
    run_repl(session, stdin=io.StringIO(script), stdout=out)
    return out.getvalue()


class TestStatements:
    def test_query_prints_table(self):
        output = drive("SELECT X FROM Company X;\n")
        assert "uniSQL" in output and "acme" in output

    def test_multiline_statement(self):
        output = drive(
            "SELECT X\nFROM Employee X\nWHERE X.Salary > 200000;\n"
        )
        assert "pat" in output and "maria" in output

    def test_several_statements_one_line(self):
        output = drive(
            "SELECT X FROM Motorbike X; SELECT X FROM Bicycle X;\n"
        )
        assert "moto1" in output

    def test_error_reported_session_survives(self):
        output = drive("SELECT FROM;\nSELECT X FROM Company X;\n")
        assert "error:" in output
        assert "uniSQL" in output

    def test_ddl_status(self):
        output = drive("CREATE CLASS Robot;\n")
        assert "Robot" in output


class TestMetaCommands:
    def test_help(self):
        assert ".schema" in drive(".help\n")

    def test_schema_listing(self):
        output = drive(".schema\n")
        assert "Employee :: Person" in output
        assert "FamMembers" in output

    def test_describe(self):
        output = drive(".describe mary123\n")
        assert "Residence" in output

    def test_explain(self):
        output = drive(
            ".explain SELECT X FROM Vehicle X WHERE X.Manufacturer[M] "
            "and M.President.OwnedVehicles[X]\n"
        )
        assert "typing: strict" in output

    def test_explain_analyze(self):
        output = drive(
            ".explain analyze SELECT X FROM Vehicle X "
            "WHERE X.Manufacturer[M] and M.President.OwnedVehicles[X]\n"
        )
        assert "physical operators:" in output
        assert "act=" in output and "time=" in output

    def test_naive(self):
        output = drive(".naive SELECT mary123.Residence.City\n")
        assert "newyork" in output

    def test_indexes_meta_command(self):
        output = drive(".indexes\n.indexes +Name\n.indexes -Name\n")
        assert "indexes: (none)" in output
        assert "indexes: Name" in output
        assert output.rstrip().endswith("indexes: (none)")

    def test_views_meta_command(self):
        view = (
            "CREATE VIEW CompCard AS SUBCLASS OF Object "
            "SIGNATURE CName = String "
            "SELECT CName = C.Name FROM Company C OID FUNCTION OF C;"
        )
        update = (
            "SELECT X FROM Company X WHERE X.Name['Acme'] "
            "and UPDATE CLASS Company SET X.Name = 'Renamed';"
        )
        output = drive(
            ".views\n"
            f"{view}\n.views\n"
            f"{update}\n.views\n"
            "SELECT V.CName FROM CompCard V;\n.views\n"
        )
        assert "views: (none)" in output
        assert "CompCard: fresh objects=2" in output
        assert "CompCard: delta-pending objects=2 pending_groups=1" in output
        # Querying through the view triggers the lazy targeted sync.
        assert "'Renamed'" in output
        assert "last=targeted/1 group(s)" in output

    def test_quit_stops(self):
        output = drive(".quit\nSELECT X FROM Company X;\n")
        assert "uniSQL" not in output

    def test_unknown_meta(self):
        assert "unknown meta-command" in drive(".frobnicate\n")

    def test_save_and_load(self, tmp_path):
        """Saving is ``.checkpoint`` on an ``.open``-ed database; loading
        is ``.open`` of the same path from a fresh session."""
        path = tmp_path / "db"
        saved, loaded = make_paper_session(), Session()
        scripts = (
            (
                saved,
                f".open {path}\n"
                "UPDATE CLASS Division SET d_eng.Function = 'changed';\n"
                ".checkpoint\n"
                ".storage\n",
            ),
            # Empty session: every fact read back comes from PATH.
            (loaded, f".open {path}\nSELECT d_eng.Function;\n"),
        )
        outputs = []
        for session, script in scripts:
            out = io.StringIO()
            run_repl(session, stdin=io.StringIO(script), stdout=out)
            session.close()
            outputs.append(out.getvalue())
        assert "checkpoint at lsn=" in outputs[0]
        # The last line is the .storage status, printed after the
        # checkpoint.
        last = outputs[0].rstrip().splitlines()[-1]
        assert last.startswith(f"storage: backend=log  path={path}  ")
        assert "'changed'" in outputs[1]


class TestProcessEntryPoint:
    def test_module_runs_with_paper_flag(self, child_env):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.xsql.repl", "--paper"],
            input="SELECT mary123.Residence.City;\n.quit\n",
            capture_output=True,
            text=True,
            timeout=300,
            env=child_env,
        )
        assert completed.returncode == 0
        assert "newyork" in completed.stdout


class TestVersionMetaCommands:
    def test_version_line(self):
        output = drive(".version\n")
        assert "version: v" in output
        assert "pins=0" in output

    def test_snapshot_runs_query_at_pinned_version(self):
        output = drive(".snapshot SELECT X FROM Company X\n")
        assert "snapshot pinned at v" in output
        assert "uniSQL" in output

    def test_snapshot_without_query_prints_usage(self):
        output = drive(".snapshot\n")
        assert "usage: .snapshot" in output

    def test_snapshot_releases_its_pin(self):
        output = drive(".snapshot SELECT X FROM Company X\n.version\n")
        assert "pins=0" in output
