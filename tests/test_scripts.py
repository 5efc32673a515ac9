import csv
import json
import subprocess
import sys
from pathlib import Path

from chgsets.cli import CSV_COLUMNS, main
from chgsets.search import DEFAULT_N_LIMITS

SCRIPTS = Path(__file__).parents[1] / "scripts"


def run_script(name, *argv):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True, timeout=120)


def test_search_table_experiment(tmp_path, capsys):
    argv = ("--n-max", "10", "--h", "2", "--g", "2")
    table = tmp_path / "table.csv"
    proc = run_script("search_table_experiment.py", *argv, "--csv", str(table))
    assert proc.returncode == 0, proc.stderr
    with open(table, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS  # the CLI's `search --csv` columns
    assert len(rows) == 11

    cli_table = tmp_path / "cli.csv"
    assert main(["search", *argv, "--csv", str(cli_table)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert table.read_bytes() == cli_table.read_bytes()
    best = report["data"]["best_set"]
    assert f"largest window: best={len(best)}, set (1-based) = {best}" in proc.stdout


def test_search_table_experiment_parameter_error():
    # the CLI's one-line message and exit code, not a traceback
    proc = run_script("search_table_experiment.py", "--n-max", str(DEFAULT_N_LIMITS[2] + 1))
    assert proc.returncode == 4
    assert proc.stderr.startswith("parameter error:")
    assert "Traceback" not in proc.stderr


def test_weak_set_experiment():
    proc = run_script("weak_set_experiment.py", "--n", "20000", "--h", "2", "--g", "2",
                      "--seeds", "2")
    assert proc.returncode == 0, proc.stderr
    assert "2/2 seeds accepted" in proc.stdout


def test_src_lines(tmp_path):
    (tmp_path / "doc_only.py").write_text('"""A module docstring,\n\nover three lines."""\n')
    (tmp_path / "mixed.py").write_text(
        '"""Doc."""\n\n# a comment\nimport os\n\n\nclass A:\n    """Doc."""\n\n'
        '    def f(self):\n        """Doc\n        more."""\n        return (1,\n'
        '                2)  # trailing\n')
    proc = run_script("src_lines.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    header, *rows, total = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["module", "lines", "code"]
    counts = {name: (int(lines), int(code)) for name, lines, code in rows}
    assert counts == {"doc_only.py": (3, 0), "mixed.py": (14, 5)}
    assert total[0] == "total"
    assert [int(x) for x in total[1:]] == [sum(c[i] for c in counts.values()) for i in (0, 1)]
