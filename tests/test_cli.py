import csv
import gc
import importlib.util
import json
import os
import re
import runpy
import subprocess
import sys
import tomllib
from functools import partial
from pathlib import Path

import pytest

from chgsets import cli, norm_set, read_set, write_set
from chgsets.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).parents[1]


def parsed(out):
    """A run's stdout: the parsed report, other text as is, or None."""
    return json.loads(out) if out.startswith("{") else out or None


def run_cli(capsys, *argv):
    """Exit code, stdout (``parsed``) and stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # --help and usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, parsed(out.out), out.err


def run_module(cwd, *argv):
    """``python -m chgsets argv`` in a fresh interpreter, run in ``cwd``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "chgsets", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=30)


def strip_volatile(report):
    report = dict(report)
    report.pop("elapsed_ms")
    report.pop("versions")
    return report


class TestConstructCommands:
    def test_sphere(self, capsys):
        code, report, _ = run_cli(capsys, "construct", "sphere", "--p", "5")
        assert code == 0
        assert report["set_size"] == 20
        assert report["group"] == "product:5^3"
        assert report["verdict"]["holds"] is True
        assert report["schema"] == 1

    def test_sphere_embedded(self, capsys, tmp_path):
        out = tmp_path / "emb.txt"
        code, report, _ = run_cli(
            capsys, "construct", "sphere", "--embed", "500", "--out", str(out)
        )
        assert code == 0
        assert report["group"] == "interval:500"
        assert report["set_size"] >= 20
        assert out.exists()

    def test_sphere_embed_with_explicit_prime(self, capsys):
        code, report, _ = run_cli(
            capsys, "construct", "sphere", "--p", "3", "--embed", "200"
        )
        assert code == 0
        assert report["group"] == "interval:200"
        assert report["set_size"] == 6

    def test_sphere_embed_too_small(self, capsys):
        code, _, err = run_cli(capsys, "construct", "sphere", "--p", "5", "--embed", "100")
        assert code == 4
        assert "parameter error" in err

    def test_norm(self, capsys):
        code, report, _ = run_cli(capsys, "construct", "norm", "--q", "3", "--h", "2")
        assert code == 0
        assert report["set_size"] == 4
        assert report["params"]["g"] == 3
        assert report["verdict"]["holds"] is True

    def test_norm_embedded(self, capsys):
        code, report, _ = run_cli(
            capsys, "construct", "norm", "--q", "3", "--h", "2", "--embed"
        )
        assert code == 0
        assert report["group"] == "interval:18"
        assert report["verdict"]["holds"] is True

    def test_weak(self, capsys, tmp_path):
        out = tmp_path / "weak.txt"
        code, report, _ = run_cli(
            capsys, "construct", "weak", "--n", "20000", "--h", "2", "--g", "2",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        assert report["seed"] == 7
        assert report["attempts"] >= 1
        assert report["verdict"]["holds"] is True
        sizes = report["data"]
        assert sizes["result_size"] == report["set_size"]

    @pytest.mark.parametrize("cap, code", [("100000000000", 0), ("1", 3)])
    def test_weak_self_check_reads_subset_cap(self, capsys, cap, code):
        # C(|A|, 4) = 2,314,947,195 subsets: over the default cap, under the large one
        got, report, err = run_cli(
            capsys, "construct", "weak", "--n", "100000", "--h", "4", "--g", "4",
            "--seed", "1", "--subset-cap", cap,
        )
        assert got == code
        if code == 0:
            assert report["verdict"] == {"holds": True}
        else:
            assert report is None
            assert "resource cap exceeded" in err

    @pytest.mark.parametrize("cap, code", [(None, 3), ("1", 3), ("0", 4)])
    def test_weak_cap_met_before_the_sample_is_drawn(self, capsys, cap, code):
        # a full sample of n = 10^21 is about 5·10^6 elements
        got, report, err = run_cli(
            capsys, "construct", "weak", "--n", str(10**21), "--h", "2", "--g", "2", "--seed", "1",
            *(("--subset-cap", cap) if cap else ()),
        )
        assert (got, report) == (code, None)
        assert err.startswith("resource cap exceeded: at least" if code == 3 else "parameter error:")

    def test_weak_verifies_once(self, capsys, monkeypatch):
        import chgsets.cli
        import chgsets.constructions

        real = chgsets.cli.verify_weak_chg
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (chgsets.cli, chgsets.constructions):
            monkeypatch.setattr(module, "verify_weak_chg", spy)
        code, _, _ = run_cli(
            capsys, "construct", "weak", "--n", "20000", "--h", "2", "--g", "2", "--seed", "7",
        )
        assert code == 0
        assert len(calls) == 1

    def test_weak_exhaustion_exits_five(self, capsys):
        from chgsets import RetryExhaustedError, weak_random_set

        failing_seed = None
        for seed in range(200):
            try:
                weak_random_set(300, 2, 2, seed=seed, max_attempts=1)
            except RetryExhaustedError:
                failing_seed = seed
                break
        if failing_seed is None:
            pytest.skip("no failing seed found in range")
        code, report, err = run_cli(
            capsys, "construct", "weak", "--n", "300", "--h", "2", "--g", "2",
            "--seed", str(failing_seed), "--max-attempts", "1",
        )
        assert code == 5
        assert report is None
        assert "attempt 1" in err


class TestVerifyCommand:
    def test_failing_set_exits_two(self, capsys):
        code, report, _ = run_cli(
            capsys, "verify", "--set", str(FIXTURES / "ap5.txt"), "--h", "2", "--g", "2"
        )
        assert code == 2
        assert report["verdict"]["holds"] is False
        witness = report["verdict"]["witness"]
        assert witness["pattern"] == [0, 1]
        assert witness["bases"] == [1, 2]  # 1-based window values

    def test_cyclic_witness_bases_unshifted(self, capsys, tmp_path):
        path = tmp_path / "ap4.txt"
        path.write_text("# group=cyclic:7\n0\n1\n2\n3\n")
        code, report, _ = run_cli(capsys, "verify", "--set", str(path), "--h", "2", "--g", "2")
        assert code == 2
        witness = report["verdict"]["witness"]
        assert witness["pattern"] == [0, 1]
        assert witness["bases"] == [0, 1]  # group elements, not shifted to 1-based

    def test_weak_flag(self, capsys):
        code, report, _ = run_cli(
            capsys, "verify", "--set", str(FIXTURES / "ap5.txt"),
            "--h", "2", "--g", "2", "--weak",
        )
        assert code == 2
        assert report["params"]["weak"] is True

    def test_passing_set(self, capsys, tmp_path):
        path = tmp_path / "sidon.txt"
        path.write_text("# group=interval:12\n1\n2\n5\n11\n")
        code, report, _ = run_cli(
            capsys, "verify", "--set", str(path), "--h", "2", "--g", "2"
        )
        assert code == 0
        assert report["verdict"]["holds"] is True

    def test_round_trip_constructed_set(self, capsys, tmp_path):
        out = tmp_path / "norm.txt"
        code, _, _ = run_cli(
            capsys, "construct", "norm", "--q", "3", "--h", "2",
            "--embed", "--out", str(out),
        )
        assert code == 0
        code, report, _ = run_cli(
            capsys, "verify", "--set", str(out), "--h", "2", "--g", "3"
        )
        assert code == 0
        assert report["verdict"]["holds"] is True

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--set", "no-such.txt", "--h", "2", "--g", "2")
        assert code == 4

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"# group=interval:12\n# caf\xe9\n1\n2\n")
        code, report, err = run_cli(capsys, "verify", "--set", str(path), "--h", "2", "--g", "2")
        assert code == 4
        assert report is None
        assert "parameter error" in err and "Traceback" not in err

    def test_byte_order_mark_file(self, capsys, tmp_path):
        # a Windows editor may write a UTF-8 byte-order mark before the header
        text = b"# group=cyclic:7\n0\n1\n2\n3\n"
        runs, sets = [], []
        for name, data in (("plain.txt", text), ("bom.txt", b"\xef\xbb\xbf" + text)):
            path = tmp_path / name
            path.write_bytes(data)
            sets.append(read_set(path))
            code, report, err = run_cli(capsys, "verify", "--set", str(path), "--h", "2", "--g", "2")
            assert report is not None, err
            del report["params"]["set"]
            runs.append((code, strip_volatile(report)))
        assert sets[0] == sets[1] and runs[0] == runs[1]
        assert runs[0][0] == 2 and runs[0][1]["verdict"]["holds"] is False


class TestSearchCommand:
    def test_table_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "table.csv"
        code, report, _ = run_cli(
            capsys, "search", "--n-max", "8", "--h", "2", "--g", "2",
            "--csv", str(csv_path),
        )
        assert code == 0
        sizes = [row["best_size"] for row in report["data"]["table"]]
        assert sizes == [1, 2, 2, 3, 3, 3, 4, 4]
        assert all(row["nodes"] >= 0 for row in report["data"]["table"])
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "best_size", "optimal", "greedy_size",
                           "bound_group", "bound_main_term"]
        assert len(rows) == 9

    @pytest.mark.parametrize("node_cap", ["0", "-5"])
    def test_node_cap_below_one_exits_four(self, capsys, node_cap):
        code, report, err = run_cli(
            capsys, "search", "--n-max", "8", "--h", "2", "--g", "2", "--node-cap", node_cap
        )
        assert code == 4
        assert report is None
        assert "Traceback" not in err


class TestZMatrixCommand:
    def test_norm_matrix(self, capsys, tmp_path):
        set_path = tmp_path / "norm.txt"
        run_cli(capsys, "construct", "norm", "--q", "3", "--h", "2", "--out", str(set_path))
        pbm_path = tmp_path / "m.pbm"
        code, report, _ = run_cli(
            capsys, "zmatrix", "--set", str(set_path), "--g", "3", "--h", "2",
            "--pbm", str(pbm_path),
        )
        assert code == 0
        assert report["data"] == {
            "n": 9, "ones": 36, "row_sums_uniform": True,
            "g": 3, "h": 2, "kgh_free": True,
        }
        assert pbm_path.read_text().startswith("P1\n9 9\n")

    def test_column_cap_checked_before_build(self, capsys, monkeypatch, tmp_path):
        import chgsets.cli

        def build_zmatrix(*args, **kwargs):
            raise AssertionError("matrix built before the column cap was checked")

        monkeypatch.setattr(chgsets.cli, "build_zmatrix", build_zmatrix)
        path = tmp_path / "c343.txt"
        path.write_text("# group=cyclic:343\n0\n1\n3\n")
        code, report, err = run_cli(
            capsys, "zmatrix", "--set", str(path), "--g", "3", "--h", "3"
        )
        assert code == 3
        assert report is None
        assert "resource cap exceeded" in err

    def test_interval_set_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "zmatrix", "--set", str(FIXTURES / "ap5.txt"), "--g", "2", "--h", "2"
        )
        assert code == 4


class TestCapsBelowOne:
    COMMANDS = {
        "verify": ("verify", "--set", str(FIXTURES / "ap5.txt"), "--h", "2", "--g", "2",
                   "--subset-cap"),
        "verify-weak": ("verify", "--set", str(FIXTURES / "ap5.txt"), "--h", "2", "--g", "2",
                        "--weak", "--subset-cap"),
        "construct-weak": ("construct", "weak", "--n", "20000", "--h", "2", "--g", "2",
                           "--seed", "7", "--subset-cap"),
        "construct-sphere": ("construct", "sphere", "--p", "5", "--subset-cap"),
        "construct-norm": ("construct", "norm", "--q", "3", "--h", "2", "--subset-cap"),
        "zmatrix": ("zmatrix", "--set", "{norm}", "--g", "3", "--h", "2", "--subset-cap"),
        "zmatrix-order": ("zmatrix", "--set", "{norm}", "--g", "3", "--h", "2", "--order-cap"),
    }

    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exits_four_before_any_work(self, capsys, monkeypatch, tmp_path, command, cap):
        import chgsets.cli
        import chgsets.verify

        norm = tmp_path / "norm.txt"
        write_set(norm, norm_set(3, 2)[0])

        def work(*args, **kwargs):
            raise AssertionError("work started before the cap was checked")

        for module, name in [(chgsets.cli, "weak_random_set"), (chgsets.cli, "sphere_set"),
                             (chgsets.cli, "norm_set"), (chgsets.cli, "build_zmatrix"),
                             (chgsets.verify, "enumerate_pattern_classes")]:
            monkeypatch.setattr(module, name, work)
        argv = [a.format(norm=norm) for a in self.COMMANDS[command]] + [cap]
        code, report, err = run_cli(capsys, *argv)
        assert code == 4
        assert report is None
        assert "parameter error" in err and "must be >= 1" in err

    def test_cap_of_one_skips_auto_verify(self, capsys):
        code, report, _ = run_cli(capsys, "construct", "sphere", "--p", "5", "--subset-cap", "1")
        assert code == 0
        assert report["verdict"] is None


class TestBoundsCommand:
    def test_values(self, capsys):
        code, report, _ = run_cli(capsys, "bounds", "--n", "125", "--h", "3", "--g", "3")
        assert code == 0
        assert report["bounds"]["group"] == pytest.approx(43.0, abs=1e-9)

    def test_with_matrix_params(self, capsys):
        code, report, _ = run_cli(
            capsys, "bounds", "--n", "9", "--h", "2", "--g", "3",
            "--m", "9", "--s", "3", "--t", "2",
        )
        assert code == 0
        assert report["bounds"]["zarankiewicz"] == pytest.approx(63.0, abs=1e-9)

    def test_bad_params_exit_four(self, capsys):
        code, _, _ = run_cli(capsys, "bounds", "--n", "100", "--h", "3", "--g", "2")
        assert code == 4

    def test_partial_matrix_params_exit_four(self, capsys):
        code, report, err = run_cli(
            capsys, "bounds", "--n", "9", "--h", "2", "--g", "3", "--m", "9", "--s", "3",
        )
        assert code == 4
        assert report is None
        assert "matrix bound needs all of m, s, t" in err


BIG = str(10**400)


@pytest.mark.parametrize("argv", [
    ("bounds", "--n", BIG, "--h", "2", "--g", "2"),
    ("bounds", "--n", "100", "--h", "2", "--g", "2", "--m", BIG, "--s", "3", "--t", "2"),
    ("construct", "weak", "--n", BIG, "--h", "2", "--g", "2", "--seed", "1"),
    ("construct", "sphere", "--embed", BIG, "--subset-cap", "1"),
])
def test_integer_too_large_for_a_float_exits_four(capsys, argv):
    code, report, err = run_cli(capsys, *argv)
    assert code == 4
    assert report is None
    assert err.startswith("parameter error:")
    assert "Traceback" not in err


class TestDeterminism:
    def test_reports_identical_modulo_timing(self, capsys):
        _, r1, _ = run_cli(
            capsys, "construct", "weak", "--n", "20000", "--h", "2", "--g", "2",
            "--seed", "11",
        )
        _, r2, _ = run_cli(
            capsys, "construct", "weak", "--n", "20000", "--h", "2", "--g", "2",
            "--seed", "11",
        )
        assert strip_volatile(r1) == strip_volatile(r2)

    def test_search_deterministic(self, capsys):
        _, r1, _ = run_cli(capsys, "search", "--n-max", "10", "--h", "2", "--g", "2")
        _, r2, _ = run_cli(capsys, "search", "--n-max", "10", "--h", "2", "--g", "2")
        assert strip_volatile(r1) == strip_volatile(r2)


class TestTracedSites:
    def test_every_site_resolves(self):
        # the benchmark's traced run swaps these import sites for timing
        # wrappers; a site that a refactor drops breaks that run
        path = ROOT / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = tracing  # dataclasses look their module up
        try:
            spec.loader.exec_module(tracing)
        finally:
            del sys.modules[spec.name]
        for module, attr, name, _ in tracing.SITES:
            site = importlib.import_module(f"chgsets.{module}")
            home, _, func = name.partition(".")
            assert getattr(site, attr) is getattr(importlib.import_module(f"chgsets.{home}"), func)

    @pytest.mark.parametrize("name,argv", [
        ("norm_set", ("construct", "norm", "--q", "3", "--h", "2")),
        ("max_table", ("search", "--n-max", "4", "--h", "2", "--g", "2")),
        ("verify_chg", ("verify", "--set", str(FIXTURES / "ap5.txt"), "--h", "2", "--g", "2")),
    ])
    def test_handlers_call_the_swapped_name(self, capsys, monkeypatch, name, argv):
        # a name the handlers load on demand must not be re-bound over a
        # replacement, or the traced run stops timing it
        import chgsets.cli

        real = getattr(chgsets.cli, name)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(chgsets.cli, name, spy)
        code, _, _ = run_cli(capsys, *argv)
        assert code in (0, 2)
        assert calls


class TestTracedBenchmarkRun:
    @pytest.mark.parametrize("workload", ["verify-construct", "search-table"])
    def test_no_operation_fails(self, tmp_path, workload):
        # the traced run counts work from the arguments and results of the
        # wrapped sites (a list of classes, a verdict, a matrix); a site
        # that returns something else fails the operations that reach it
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "1"],
            cwd=tmp_path, capture_output=True, text=True, check=True, timeout=300,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["attempted"] > 0
        assert result["failed"] == 0


class TestHugeParameters:
    """Sizes are compared before anything is built from them, so huge h, g
    or n^e answer at once, with a report or a cap exit, never a traceback."""

    @pytest.mark.parametrize("argv, expected", [
        ("bounds --n 100000 --h 2 --g 10000000", 0),
        ("construct weak --n 100000 --h 2 --g 10000000 --seed 1", 0),
        ("construct weak --n 100000 --h 200000 --g 200000 --seed 1", 0),
        ("construct norm --q 3 --h 10000000", 3),
        ("construct norm --q 3 --h 100000000", 3),
        ("search --n-max 3 --h 1000000 --g 1000000", 0),
        ("search --n-max 3 --h 10000000 --g 10000000", 0),
        ("search --n-max 3 --h 100000000 --g 100000000", 0),
        ("search --n-max 5 --h 2 --g 10000000", 0),
        ("search --n-max 5 --h 3 --g 10000000", 0),
    ])
    def test_exit_without_traceback(self, tmp_path, argv, expected):
        proc = run_module(tmp_path, *argv.split())
        assert proc.returncode == expected, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_weak_verify_past_the_recursion_limit(self, tmp_path):
        # g = 1000 disjoint translates are picked by a loop, not g nested calls
        lines = ["# group=interval:2100", *map(str, range(1, 2101))]
        (tmp_path / "all.txt").write_text("\n".join(lines) + "\n")
        proc = run_module(tmp_path, "verify", "--set", "all.txt", "--h", "2", "--g", "1000",
                          "--weak")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        witness = json.loads(proc.stdout)["verdict"]["witness"]
        assert witness["pattern"] == [0, 1]
        assert witness["bases"] == list(range(1, 2000, 2))

    def test_zmatrix_past_the_recursion_limit(self, tmp_path):
        # the sum-matrix check reads the class kernel: its h = 1099 levels
        # are a loop over a stack, not h nested calls, and at g = 1099 of
        # 1100 offsets each node counts the rows that miss a bit
        lines = ["# group=cyclic:1100", *map(str, range(1100))]
        (tmp_path / "all.txt").write_text("\n".join(lines) + "\n")
        proc = run_module(tmp_path, "zmatrix", "--set", "all.txt", "--g", "1099", "--h", "1099",
                          "--order-cap", "2000")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        witness = json.loads(proc.stdout)["verdict"]["witness"]
        assert witness["pattern"] == witness["bases"] == list(range(1099))

    def test_verify_at_a_threshold_close_to_the_size(self, tmp_path):
        # g = 1099 of 1100 offsets: counting the rows that hold a bit would
        # take 1099 counters a node, counting those that miss it takes two
        lines = ["# group=cyclic:1100", *map(str, range(1100))]
        (tmp_path / "all.txt").write_text("\n".join(lines) + "\n")
        proc = run_module(tmp_path, "verify", "--set", "all.txt", "--h", "1099", "--g", "1099")
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        witness = json.loads(proc.stdout)["verdict"]["witness"]
        assert witness["pattern"] == witness["bases"] == list(range(1099))


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("verify", "--set", str(FIXTURES / "ap5.txt"), "--h", "two", "--g", "2"),
        ("verify", "--set", str(FIXTURES / "ap5.txt"), "--h", "2"),
        ("search", "--n-max", "5", "--h", "2", "--g", "2", "--subset-cap", "0"),
        ("bounds", "--n", "100", "--h", "2", "--g", "2", "--subset-cap", "5"),
        ("frobnicate",),
        (),
    ])
    def test_exit_four_with_usage_on_stderr(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 4
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("usage: chgsets")
        assert "error:" in out.err

    @pytest.mark.parametrize("argv", [("--help",), ("verify", "--help")])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: chgsets")


class TestLazyLoading:
    # runs one command in a fresh interpreter and lists the modules it loaded
    SCRIPT = (
        "import contextlib, io, json, sys\n"
        "startup = set(sys.modules)\n"
        "from chgsets.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        code = main(sys.argv[1:])\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(json.dumps([code, sorted(set(sys.modules) - startup)]))\n"
    )
    UNUSED = ("chgsets.bounds", "chgsets.constructions", "chgsets.fields", "chgsets.search",
              "csv", "dataclasses")

    SET_MODULES = ("chgsets.groups", "chgsets.setio", "chgsets.verify")

    def loaded_by(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, *argv],
                              env=env, capture_output=True, text=True, check=True, timeout=60)
        return json.loads(proc.stdout)

    @pytest.mark.parametrize("argv", [("--help",), ("bounds", "--n", "100", "--h", "2", "--g", "2")])
    def test_help_and_bounds_load_no_set_modules(self, argv):
        code, loaded = self.loaded_by(argv)
        assert code == 0
        unused = set(self.SET_MODULES + self.UNUSED) - {"chgsets.bounds"}
        assert not unused & set(loaded)

    @pytest.mark.parametrize("argv,expected", [
        (("verify", "--set", str(FIXTURES / "ap5.txt"), "--h", "2", "--g", "2"), 2),
        (("verify", "--set", str(FIXTURES / "ap5.txt"), "--h", "3", "--g", "3", "--weak"), 0),
        (("zmatrix", "--set", "{norm}", "--g", "3", "--h", "2"), 0),
    ])
    def test_verify_and_zmatrix_load_only_what_they_run(self, tmp_path, argv, expected):
        norm = tmp_path / "norm.txt"
        write_set(norm, norm_set(3, 2)[0])
        code, loaded = self.loaded_by([a.format(norm=norm) for a in argv])
        assert code == expected
        assert set(self.SET_MODULES) <= set(loaded)
        assert not set(self.UNUSED) & set(loaded)

    def test_every_export_imports_from_the_package(self):
        import chgsets

        namespace = {}
        exec("from chgsets import *", namespace)
        for name in chgsets.__all__:
            assert namespace[name] is getattr(chgsets, name)
        assert sorted(dir(chgsets)) == sorted(chgsets.__all__)
        with pytest.raises(AttributeError):
            chgsets.no_such_name

    def test_readme_library_section_runs(self):
        # every name the README's Library section uses imports from chgsets
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
        example = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(example, "README.md", "exec"), {})

    def test_readme_cli_block_runs(self, tmp_path):
        # the block's commands in order, without [optional] parts and # comments
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        block = section.split("```\n", 1)[1].split("```", 1)[0]
        for line in block.splitlines():
            command, *argv = re.sub(r"\[[^]]*\]", "", line.split("#", 1)[0]).split()
            assert command == "chgsets"
            proc = run_module(tmp_path, *argv)
            assert proc.returncode == 0, (line, proc.stderr)


# One invocation per handler branch and exit code.  The input files of
# golden_inputs() are recorded with the reports and written into the working
# directory first; outputs are relative paths, so no report or message names
# a temporary directory.
GOLDEN_ARGV = [
    ("construct", "sphere", "--p", "5"),
    ("construct", "sphere", "--p", "7", "--out", "s7.txt"),
    ("construct", "sphere", "--embed", "1000", "--out", "e1000.txt"),
    ("construct", "sphere", "--p", "3", "--embed", "200"),
    ("construct", "sphere", "--p", "3", "--embed", "100"),
    ("construct", "sphere"),
    ("construct", "sphere", "--p", "5", "--subset-cap", "1"),
    ("construct", "sphere", "--p", "5", "--subset-cap", "0"),
    ("construct", "sphere", "--p", "4"),
    ("construct", "sphere", "--p", "103"),
    ("construct", "sphere", "--p", "5", "--out", "no-dir/s5.txt"),
    ("construct", "norm", "--q", "3", "--h", "2"),
    ("construct", "norm", "--q", "3", "--h", "2", "--embed", "--out", "n32e.txt"),
    ("construct", "norm", "--q", "3", "--h", "3", "--out", "n33.txt"),
    ("construct", "norm", "--q", "2", "--h", "4", "--embed"),
    ("construct", "norm", "--q", "3", "--h", "2", "--subset-cap", "1"),
    ("construct", "norm", "--q", "17", "--h", "3"),
    ("construct", "norm", "--q", "4", "--h", "2"),
    ("construct", "norm", "--q", "3", "--h", "1"),
    ("construct", "weak", "--n", "20000", "--h", "2", "--g", "2", "--seed", "7",
     "--out", "w.txt"),
    ("construct", "weak", "--n", "10000", "--h", "3", "--g", "3", "--seed", "3"),
    ("construct", "weak", "--n", "300", "--h", "2", "--g", "2", "--seed", "5",
     "--max-attempts", "1"),
    ("construct", "weak", "--n", "2000", "--h", "2", "--g", "2", "--seed", "5",
     "--max-attempts", "1", "--subset-cap", "1"),
    ("construct", "weak", "--n", "100000", "--h", "4", "--g", "4", "--seed", "1",
     "--subset-cap", "1"),
    ("construct", "weak", "--n", "20000", "--h", "2", "--g", "2", "--seed", "7",
     "--max-attempts", "0"),
    ("construct", "weak", "--n", "20000", "--h", "1", "--g", "2", "--seed", "1"),
    ("construct", "weak", "--n", "20000", "--h", "2", "--g", "2", "--seed", "7",
     "--subset-cap", "-5"),
    ("verify", "--set", "ap5.txt", "--h", "2", "--g", "2"),
    ("verify", "--set", "ap5.txt", "--h", "3", "--g", "3", "--weak"),
    ("verify", "--set", "ap5.txt", "--h", "2", "--g", "2", "--weak"),
    ("verify", "--set", "sphere5.txt", "--h", "3", "--g", "3"),
    ("verify", "--set", "sphere5.txt", "--h", "2", "--g", "2"),
    ("verify", "--set", "emb1000.txt", "--h", "3", "--g", "3"),
    ("verify", "--set", "norm33.txt", "--h", "3", "--g", "3", "--weak"),
    ("verify", "--set", "ap5.txt", "--h", "2", "--g", "2", "--subset-cap", "1"),
    ("verify", "--set", "missing.txt", "--h", "2", "--g", "2"),
    ("verify", "--set", "latin1.txt", "--h", "2", "--g", "2"),
    ("verify", "--set", "ap5.txt", "--h", "3", "--g", "2"),
    ("search", "--n-max", "10", "--h", "2", "--g", "2", "--csv", "t.csv"),
    ("search", "--n-max", "8", "--h", "3", "--g", "3"),
    ("search", "--n-max", "20", "--h", "2", "--g", "2", "--node-cap", "5"),
    ("search", "--n-max", "8", "--h", "2", "--g", "2", "--node-cap", "0"),
    ("search", "--n-max", "0", "--h", "2", "--g", "2"),
    ("search", "--n-max", "5", "--h", "2", "--g", "2", "--csv", "no-dir/t.csv"),
    ("zmatrix", "--set", "norm32.txt", "--g", "3", "--h", "2", "--pbm", "m.pbm"),
    ("zmatrix", "--set", "norm32.txt", "--g", "2", "--h", "2"),
    ("zmatrix", "--set", "ap5.txt", "--g", "2", "--h", "2"),
    ("zmatrix", "--set", "norm32.txt", "--g", "3", "--h", "2", "--order-cap", "1"),
    ("zmatrix", "--set", "norm32.txt", "--g", "3", "--h", "2", "--subset-cap", "1"),
    ("zmatrix", "--set", "norm32.txt", "--g", "2", "--h", "3"),
    ("bounds", "--n", "125", "--h", "3", "--g", "3"),
    ("bounds", "--n", "9", "--h", "2", "--g", "3", "--m", "9", "--s", "3", "--t", "2"),
    ("bounds", "--n", "100", "--h", "3", "--g", "2"),
    ("--help",),
    ("verify", "--help"),
    ("frobnicate",),
    (),
    ("verify", "--set", "ap5.txt", "--h", "two", "--g", "2"),
    ("search", "--n-max", "5", "--h", "2", "--g", "2", "--subset-cap", "0"),
]
GOLDEN = FIXTURES / "cli_reports.json"


def golden_inputs():
    from chgsets import embedded_c33, set_to_text, sphere_set

    return {
        "ap5.txt": (FIXTURES / "ap5.txt").read_text(encoding="utf-8"),
        "latin1.txt": b"# group=interval:12\n# caf\xe9\n1\n2\n".decode("utf-8", "surrogateescape"),
        "norm32.txt": set_to_text(norm_set(3, 2)[0]),
        "norm33.txt": set_to_text(norm_set(3, 3)[0]),
        "sphere5.txt": set_to_text(sphere_set(5)),
        "emb1000.txt": set_to_text(embedded_c33(1000)),
    }


def replay(run, argv, inputs):
    """Run one invocation by ``run`` (argv to exit code, stdout and stderr)
    in the working directory and return what the golden file records of
    it: exit code, report minus its volatile fields (or the text on
    stdout), stderr, and every file the run wrote."""
    for name, text in inputs.items():
        Path(name).write_text(text, encoding="utf-8", errors="surrogateescape")
    before = set(os.listdir())
    code, out, err = run(*argv)
    written = {name: Path(name).read_text(encoding="utf-8")
               for name in sorted(set(os.listdir()) - before)}
    if isinstance(out, dict):
        out = strip_volatile(out)
    return {"argv": list(argv), "exit": code, "out": out, "stderr": err, "files": written}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


class TestGoldenReports:
    # every report, message and file the CLI gave when the fixture was recorded
    # (re-record with `python tests/test_cli.py`)
    def test_covers_every_invocation(self, golden):
        assert [tuple(entry["argv"]) for entry in golden["entries"]] == GOLDEN_ARGV

    @pytest.mark.parametrize("index", range(len(GOLDEN_ARGV)),
                             ids=[" ".join(argv) or "(none)" for argv in GOLDEN_ARGV])
    def test_replay(self, capsys, monkeypatch, tmp_path, golden, index):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")  # --help and usage wrap by it
        expected = golden["entries"][index]
        got = replay(partial(run_cli, capsys), expected["argv"], golden["inputs"])
        assert got == expected
        report = got["out"]
        if isinstance(report, dict):
            assert (got["exit"] == 2) == (report["verdict"] is not None
                                          and report["verdict"]["holds"] is False)

    @pytest.mark.parametrize("index", range(len(GOLDEN_ARGV)),
                             ids=[" ".join(argv) or "(none)" for argv in GOLDEN_ARGV])
    def test_replay_through_the_process_entry(self, monkeypatch, tmp_path, golden, index):
        # python -m chgsets exits through cli.run, which freezes the heap:
        # no report, message or written file may be lost on the way out
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")

        def run_process(*argv):
            proc = run_module(tmp_path, *argv)
            return proc.returncode, parsed(proc.stdout), proc.stderr

        expected = golden["entries"][index]
        assert replay(run_process, expected["argv"], golden["inputs"]) == expected


class TestProcessEntry:
    # cli.run alone freezes the heap, and every process entry is cli.run
    @pytest.fixture
    def unfreeze(self):
        yield
        gc.unfreeze()

    def test_main_freezes_nothing(self, capsys, tmp_path):
        before = gc.get_freeze_count()
        set_file = tmp_path / "ap5.txt"
        set_file.write_text((FIXTURES / "ap5.txt").read_text(encoding="utf-8"), encoding="utf-8")
        assert run_cli(capsys, "verify", "--set", str(set_file), "--h", "3", "--g", "3",
                       "--weak")[0] == 0
        assert run_cli(capsys, "verify", "--set", str(set_file), "--h", "2", "--g", "2")[0] == 2
        assert run_cli(capsys, "--help")[0] == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, code", [
        (("verify", "--set", "ap5.txt", "--h", "3", "--g", "3", "--weak"), 0),
        (("verify", "--set", "ap5.txt", "--h", "2", "--g", "2"), 2),
        (("--help",), 0),
    ])
    def test_run_exits_with_mains_code_frozen(self, capsys, monkeypatch, tmp_path, unfreeze,
                                              argv, code):
        monkeypatch.chdir(tmp_path)
        Path("ap5.txt").write_text((FIXTURES / "ap5.txt").read_text(encoding="utf-8"),
                                   encoding="utf-8")
        monkeypatch.setattr(sys, "argv", ["chgsets", *argv])
        assert run_cli(capsys, *argv)[0] == code
        with pytest.raises(SystemExit) as exit_:
            cli.run()
        assert exit_.value.code == code
        assert gc.get_freeze_count() > 0

    def test_every_entry_is_run(self, monkeypatch):
        # the chgsets script and python -m chgsets
        project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
        module, name = project["scripts"]["chgsets"].split(":")
        assert getattr(importlib.import_module(module), name) is cli.run
        called = []
        monkeypatch.setattr(cli, "run", lambda: called.append("run"))
        runpy.run_module("chgsets", run_name="__main__")
        assert called == ["run"]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile
    from types import SimpleNamespace

    class Captured:
        """The part of pytest's capsys that run_cli reads."""

        def __init__(self):
            self.out, self.err = io.StringIO(), io.StringIO()

        def readouterr(self):
            return SimpleNamespace(out=self.out.getvalue(), err=self.err.getvalue())

    os.environ["COLUMNS"] = "80"
    inputs = golden_inputs()
    entries = []
    for argv in GOLDEN_ARGV:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            cap = Captured()  # one per run: run_cli reads it once
            with contextlib.redirect_stdout(cap.out), contextlib.redirect_stderr(cap.err):
                entries.append(replay(partial(run_cli, cap), argv, inputs))
            os.chdir(ROOT)
    GOLDEN.write_text(json.dumps({"inputs": inputs, "entries": entries}, indent=1,
                                 sort_keys=True) + "\n", encoding="utf-8")
