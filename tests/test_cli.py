import csv
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from chgsets import norm_set, write_set
from chgsets.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


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
        path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
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
