"""The benchmark's workloads: set-up, timed CLI commands and their checks.

A workload's set-up writes its input files, through ``chgsets construct
--out`` or, for seeded random inputs, directly, and returns the commands one
pass runs.  The seed drives only those random inputs and the ``--seed`` of
the weak constructions; the program receives only the generated files and
arguments.  Sizes are scaled so that one pass takes a few seconds on a
2-CPU machine, which lets a run repeat each pass several times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (
    cap_exit_check,
    expect,
    norm_check,
    parse_group,
    read_set_file,
    search_check,
    sphere_check,
    verify_check,
    weak_check,
    write_set_file,
    zmatrix_check,
)

# argv -> (exit code, stdout) for one untimed CLI run
Cli = Callable[[list], tuple]


@dataclass(frozen=True)
class Command:
    kind: str  # verify | verify_weak | search | construct | zmatrix
    argv: tuple
    check: Callable[[int, str], None]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, Path, Cli], list]


def _noop_start(cli: Cli) -> None:
    code, _ = cli(["--help"])
    expect(code == 0, f"chgsets --help exited {code}")


def _construct(cli: Cli, argv: list, check) -> None:
    check(*cli(["construct", *argv]))


def _sphere_file(cli: Cli, work: Path, p: int) -> tuple:
    """Write the sphere set for p (unverified: verifying is timed work)."""
    path = str(work / f"sphere{p}.txt")
    _construct(cli, ["sphere", "--p", str(p), "--out", path, "--subset-cap", "1"],
               sphere_check(p, None, path, verified=False))
    return (path, *read_set_file(path))


def _subset_file(work: Path, name: str, source: tuple, size: int, rng: random.Random) -> tuple:
    """A seeded random subset; subsets keep every C_h[g] verdict that holds."""
    _, group, elems = source
    path = str(work / name)
    chosen = sorted(rng.sample(elems, size))
    write_set_file(path, group, chosen)
    return path, group, chosen


def _verify(target: tuple, h: int, g: int, weak: bool = False, holds: bool = True) -> Command:
    path, group, elems = target
    argv = ("verify", "--set", path, "--h", str(h), "--g", str(g)) + (("--weak",) if weak else ())
    return Command("verify_weak" if weak else "verify", argv,
                   verify_check(group, elems, h, g, weak, holds))


# ---------------------------------------------------------------------------
# verify-construct: verify, groups, constructions, fields, rng, setio and the
# sum matrix on every path; search idle

WEAK_SUBSET = 60  # of the p=11 sphere; the generic weak path canonicalizes C(60, 3) triples
H4_SUBSET = 24  # of the p=7 sphere; generic class enumeration over C(24, 4) subsets
EMBED_WINDOW = 20000  # p=17 sphere in {1..20000}: 272 points, the memory-heavy interval path
DENSE_WINDOW, DENSE_SIZE = 300, 100  # C(100,3) > 2 C(299,2): some 3-class has 3 members
WEAK_H2 = 1000000  # window of the h=g=2 weak set: almost all time is sampler draws
WEAK_H3 = 10000  # window of the h=g=3 weak sets: detect_bad plus interval weak verify
WEAK_H3_RUNS = 2  # seeds per pass; their sample sizes vary, so two halve the spread


def verify_construct(seed: int, work: Path, cli: Cli) -> list:
    rng = random.Random(seed)
    _noop_start(cli)
    sphere13 = _sphere_file(cli, work, 13)
    sphere11 = _sphere_file(cli, work, 11)
    sphere7 = _sphere_file(cli, work, 7)
    embed_path = str(work / "embed.txt")
    _construct(cli, ["sphere", "--embed", str(EMBED_WINDOW), "--out", embed_path,
                     "--subset-cap", "1"],
               sphere_check(None, EMBED_WINDOW, embed_path, verified=False))
    embed = (embed_path, *read_set_file(embed_path))
    norm19 = str(work / "norm19.txt")
    _construct(cli, ["norm", "--q", "19", "--h", "2", "--out", norm19, "--subset-cap", "1"],
               norm_check(19, 2, norm19, verified=False))
    weak_sub = _subset_file(work, "sphere11-subset.txt", sphere11, WEAK_SUBSET, rng)
    h4_sub = _subset_file(work, "sphere7-subset.txt", sphere7, H4_SUBSET, rng)
    dense_path = str(work / "dense.txt")
    dense_elems = sorted(rng.sample(range(1, DENSE_WINDOW + 1), DENSE_SIZE))
    write_set_file(dense_path, f"interval:{DENSE_WINDOW}", dense_elems)
    dense = (dense_path, f"interval:{DENSE_WINDOW}", dense_elems)
    norm_out = str(work / "norm2-12.txt")
    embed_out = str(work / "embed5488.txt")
    pbm = str(work / "norm19.pbm")
    weak_runs = [(WEAK_H2, 2, rng.getrandbits(32))]
    weak_runs += [(WEAK_H3, 3, rng.getrandbits(32)) for _ in range(WEAK_H3_RUNS)]
    return [
        _verify(sphere13, 3, 3),  # packed group path, passes
        _verify(weak_sub, 3, 3, weak=True),  # generic weak path
        _verify(sphere13, 2, 2, holds=False),  # exit 2, witness second pass
        _verify(h4_sub, 4, 4),  # groups.enumerate_pattern_classes
        _verify(embed, 3, 3),  # interval path, largest memory
        _verify(dense, 3, 3, holds=False),  # interval path, failing
        # 4096 norm exponentiations; auto-verify is skipped by the subset cap
        Command("construct", ("construct", "norm", "--q", "2", "--h", "12", "--out", norm_out),
                norm_check(2, 12, norm_out, verified=False)),
        # auto-verify on the generic (periodic-pattern) path, small here
        Command("construct", ("construct", "norm", "--q", "3", "--h", "3"),
                norm_check(3, 3, None, verified=True)),
        Command("construct", ("construct", "sphere", "--embed", "5488", "--out", embed_out),
                sphere_check(None, 5488, embed_out, verified=True)),
        *(Command("construct", ("construct", "weak", "--n", str(n), "--h", str(h), "--g", str(h),
                                "--seed", str(s)),
                  weak_check(n, h, h, s))
          for n, h, s in weak_runs),
        Command("zmatrix", ("zmatrix", "--set", norm19, "--g", "3", "--h", "2", "--pbm", pbm),
                _zmatrix_check(norm19, pbm)),
        # exit 3 on the column cap, after a 343 x 343 build
        Command("zmatrix", ("zmatrix", "--set", sphere7[0], "--g", "3", "--h", "3"),
                cap_exit_check),
    ]


def _zmatrix_check(path: str, pbm: str):
    group, elems = read_set_file(path)
    _, q, d = parse_group(group)
    return zmatrix_check(q**d, len(elems), pbm)


# ---------------------------------------------------------------------------
# search-table: branch and bound; verify sees one small set per window


def search_table(seed: int, work: Path, cli: Cli) -> list:
    _noop_start(cli)
    return [
        Command("search", ("search", "--n-max", str(n), "--h", str(h), "--g", str(h)),
                search_check(n, h, h))
        for n, h in ((32, 2), (20, 3))
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-construct", "verify, groups, constructions, fields, rng, set writes "
                 "and the sum matrix on every path; search idle", verify_construct),
        Workload("search-table", "exact branch-and-bound tables for h=2 and h=3; verify "
                 "checks one small set per window, constructions idle", search_table),
    )
}
