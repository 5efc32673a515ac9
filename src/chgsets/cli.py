"""Command-line entry point producing machine-readable JSON reports.

Subcommands: ``construct sphere|norm|weak``, ``verify``, ``search``,
``zmatrix``, ``bounds``.  Every run prints one JSON report to stdout;
reruns with identical parameters (and seed) are byte-identical apart from
``elapsed_ms`` and ``versions``.  Interval elements appear 1-based in all
output; witness patterns are translation shapes and are never shifted.

Exit codes: 0 success, 2 verification failure, 3 resource cap exceeded,
4 parameter error, 5 retry exhaustion.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

from . import __version__
from .bounds import BoundReport, group_bound, main_term_bound
from .constructions import (
    DEFAULT_MAX_ATTEMPTS,
    embedded_c33,
    freiman_embed,
    norm_set,
    rewindow,
    sphere_set,
    weak_random_set,
)
from .errors import ParameterError, ResourceCapError, RetryExhaustedError, check_cap
from .groups import GSet, Interval, Product
from .rng import RNG_NAME, RNG_VERSION
from .setio import group_to_string, read_set, write_pbm, write_set, zmatrix_summary
from .verify import (
    DEFAULT_ORDER_CAP,
    DEFAULT_SUBSET_CAP,
    Verdict,
    build_zmatrix,
    check_kgh_free,
    check_kgh_params,
    verify_chg,
    verify_weak_chg,
)
from .search import DEFAULT_NODE_CAP, greedy_chg, max_table

EXIT_OK = 0
EXIT_VERIFY_FAILED = 2
EXIT_RESOURCE_CAP = 3
EXIT_PARAMETER = 4
EXIT_RETRIES = 5

CSV_COLUMNS = ["n", "best_size", "optimal", "greedy_size", "bound_group", "bound_main_term"]


def _elem_out(group, e):
    if isinstance(group, Interval):
        return e + 1
    if isinstance(group, Product):
        return list(e)
    return e


def _verdict_out(group, verdict: Verdict | None):
    if verdict is None:
        return None
    out = {"holds": verdict.holds}
    if verdict.witness is not None:
        w = verdict.witness
        out["witness"] = {
            "pattern": [list(e) if isinstance(e, tuple) else e for e in w.pattern.elems],
            "bases": [_elem_out(group, b) for b in w.bases],
        }
    return out


def _report(command, params, group=None, set_size=None, bound_columns=None, verdict=None,
            seed=None, attempts=None, data=None, started=None):
    elapsed = 0 if started is None else int((time.monotonic() - started) * 1000)
    return {
        "schema": 1,
        "command": command,
        "params": params,
        "group": group,
        "set_size": set_size,
        "bounds": bound_columns,
        "verdict": verdict,
        "seed": seed,
        "attempts": attempts,
        "data": data,
        "elapsed_ms": elapsed,
        "versions": {"artifact": __version__, "rng": f"{RNG_NAME}-{RNG_VERSION}"},
    }


def _emit(report) -> None:
    print(json.dumps(report, sort_keys=True, indent=2))


def _auto_verify(gs: GSet, h: int, g: int, cap: int) -> Verdict | None:
    if math.comb(len(gs), h) > cap:
        return None
    return verify_chg(gs, h, g, subset_cap=cap)


def _cmd_construct_sphere(args) -> int:
    started = time.monotonic()
    check_cap("subset cap", args.subset_cap)
    if args.embed is None and args.p is None:
        raise ParameterError("construct sphere needs --p, --embed, or both")
    if args.embed is not None:
        if args.p is not None:
            if 4 * args.p**3 > args.embed:
                raise ParameterError(f"4*{args.p}^3 does not fit window {args.embed}")
            gs = rewindow(freiman_embed(2 * args.p, sphere_set(args.p)), args.embed)
        else:
            gs = embedded_c33(args.embed)
    else:
        gs = sphere_set(args.p)
    verdict = _auto_verify(gs, 3, 3, args.subset_cap)
    if args.out:
        write_set(args.out, gs)
    # interval sets are bounded through their image in Z_{2n}
    ambient = 2 * gs.group.n if isinstance(gs.group, Interval) else gs.group.q**3
    bounds_cols = {"bound_group": group_bound(ambient, 3, 3)}
    _emit(_report(
        "construct sphere",
        {"p": args.p, "embed": args.embed, "out": args.out},
        group=group_to_string(gs.group),
        set_size=len(gs),
        bound_columns=bounds_cols,
        verdict=_verdict_out(gs.group, verdict),
        started=started,
    ))
    return EXIT_OK if verdict is None or verdict.holds else EXIT_VERIFY_FAILED


def _cmd_construct_norm(args) -> int:
    started = time.monotonic()
    check_cap("subset cap", args.subset_cap)
    gs, guarantee = norm_set(args.q, args.h)
    if args.embed:
        gs = freiman_embed(2 * args.q, gs)
        window = 2 ** (args.h - 1) * args.q**args.h
        gs = rewindow(gs, window)
    verdict = _auto_verify(gs, args.h, guarantee, args.subset_cap)
    if args.out:
        write_set(args.out, gs)
    n_amb = 2 * gs.group.n if isinstance(gs.group, Interval) else gs.group.q**gs.group.d
    _emit(_report(
        "construct norm",
        {"q": args.q, "h": args.h, "g": guarantee, "embed": bool(args.embed),
         "out": args.out},
        group=group_to_string(gs.group),
        set_size=len(gs),
        bound_columns={"bound_group": group_bound(n_amb, args.h, guarantee)},
        verdict=_verdict_out(gs.group, verdict),
        started=started,
    ))
    return EXIT_OK if verdict is None or verdict.holds else EXIT_VERIFY_FAILED


def _cmd_construct_weak(args) -> int:
    started = time.monotonic()
    check_cap("subset cap", args.subset_cap)
    gs, attempts, sizes = weak_random_set(
        args.n, args.h, args.g, args.seed, max_attempts=args.max_attempts
    )
    verdict = verify_weak_chg(gs, args.h, args.g, subset_cap=args.subset_cap)
    if args.out:
        write_set(args.out, gs)
    report = BoundReport.compute(args.n, args.h, args.g)
    _emit(_report(
        "construct weak",
        {"n": args.n, "h": args.h, "g": args.g, "max_attempts": args.max_attempts,
         "out": args.out},
        group=group_to_string(gs.group),
        set_size=len(gs),
        bound_columns={
            "density_np": report.density_np,
            "weak_lower": report.weak_lower,
        },
        verdict=_verdict_out(gs.group, verdict),
        seed=args.seed,
        attempts=attempts,
        data={"sample_size": sizes[0], "bad_size": sizes[1], "result_size": sizes[2]},
        started=started,
    ))
    return EXIT_OK if verdict.holds else EXIT_VERIFY_FAILED


def _cmd_verify(args) -> int:
    started = time.monotonic()
    gs = read_set(args.set)
    checker = verify_weak_chg if args.weak else verify_chg
    verdict = checker(gs, args.h, args.g, subset_cap=args.subset_cap)
    _emit(_report(
        "verify",
        {"set": args.set, "h": args.h, "g": args.g, "weak": bool(args.weak)},
        group=group_to_string(gs.group),
        set_size=len(gs),
        verdict=_verdict_out(gs.group, verdict),
        started=started,
    ))
    return EXIT_OK if verdict.holds else EXIT_VERIFY_FAILED


def _cmd_search(args) -> int:
    started = time.monotonic()
    results = max_table(args.n_max, args.h, args.g, node_cap=args.node_cap)
    rows = []
    for res in results:
        rows.append({
            "n": res.n,
            "best_size": res.best_size,
            "optimal": res.optimal,
            "nodes": res.nodes_explored,
            "greedy_size": len(greedy_chg(res.n, args.h, args.g)),
            "bound_group": group_bound(2 * res.n, args.h, args.g),
            "bound_main_term": main_term_bound(res.n, args.h, args.g),
        })
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
    _emit(_report(
        "search",
        {"n_max": args.n_max, "h": args.h, "g": args.g, "node_cap": args.node_cap,
         "csv": args.csv},
        group=group_to_string(Interval(args.n_max)),
        set_size=results[-1].best_size,
        data={"table": rows,
              "best_set": [e + 1 for e in results[-1].best_set.elems]},
        started=started,
    ))
    return EXIT_OK


def _cmd_zmatrix(args) -> int:
    started = time.monotonic()
    check_cap("order cap", args.order_cap)
    gs = read_set(args.set)
    check_kgh_params(gs.group, args.g, args.h, subset_cap=args.subset_cap)
    zm = build_zmatrix(gs, order_cap=args.order_cap)
    verdict = check_kgh_free(zm, args.g, args.h, subset_cap=args.subset_cap)
    if args.pbm:
        write_pbm(args.pbm, zm)
    summary = zmatrix_summary(zm, args.g, args.h, verdict.holds)
    _emit(_report(
        "zmatrix",
        {"set": args.set, "g": args.g, "h": args.h, "pbm": args.pbm},
        group=group_to_string(gs.group),
        set_size=len(gs),
        verdict=_verdict_out(gs.group, verdict),
        data=summary,
        started=started,
    ))
    return EXIT_OK if verdict.holds else EXIT_VERIFY_FAILED


def _cmd_bounds(args) -> int:
    started = time.monotonic()
    report = BoundReport.compute(args.n, args.h, args.g, m=args.m, s=args.s, t=args.t)
    cols = {
        "main_term": report.main_term,
        "main_term_error_order": report.main_term_error_order,
        "group": report.group,
        "weak_lower": report.weak_lower,
        "density_p": report.density_p,
        "density_np": report.density_np,
    }
    if report.zarankiewicz is not None:
        cols["zarankiewicz"] = report.zarankiewicz
    _emit(_report(
        "bounds",
        {"n": args.n, "h": args.h, "g": args.g, "m": args.m, "s": args.s, "t": args.t},
        bound_columns=cols,
        started=started,
    ))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chgsets",
        description="Construct, verify, and search generalized Sidon (C_h[g]) sets.",
    )

    def common(p):
        p.add_argument("--subset-cap", type=int, default=DEFAULT_SUBSET_CAP,
                       help="max enumerated subsets before a resource error")

    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build a set")
    csub = construct.add_subparsers(dest="construction", required=True)

    sphere = csub.add_parser("sphere", help="sphere set in F_p^3, optionally embedded")
    sphere.add_argument("--p", type=int, default=None, help="odd prime")
    sphere.add_argument("--embed", type=int, default=None, metavar="N",
                        help="embed into the integer window of size N")
    sphere.add_argument("--out", default=None, help="write the set to this file")
    common(sphere)
    sphere.set_defaults(func=_cmd_construct_sphere)

    normp = csub.add_parser("norm", help="norm-1 set in F_{q^h}, optionally embedded")
    normp.add_argument("--q", type=int, required=True, help="prime base")
    normp.add_argument("--h", type=int, required=True, help="extension degree >= 2")
    normp.add_argument("--embed", action="store_true",
                       help="embed into an integer window with base 2q")
    normp.add_argument("--out", default=None)
    common(normp)
    normp.set_defaults(func=_cmd_construct_norm)

    weak = csub.add_parser("weak", help="random weak C_h[g]-set via deletion")
    weak.add_argument("--n", type=int, required=True)
    weak.add_argument("--h", type=int, required=True)
    weak.add_argument("--g", type=int, required=True)
    weak.add_argument("--seed", type=int, required=True)
    weak.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS)
    weak.add_argument("--out", default=None)
    common(weak)
    weak.set_defaults(func=_cmd_construct_weak)

    verifyp = sub.add_parser("verify", help="verify a set file")
    verifyp.add_argument("--set", required=True, help="set file path")
    verifyp.add_argument("--h", type=int, required=True)
    verifyp.add_argument("--g", type=int, required=True)
    verifyp.add_argument("--weak", action="store_true", help="check the weak property")
    common(verifyp)
    verifyp.set_defaults(func=_cmd_verify)

    searchp = sub.add_parser("search", help="exact maxima for windows 1..n-max")
    searchp.add_argument("--n-max", type=int, required=True)
    searchp.add_argument("--h", type=int, required=True)
    searchp.add_argument("--g", type=int, required=True)
    searchp.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
    searchp.add_argument("--csv", default=None, help="also write the table as CSV")
    common(searchp)
    searchp.set_defaults(func=_cmd_search)

    zmatrixp = sub.add_parser("zmatrix", help="sum matrix and K_{g,h}-freeness")
    zmatrixp.add_argument("--set", required=True)
    zmatrixp.add_argument("--g", type=int, required=True)
    zmatrixp.add_argument("--h", type=int, required=True)
    zmatrixp.add_argument("--pbm", default=None, help="write the matrix as plain PBM")
    zmatrixp.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
    common(zmatrixp)
    zmatrixp.set_defaults(func=_cmd_zmatrix)

    boundsp = sub.add_parser("bounds", help="evaluate all bound formulas")
    boundsp.add_argument("--n", type=int, required=True)
    boundsp.add_argument("--h", type=int, required=True)
    boundsp.add_argument("--g", type=int, required=True)
    boundsp.add_argument("--m", type=int, default=None)
    boundsp.add_argument("--s", type=int, default=None)
    boundsp.add_argument("--t", type=int, default=None)
    common(boundsp)
    boundsp.set_defaults(func=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except RetryExhaustedError as exc:
        print(f"retry budget exhausted: {exc}", file=sys.stderr)
        for attempt, sample_size, bad_size in exc.attempts:
            print(f"  attempt {attempt}: |S|={sample_size} |bad|={bad_size}", file=sys.stderr)
        return EXIT_RETRIES
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    raise SystemExit(main())
