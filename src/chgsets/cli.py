"""Command-line entry point producing machine-readable JSON reports.

Subcommands: ``construct sphere|norm|weak``, ``verify``, ``search``,
``zmatrix``, ``bounds``.  Every run prints one JSON report to stdout;
reruns with identical parameters (and seed) are byte-identical apart from
``elapsed_ms`` and ``versions``.  Interval elements appear 1-based in all
output; witness patterns are translation shapes and are never shifted.

Each handler returns its report; ``main`` alone times it, prints it and
picks the exit code: 0 success, 2 exactly when the report's verdict does not
hold, 3 resource cap exceeded, 4 parameter error (a usage error included),
5 retry exhaustion.

Only errors and rng load at start-up.  groups, setio and verify load inside
the subcommands that handle a set, and bounds, constructions, fields, search
and csv inside those that use them, so each run pays start-up only for the
code it runs: ``--help`` loads nothing more, ``bounds`` only bounds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from bisect import bisect_left
from importlib import import_module

from . import _EXPORTS, _HOME, __version__
from .errors import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_NODE_CAP,
    DEFAULT_ORDER_CAP,
    DEFAULT_SUBSET_CAP,
    ParameterError,
    ResourceCapError,
    RetryExhaustedError,
    check_cap,
)
from .rng import RNG_NAME, RNG_VERSION

# what every command that reads or writes a set runs
_SETS = ("groups", "setio", "verify")


def _load(*homes) -> None:
    """Bind the package exports of ``homes`` here, keeping any already bound.

    Handlers call these names as globals of this module, and a module
    attribute lookup loads them too (``__getattr__``), so whoever replaces
    one of them here replaces the function the handlers call.
    """
    bound = globals()
    for home in homes:
        module = import_module(f".{home}", __package__)
        for name in _EXPORTS[home]:
            bound.setdefault(name, getattr(module, name))


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(home)
    return globals()[name]


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


def _verdict_out(group, verdict):
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


def _report(command, params, gs=None, verdict=None, **fields):
    """The report of one command; group, set size and the verdict's witness
    are read from the set ``gs``, and ``fields`` fill the other keys."""
    report = {
        "schema": 1,
        "command": command,
        "params": params,
        "group": None,
        "set_size": None,
        "bounds": None,
        "verdict": None,
        "seed": None,
        "attempts": None,
        "data": None,
        "versions": {"artifact": __version__, "rng": f"{RNG_NAME}-{RNG_VERSION}"},
    }
    if gs is not None:
        report.update(group=group_to_string(gs.group), set_size=len(gs),
                      verdict=_verdict_out(gs.group, verdict))
    report.update(fields)
    return report


def _constructed(command, params, gs, h: int, g: int, args):
    """Report a constructed set: verify it unless C(|A|, h) exceeds
    ``--subset-cap``, write it to ``--out``, and bound it in its group."""
    try:
        verdict = verify_chg(gs, h, g, subset_cap=args.subset_cap)
    except ResourceCapError:
        verdict = None
    if args.out:
        write_set(args.out, gs)
    group = gs.group
    # interval sets are bounded through their image in Z_{2n}
    ambient = 2 * group.n if isinstance(group, Interval) else group.q**group.d
    return _report(command, params, gs, verdict,
                   bounds={"bound_group": group_bound(ambient, h, g)})


def _cmd_construct_sphere(args) -> dict:
    _load("bounds", "constructions", *_SETS)
    check_cap("subset cap", args.subset_cap)
    if args.embed is None and args.p is None:
        raise ParameterError("construct sphere needs --p, --embed, or both")
    gs = sphere_set(args.p) if args.embed is None else embedded_c33(args.embed, args.p)
    return _constructed("construct sphere", {"p": args.p, "embed": args.embed, "out": args.out},
                        gs, 3, 3, args)


def _cmd_construct_norm(args) -> dict:
    _load("bounds", "constructions", *_SETS)
    check_cap("subset cap", args.subset_cap)
    gs, guarantee = norm_set(args.q, args.h)
    if args.embed:
        gs = freiman_embed(gs)
        window = 2 ** (args.h - 1) * args.q**args.h
        gs = rewindow(gs, window)
    return _constructed("construct norm",
                        {"q": args.q, "h": args.h, "g": guarantee, "embed": bool(args.embed),
                         "out": args.out},
                        gs, args.h, guarantee, args)


def _cmd_construct_weak(args) -> dict:
    _load("bounds", "constructions", *_SETS)
    check_cap("subset cap", args.subset_cap)
    # weak_random_set returns only a set that its own verify passed under the cap
    gs, attempts, sizes = weak_random_set(args.n, args.h, args.g, args.seed,
                                          args.max_attempts, args.subset_cap)
    if args.out:
        write_set(args.out, gs)
    return _report(
        "construct weak",
        {"n": args.n, "h": args.h, "g": args.g, "max_attempts": args.max_attempts,
         "out": args.out},
        gs, Verdict(True),
        bounds={"density_np": sample_density(args.n, args.h, args.g)[1],
                "weak_lower": weak_lower_bound(args.n, args.h, args.g)},
        seed=args.seed,
        attempts=attempts,
        data={"sample_size": sizes[0], "bad_size": sizes[1], "result_size": sizes[2]},
    )


def _cmd_verify(args) -> dict:
    _load(*_SETS)
    gs = read_set(args.set)
    checker = verify_weak_chg if args.weak else verify_chg
    verdict = checker(gs, args.h, args.g, subset_cap=args.subset_cap)
    return _report("verify", {"set": args.set, "h": args.h, "g": args.g, "weak": bool(args.weak)},
                   gs, verdict)


def _cmd_search(args) -> dict:
    _load("bounds", "search", *_SETS)
    results = max_table(args.n_max, args.h, args.g, node_cap=args.node_cap)
    # the greedy set of window n is the largest window's set cut at n
    greedy = greedy_chg(args.n_max, args.h, args.g).elems
    rows = [{
        "n": res.n,
        "best_size": res.best_size,
        "optimal": res.optimal,
        "nodes": res.nodes_explored,
        "greedy_size": bisect_left(greedy, res.n),
        "bound_group": group_bound(2 * res.n, args.h, args.g),
        "bound_main_term": main_term_bound(res.n, args.h, args.g),
    } for res in results]
    if args.csv:
        import csv

        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
    best = results[-1].best_set  # in the window of size n_max
    return _report(
        "search",
        {"n_max": args.n_max, "h": args.h, "g": args.g, "node_cap": args.node_cap,
         "csv": args.csv},
        best,
        data={"table": rows, "best_set": [_elem_out(best.group, e) for e in best]},
    )


def _cmd_zmatrix(args) -> dict:
    _load(*_SETS)
    check_cap("order cap", args.order_cap)
    gs = read_set(args.set)
    check_kgh_params(gs, args.h, args.g, subset_cap=args.subset_cap)
    zm = build_zmatrix(gs, order_cap=args.order_cap)
    verdict = check_kgh_free(zm, args.h, args.g, subset_cap=args.subset_cap)
    if args.pbm:
        write_pbm(args.pbm, zm)
    return _report("zmatrix", {"set": args.set, "g": args.g, "h": args.h, "pbm": args.pbm},
                   gs, verdict, data=zmatrix_summary(zm, args.g, args.h, verdict.holds))


def _cmd_bounds(args) -> dict:
    _load("bounds")
    n, h, g = args.n, args.h, args.g
    p, np_val = sample_density(n, h, g)
    matrix = {}
    if (args.m, args.s, args.t) != (None, None, None):
        if None in (args.m, args.s, args.t):
            raise ParameterError("matrix bound needs all of m, s, t")
        matrix["zarankiewicz"] = zarankiewicz_bound(args.m, n, args.s, args.t)
    return _report(
        "bounds",
        {"n": n, "h": h, "g": g, "m": args.m, "s": args.s, "t": args.t},
        bounds={
            "main_term": main_term_bound(n, h, g),
            "main_term_error_order": main_term_error_order(h),
            "group": group_bound(n, h, g),
            "weak_lower": weak_lower_bound(n, h, g),
            "density_p": p,
            "density_np": np_val,
            **matrix,
        },
    )


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with the parameter-error
    code; the usage message still goes to stderr."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARAMETER, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    boundsp.set_defaults(func=_cmd_bounds)

    return parser


# the errors a command reports on one stderr line and an exit code, not a traceback
FAILURES = (ParameterError, OverflowError, ResourceCapError, RetryExhaustedError, OSError)


def report_failure(exc: Exception) -> int:
    """Print one of ``FAILURES`` to stderr and return its exit code."""
    if isinstance(exc, (ParameterError, OverflowError)):
        # OverflowError: an integer too large for float arithmetic
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    if isinstance(exc, ResourceCapError):
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    if isinstance(exc, RetryExhaustedError):
        print(f"retry budget exhausted: {exc}", file=sys.stderr)
        for attempt, sample_size, bad_size in exc.attempts:
            print(f"  attempt {attempt}: |S|={sample_size} |bad|={bad_size}", file=sys.stderr)
        return EXIT_RETRIES
    print(f"i/o error: {exc}", file=sys.stderr)
    return EXIT_PARAMETER


def main(argv=None) -> int:
    """Run one command: print its JSON report and exit 2 exactly when the
    report's verdict does not hold; errors go to stderr with their own code."""
    started = time.monotonic()
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
        report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
        print(json.dumps(report, sort_keys=True, indent=2))
    except FAILURES as exc:
        return report_failure(exc)
    verdict = report["verdict"]
    return EXIT_OK if verdict is None or verdict["holds"] else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
