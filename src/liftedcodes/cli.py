"""Command-line interface.

Every randomized command requires an explicit --seed; identical flags and
seed produce byte-identical outputs.  Exit codes: 0 success, 1 check
failure, 2 usage error (violated preconditions are reported verbatim).

The seven subcommands are described once, in COMMANDS.  A call whose first
argument names one builds the parser of that subcommand alone, since
building the other six was most of a cold `table` call; any other call (no
argument, -h, an option first, an unknown command) builds them all.  The
one-subcommand parser writes the same bytes: its only top-level message,
the usage line of an "unrecognized arguments" error, names the subcommand
argument by a metavar that is the string argparse formats from all seven
choices, so it wraps alike at any terminal width.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from liftedcodes import analysis, codes, decode
from liftedcodes.gf import GF


def _write(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, path):
    _write(json.dumps(obj, sort_keys=True, indent=2) + "\n", path)


def cmd_table(args):
    ks = None
    if args.kmin is not None or args.kmax is not None:
        lo = args.kmin if args.kmin is not None else 1
        hi = args.kmax if args.kmax is not None else max(args.q) - 1
        if lo > hi:
            raise ValueError(f"empty k range: kmin {lo} > kmax {hi}")
        ks = range(lo, hi + 1)
    if args.format == "json":
        blocks = [{"q": q, "m": args.m, "rows": analysis.rate_table(q, args.m, ks=ks)}
                  for q in args.q]
        _emit_json(blocks, args.out)
    else:
        _write(analysis.rate_table_csv(args.q, args.m, ks=ks), args.out)
    return 0


def cmd_encode(args):
    C = codes.make_code(args.kind, args.q, args.m, args.k)
    with open(args.msg_file) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    msg = [C.field.parse_element(ln) for ln in lines]
    word = codes.encode(C, msg)
    _write(codes.word_to_text(C, word), args.out)
    return 0


def cmd_corrupt(args):
    with open(args.infile) as fh:
        C, word = codes.word_from_text(fh.read())
    rng = np.random.default_rng(args.seed)
    out = decode.corrupt_word(word, args.delta, rng)
    _write(codes.word_to_text(C, out), args.out)
    return 0


def cmd_local_correct(args):
    with open(args.infile) as fh:
        C, word = codes.word_from_text(fh.read())
    point = C.support.parse_point(args.point)
    rng = np.random.default_rng(args.seed)
    cfg = decode.CorrectionConfig(s=args.s, seed=args.seed)
    sym, queried = decode.local_correct(word, point, C, cfg, rng)
    report = {
        "point": args.point,
        "symbol": None if sym is None else C.field.format_element(sym),
        "erasure": sym is None,
        "queries": queried,
        "queried_points": [C.support.format_point(i) for i in queried],
        "s": args.s,
        "seed": args.seed,
    }
    _emit_json(report, args.out)
    return 0


def cmd_experiment(args):
    C = codes.make_code("PLift", args.q, args.m, args.k)
    cfg = decode.CorrectionConfig(s=args.s, delta=args.delta, seed=args.seed)
    rep = decode.mc_experiment(C, cfg, trials=args.trials)
    _emit_json(rep.to_dict(), args.out)
    return 0


def cmd_analyze(args):
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    known = {"infoset", "qc", "distance", "dual", "shorten-puncture"}
    bad = set(checks) - known
    if bad:
        raise ValueError(f"unknown checks: {sorted(bad)}; choose from {sorted(known)}")
    if not checks:
        raise ValueError(f"no checks given; choose from {sorted(known)}")
    q, m, k = args.q, args.m, args.k
    C = codes.make_code("PLift", q, m, k)
    report = {"q": q, "m": m, "k": k}
    passed = True

    if "infoset" in checks:
        ok_p = analysis.information_set_check(C)
        ok_a = analysis.information_set_check(codes.make_code("Lift", q, m, k - 1))
        report["infoset"] = {"plift": ok_p, "lift": ok_a, "passed": ok_p and ok_a}
        passed &= report["infoset"]["passed"]

    if "qc" in checks:
        cert = analysis.qc_certificate(GF(q), m, C)
        if cert is None:
            report["qc"] = {"applicable": False, "passed": True}
        else:
            report["qc"] = {"applicable": True, "index": cert.d,
                            "cycle_lengths": [len(c) for c in cert.cycles],
                            "passed": cert.verified}
            passed &= cert.verified

    if "distance" in checks:
        rep = analysis.distance_report(C, exact=q ** C.dim <= analysis.SWEEP_LIMIT)
        entry = {"lower": rep.lower, "upper": rep.upper, "exact": rep.exact}
        entry["passed"] = (rep.exact is None or rep.lower <= rep.exact <= rep.upper)
        report["distance"] = entry
        passed &= entry["passed"]

    if "dual" in checks:
        rep = analysis.design_dual_report(q, m)
        report["dual"] = rep
        passed &= rep["passed"]

    if "shorten-puncture" in checks:
        # the monomial code goes first: code_equal tests it against its
        # second argument's reduced form, which shorten and puncture read
        # off C's, so the qc check and these share one elimination
        S = codes.shorten_at_infinity(C)
        ok_s = codes.code_equal(codes.make_code("Lift", q, m, k - 1), S)
        if m >= 2:
            P = codes.puncture_to_infinity(C)
            ok_p = codes.code_equal(codes.make_code("PLift", q, m - 1, k), P)
        else:
            ok_p = codes.puncture_to_infinity(C).dim == 1
        report["shorten_puncture"] = {"shorten": ok_s, "puncture": ok_p,
                                      "passed": ok_s and ok_p}
        passed &= report["shorten_puncture"]["passed"]

    report["passed"] = passed
    _emit_json(report, args.out)
    return 0 if passed else 1


def cmd_selftest(args):
    from liftedcodes.selftest import run_selftest
    return 0 if run_selftest() else 1


def _table_args(t):
    t.add_argument("--q", type=int, action="append", required=True,
                   help="field size (repeatable)")
    t.add_argument("--m", type=int, required=True)
    t.add_argument("--kmin", type=int)
    t.add_argument("--kmax", type=int)
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    t.add_argument("--out")


def _encode_args(e):
    e.add_argument("--kind", choices=codes.KINDS, required=True)
    e.add_argument("--q", type=int, required=True)
    e.add_argument("--m", type=int, required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--msg-file", dest="msg_file", required=True)
    e.add_argument("--out")


def _corrupt_args(c):
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--delta", type=float, required=True)
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--out")


def _local_correct_args(lc):
    lc.add_argument("--in", dest="infile", required=True)
    lc.add_argument("--point", required=True,
                    help='target point, e.g. "([1]:[0,1]:[1,1])"')
    lc.add_argument("--s", type=int, required=True, help="query budget")
    lc.add_argument("--seed", type=int, required=True)
    lc.add_argument("--out")


def _experiment_args(x):
    x.add_argument("--q", type=int, required=True)
    x.add_argument("--m", type=int, required=True)
    x.add_argument("--k", type=int, required=True)
    x.add_argument("--s", type=int, required=True)
    x.add_argument("--delta", type=float, required=True)
    x.add_argument("--trials", type=int, required=True)
    x.add_argument("--seed", type=int, required=True)
    x.add_argument("--out")


def _analyze_args(a):
    a.add_argument("--q", type=int, required=True)
    a.add_argument("--m", type=int, required=True)
    a.add_argument("--k", type=int, required=True)
    a.add_argument("--checks", default="infoset,qc,distance,dual,shorten-puncture")
    a.add_argument("--out")


def _no_args(s):
    pass


# name -> (help, handler, the function that adds its arguments), in the
# order the top-level help lists them
COMMANDS = {
    "table": ("dimension/rate table as CSV", cmd_table, _table_args),
    "encode": ("encode a message file into a word file", cmd_encode, _encode_args),
    "corrupt": ("corrupt a word file at a given rate", cmd_corrupt, _corrupt_args),
    "local-correct": ("correct one symbol of a noisy word", cmd_local_correct,
                      _local_correct_args),
    "experiment": ("Monte-Carlo correction experiment", cmd_experiment, _experiment_args),
    "analyze": ("structural checks as a JSON report", cmd_analyze, _analyze_args),
    "selftest": ("run the module invariant suites", cmd_selftest, _no_args),
}
# what argparse prints for the subcommand argument from all of COMMANDS
_ALL_COMMANDS = "{" + ",".join(COMMANDS) + "}"
# argparse's own pattern, ^-\d+$|^-\d*\.\d+$, has no exponent, so it reads
# "--delta -1e-3" as an option with no value; with this one the value
# reaches the command's range check
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser(command=None):
    """The CLI's parser: with only `command`'s subparser when `command`
    names a subcommand, else with all of them.

    A parser with one subcommand parses that subcommand's argv exactly as
    the full one does, and writes the same help and errors: its subparser
    is the same, and the metavar makes its top-level usage (printed with
    "unrecognized arguments") the string argparse formats from all the
    choices.  Only the full parser can report a missing or unknown
    subcommand, so it keeps argparse's own name for the argument.
    """
    p = argparse.ArgumentParser(
        prog="liftedcodes",
        description="Affine and projective lifted Reed-Solomon codes: tables, "
                    "encoding, local correction, and structural analysis.")
    if command in COMMANDS:
        sub = p.add_subparsers(dest="command", required=True, metavar=_ALL_COMMANDS)
    else:
        command = None
        sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, fn, add_args) in COMMANDS.items():
        if command in (None, name):
            sp = sub.add_parser(name, help=help_text)
            sp._negative_number_matcher = _NEGATIVE_NUMBER
            add_args(sp)
            sp.set_defaults(fn=fn)
    return p


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.fn(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
