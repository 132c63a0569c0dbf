"""Alternating parent/change benchmark pairs, written as one BENCH_<n>.json.

Usage, from the root of a checkout:

  python3 bench_pairs.py --parent DIR --out BENCH_21.json [--pairs 10]
      [--confirm-seed 2] [--trace-pair] [--tier1] [--description TEXT]
      [--scratch DIR]

DIR is a checkout (or an exported copy) of the parent commit; the change
is this checkout.  Both are copied under --scratch (default: a new
temporary directory), without .git, bytecode and run outputs, and every
run works in those copies: nothing is written into either checkout.  For
every workload in BENCHMARK.json the script runs ``perfbench/run.py`` of
each side, from that side's copy, at run.py's own default seed and
length, alternating the sides pair by pair and starting every other pair
with the change, so that a drift in machine speed falls on both.  Each run
appends its record to a JSON-lines file under --scratch.  The output
holds, per workload and side, the median, quartiles and runs of every
end-to-end metric in BENCHMARK.json, the attempted and failed op counts
and the source digest; per workload, in how many pairs the change read
lower and ``perfbench/compare.py``'s verdict on the pairs.
``--confirm-seed`` adds a second series of the ``mc-plane`` and
``analyze`` workloads at another seed, and ``--trace-pair`` one ``--trace 1`` pair per workload
(its per-layer metrics, zeros omitted).  ``--tier1`` first runs the
Tier-1 suite with ``--durations=0`` on each side, parent first, and
writes ``walls.tier1`` (pytest's wall time and counts) and
``walls.acceptance_in_tier1`` (every acceptance test over 1 s).  Every
BENCH file also has ``walls.cold_cli_op``: the wall time of ``cli.main`` on
the argv of each CLI workload, timed after the import in a fresh
interpreter per sample, the sides alternating.  Exit code 0 when every run
passed its checks, 1 when one failed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "perfbench"))
from compare import quartiles, verdict  # noqa: E402
from run import WORKLOADS as RUN_SPECS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
CONFIRM_WORKLOADS = ["mc-plane", "analyze"]
CLI_WORKLOADS = [w for w in WORKLOADS if RUN_SPECS[w]["kind"] == "cli"]
COLD_CLI_SAMPLES = 20  # fresh interpreters per side and CLI workload


def copy_side(path, dest):
    """A copy of a checkout's files for the runs to work in."""
    shutil.copytree(path, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
    return dest


TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0"]
CALL_DURATION = re.compile(r"^\s*([\d.]+)s call\s+(\S+)$", re.M)


def tier1_pair(sides, scratch):
    """The Tier-1 suite once per side, parent first, with PYTHONPATH=src as
    ROADMAP.md states it; returns (walls block, both passed)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    runs, calls, ok = {}, {}, True
    for side in ["parent", "change"]:
        res = subprocess.run([sys.executable, *TIER1, f"--basetemp={scratch / f'tier1-{side}-tmp'}"],
                             cwd=sides[side], env=env, capture_output=True, text=True)
        (scratch / f"tier1-{side}.txt").write_text(res.stdout + res.stderr)
        ok &= res.returncode == 0
        summary_line = res.stdout.strip().splitlines()[-1]
        counts = {word: int(n) for n, word in
                  re.findall(r"(\d+) (passed|failed|errors?)\b", summary_line)}
        runs[side] = {"seconds": float(re.search(r" in ([\d.]+)s", summary_line).group(1)),
                      "passed": counts.get("passed", 0),
                      "failed": counts.get("failed", 0) + counts.get("error", 0)
                      + counts.get("errors", 0)}
        calls[side] = {node: float(sec) for sec, node in CALL_DURATION.findall(res.stdout)}
        print(f"tier1 {side}: {runs[side]}", file=sys.stderr)
    acceptance = sorted({node for side in calls.values() for node in side
                         if "test_acceptance.py::" in node})
    slow = {node.split("::")[-1]: [calls[side].get(node, 0.0) for side in ["parent", "change"]]
            for node in acceptance
            if max(calls["parent"].get(node, 0.0), calls["change"].get(node, 0.0)) > 1}
    return {
        "tier1": {"what": "PYTHONPATH=src python " + " ".join(TIER1)
                          + ", parent first, then the change, before the benchmark series",
                  **runs},
        "acceptance_in_tier1": {
            "what": "call seconds of every acceptance test over 1 s in the Tier-1 pair "
                    "above, parent then change",
            "parent_change": slow},
    }, ok


# one cold op as perfbench/worker.py times it: cli.main after the import,
# stdout captured; prints the exit code and the wall time in seconds
COLD_CLI_OP = """\
import contextlib, io, sys, time
from liftedcodes import cli
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(rc, time.perf_counter() - t0)
"""


def cold_cli_ops(sides):
    """cli.main wall time, in ms, of each CLI workload's argv; returns
    (walls block, every op exited 0)."""
    block = {"what": f"cli.main wall time in ms after the import, one fresh interpreter "
                     f"per sample (PYTHONPATH=src), {COLD_CLI_SAMPLES} per side, the sides "
                     "alternating, parent first in the first pair"}
    ok = True
    for wl in CLI_WORKLOADS:
        walls = {"parent": [], "change": []}
        for i in range(COLD_CLI_SAMPLES):
            for side in (["parent", "change"] if i % 2 == 0 else ["change", "parent"]):
                res = subprocess.run([sys.executable, "-c", COLD_CLI_OP, *RUN_SPECS[wl]["argv"]],
                                     cwd=sides[side], env={**os.environ, "PYTHONPATH": "src"},
                                     capture_output=True, text=True)
                rc, wall = res.stdout.split() if res.returncode == 0 else ("1", "nan")
                ok &= rc == "0"
                walls[side].append(1e3 * float(wall))
        block[wl] = {"argv": " ".join(RUN_SPECS[wl]["argv"]),
                     **{side: summary(v) for side, v in walls.items()}}
        print(f"cold cli {wl}: parent {block[wl]['parent']['median']} ms, "
              f"change {block[wl]['change']['median']} ms", file=sys.stderr)
    return block, ok


def run_once(side_dir, workload, seed, trace, out):
    """One run.py run of one side (at run.py's default seed when seed is
    None); returns its record and exit code."""
    before = out.read_text().count("\n") if out.exists() else 0
    seed_args = [] if seed is None else ["--seed", str(seed)]
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, *seed_args,
         "--trace", str(trace), "--out", str(out)],
        cwd=side_dir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    lines = out.read_text().splitlines() if out.exists() else []
    if len(lines) <= before:
        raise RuntimeError(f"{side_dir}: {workload} wrote no record: {res.stderr.strip()}")
    return json.loads(lines[-1]), res.returncode


def summary(values):
    q1, med, q3 = quartiles(values)
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in values]}


def series(sides, workloads, seed, args, scratch, tag):
    """Alternating pairs per workload; returns (workloads block, all passed)."""
    metrics = BENCHMARK["end_to_end"]
    block, ok = {}, True
    for wl in workloads:
        recs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                out = scratch / f"{tag}-{wl}-{side}.jsonl"
                rec, code = run_once(sides[side], wl, seed, 0, out)
                ok &= code == 0
                recs[side].append(rec)
                print(f"{tag} {wl} pair {i + 1}/{args.pairs} {side}: "
                      f"op_p50_ref {rec['end_to_end']['op_p50_ref']:.4f}", file=sys.stderr)
        entry = {"pairs": args.pairs}
        for side, rs in recs.items():
            entry[side] = {m["name"]: summary([r["end_to_end"][m["name"]] for r in rs])
                           for m in metrics}
            entry[side].update(ops_attempted=[r["attempted"] for r in rs],
                               ops_failed=sum(r["failed"] for r in rs),
                               src_sha256=rs[0]["provenance"]["src_sha256"])
        entry["change_lower_in_pairs"] = {}
        entry["verdict"] = {}
        for m in metrics:
            name = m["name"]
            pv = [r["end_to_end"][name] for r in recs["parent"]]
            cv = [r["end_to_end"][name] for r in recs["change"]]
            entry["change_lower_in_pairs"][name] = sum(c < p for p, c in zip(pv, cv))
            # pair index as compare.py's seed key, so it pairs run i with run i
            entry["verdict"][name] = verdict(list(enumerate(pv)), list(enumerate(cv)),
                                             m["better"], m["bound"])
        block[wl] = entry
    return block, ok


def trace_pair(sides, workloads, scratch):
    """One traced run per side and workload; returns (block, all passed)."""
    block, ok = {}, True
    for wl in workloads:
        block[wl] = {}
        for side in ["parent", "change"]:
            rec, code = run_once(sides[side], wl, None, 1,
                                 scratch / f"trace-{wl}-{side}.jsonl")
            ok &= code == 0
            block[wl][side] = {k: round(v, 6) for k, v in rec["per_layer"].items() if v}
    return block, ok


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--confirm-seed", type=int)
    ap.add_argument("--trace-pair", action="store_true")
    ap.add_argument("--tier1", action="store_true")
    ap.add_argument("--description", default="")
    ap.add_argument("--scratch", type=Path, help="directory for the run records")
    args = ap.parse_args(argv)
    if not (args.parent / "perfbench" / "run.py").is_file():
        ap.error(f"{args.parent} has no perfbench/run.py")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    scratch = args.scratch or Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    scratch.mkdir(parents=True, exist_ok=True)
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    sides = {side: copy_side(path, scratch / f"tree-{side}") for side, path in checkouts.items()}
    doc = {"description": args.description}
    walls, ok = tier1_pair(sides, scratch) if args.tier1 else ({}, True)
    walls["cold_cli_op"], ok2 = cold_cli_ops(sides)
    ok &= ok2
    doc["workloads"], ok2 = series(sides, WORKLOADS, None, args, scratch, "main")
    ok &= ok2
    if args.confirm_seed is not None:
        block, ok2 = series(sides, CONFIRM_WORKLOADS, args.confirm_seed,
                            args, scratch, "confirm")
        ok &= ok2
        doc[f"confirm_seed_{args.confirm_seed}"] = {
            "what": f"a second, later series at --seed {args.confirm_seed}",
            "workloads": block}
    if args.trace_pair:
        block, ok2 = trace_pair(sides, WORKLOADS, scratch)
        ok &= ok2
        doc["trace_pair"] = {
            "what": "one --trace 1 pair per workload at run.py's default seed, parent first; "
                    "per-layer metrics per op, zeros omitted",
            **block}
    last = json.loads((scratch / f"main-{WORKLOADS[0]}-change.jsonl").read_text()
                      .splitlines()[-1])
    prov = last["provenance"]
    doc["provenance"] = {
        **{k: prov[k] for k in ("python", "numpy", "scipy", "nproc", "cpu_model")},
        "date": datetime.date.today().isoformat(),
        "seed": last["seed"],
        "seconds_per_run": last["seconds"],
        "order": "pairs alternate which side runs first, parent first in pair 1",
        "parent_git_sha": subprocess.run(
            ["git", "-C", str(checkouts["parent"]), "rev-parse", "HEAD"],
            capture_output=True, text=True).stdout.strip() or None,
    }
    doc["walls"] = walls
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}; run records in {scratch}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
