"""liftedcodes benchmark runner.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Runs one workload for about S seconds, checks every op's output, prints every
end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``)
with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  The full record of the
run, with its provenance, is appended to FILE (default
``perfbench/out/results.jsonl``); ``perfbench/compare.py`` reads those files.
Exit code 0 when every check passed, 1 when one failed, 2 on a usage or
environment error.  See perfbench/DESIGN.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden"

sys.path.insert(0, str(HERE))
from tracing import layer_metrics  # noqa: E402

# Each workload stresses a different layer; DESIGN.md gives the reasons.
WORKLOADS = {
    "mc-plane": {"kind": "mc", "q": 32, "m": 2, "k": 16, "s": 32, "delta": 1 / 16,
                 "trials": 8, "ref_reps": 1},
    "mc-space": {"kind": "mc", "q": 16, "m": 3, "k": 8, "s": 16, "delta": 1 / 16,
                 "trials": 8, "ref_reps": 1},
    "table": {"kind": "cli", "golden": "table_q32_m3.csv", "ref_reps": 3,
              "argv": ["table", "--q", "32", "--m", "3", "--kmin", "24", "--kmax", "31"]},
    "analyze": {"kind": "cli", "golden": "analyze_q8_m3_k7.json", "ref_reps": 3,
                "argv": ["analyze", "--q", "8", "--m", "3", "--k", "7",
                         "--checks", "infoset,qc,shorten-puncture"]},
}
DEFAULT_SEED = 1       # the seed the mc goldens were recorded at
SETUP_SAMPLES = 7      # fresh interpreters per run for setup_s (median)
MIN_COLD_OPS = 3       # table/analyze runs do at least this many ops
TAIL_LADDER = (99, 95, 90, 75, 50)
RUN_LIMIT_S = 160      # hard stop, below the 180 s a run may take
# End-to-end metrics printed and recorded but not in BENCHMARK.json: they
# follow the host's speed drift as much as the program (op_p50_s, op_tail_s,
# trials_per_s), time the reference and not the program (ref_p50_s), or are
# 0 when all is well (fail_ratio).  DESIGN.md has the measurements.
EXTRA_UNITS = {"op_p50_s": "s", "op_tail_s": "s", "ref_p50_s": "s",
               "trials_per_s": "1/s", "fail_ratio": "ratio"}


class CheckError(Exception):
    pass


class Worker:
    """One fresh interpreter running perfbench/worker.py."""

    def __init__(self, spec):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
        try:
            self.ready = self._read()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, **cmd):
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write('{"cmd": "exit"}\n')
            self.proc.stdin.close()
            self.proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def batch_seed(seed, i):
    """Experiment seed of batch i of an mc-* run."""
    return seed * 1_000_000 + i


def spec_for(name, **extra):
    return dict(WORKLOADS[name], src=str(SRC), **extra)


def timed_loop(seconds, min_ops, run_one, between=None):
    """Run ops one at a time while the next is expected to end within
    `seconds` (judged by the previous op), and at least `min_ops` of them.
    `between(fraction_of_window_used)` runs after each op."""
    start = time.perf_counter()
    last, i = 0.0, 0
    while i < min_ops or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        run_one(i)
        last = time.perf_counter() - t
        i += 1
        if between is not None:
            between((time.perf_counter() - start) / seconds)
    return i


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def load_golden(name):
    return (GOLDEN / name).read_text()


def check_mc(wl, reply, seed, op, golden):
    if "error" in reply:
        raise CheckError(reply["error"])
    t = reply["trials"]
    if reply["successes"] + reply["wrong"] + reply["erasures"] != t:
        raise CheckError(f"op {op}: successes + wrong + erasures != trials")
    if reply["hist_sum"] != wl["s"] * t:
        raise CheckError(f"op {op}: sum(query_histogram) != s * trials")
    if seed == DEFAULT_SEED and op < len(golden):
        got = [reply["successes"], reply["wrong"], reply["erasures"], reply["digest"]]
        if got != golden[op]:
            raise CheckError(f"op {op}: counts and report digest {got} != golden {golden[op]}")


def check_cli(wl, reply, golden):
    if "error" in reply:
        raise CheckError(reply["error"])
    if reply["rc"] != 0:
        raise CheckError(f"exit code {reply['rc']}")
    if wl["argv"][0] == "analyze" and json.loads(reply["stdout"]).get("passed") is not True:
        raise CheckError('analyze report lacks "passed": true')
    if reply["stdout"] != golden:
        raise CheckError("output differs from the golden file")


def paper_bound_check(wl, replies):
    """Pooled success rate must meet 1 - delta*s/(t+1) - 3 sigma."""
    trials = sum(r["trials"] for r in replies)
    ok = sum(r["successes"] for r in replies)
    t = (wl["s"] - wl["k"] - 1) // 2
    p0 = 1 - wl["delta"] * wl["s"] / (t + 1)
    floor = p0 - 3 * math.sqrt(p0 * (1 - p0) / trials)
    return {"trials": trials, "success_rate": ok / trials, "floor": floor,
            "passed": ok / trials >= floor}


class Ops:
    """Bookkeeping of attempted and failed ops, plus failed checks on the
    run as a whole (which are not ops)."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.run_failures = []

    def run(self, fn, *args):
        self.attempted += 1
        try:
            fn(*args)
            return True
        except CheckError as exc:
            self.failures.append(str(exc))
            return False


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

class SetupSamples(list):
    """setup_s samples, one fresh set-up-only interpreter each.  They are
    spread over the measurement window, so the median sees the same machine
    state as the ops do."""

    def __init__(self, name):
        super().__init__()
        self.spec = spec_for(name, setup_only=True)
        Worker(self.spec).close()  # warm-up: file cache, bytecode

    def due(self, fraction):
        while len(self) < min(SETUP_SAMPLES, math.ceil(fraction * SETUP_SAMPLES)):
            w = Worker(self.spec)
            w.close()
            self.append(w.setup_s)


def tail(values):
    """Highest ladder percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            return p, xs[math.ceil(p / 100 * n) - 1]
    return None, None


def run_mc(name, seed, seconds, ops, setup):
    wl = WORKLOADS[name]
    golden = json.loads(load_golden("mc.json"))[name]
    replies, passed = [], []
    with Worker(spec_for(name)) as w:
        def one(i):
            reply = w.call(cmd="mc", op=i, seed=batch_seed(seed, i))
            replies.append(reply)
            if ops.run(check_mc, wl, reply, seed, i, golden):
                passed.append(reply)
        timed_loop(seconds, 1, one, setup.due)
    walls = op_walls(replies)
    bound = paper_bound_check(wl, passed) if passed else None
    if bound is None:
        ops.run_failures.append("paper bound not checked: no batch passed its checks")
    elif not bound["passed"]:
        ops.run_failures.append(f"paper bound missed: {bound}")
    metrics, detail = op_time_metrics(replies)
    metrics["trials_per_s"] = wl["trials"] * len(walls) / sum(walls)
    metrics["peak_rss_mb"] = replies[-1]["rss_mb"]
    detail["paper_bound"] = bound
    return metrics, detail


def op_time_metrics(replies):
    """op_p50_ref, the gated time, is the median over ops of an op's wall time
    divided by the reference time around it: worker.py's two reference loops,
    timed in the same interpreter just before and just after the op, and
    averaged.  This host's speed drifts by up to 60% over seconds to minutes
    and moves op_p50_s by as much; the reference drifts with it."""
    walls = op_walls(replies)
    refs = [(sum(r["ref_before"]) + sum(r["ref_after"])) / 2
            for r in replies if "wall_s" in r]
    p, tail_s = tail(walls)
    return {"op_p50_ref": statistics.median(w / f for w, f in zip(walls, refs)),
            "op_p50_s": statistics.median(walls), "op_tail_s": tail_s,
            "ref_p50_s": statistics.median(refs)}, \
        {"op_walls": walls, "op_refs": refs, "tail_percentile": p}


def op_walls(replies):
    """Wall times of every op that ran to the end, checks passed or not."""
    walls = [r["wall_s"] for r in replies if "wall_s" in r]
    if not walls:
        raise RuntimeError("no op ran to the end")
    return walls


def run_cli(name, seconds, ops, setup):
    wl = WORKLOADS[name]
    golden = load_golden(wl["golden"])
    replies = []

    def one(i):
        with Worker(spec_for(name)) as w:
            replies.append(w.call(cmd="cli", op=i))
        ops.run(check_cli, wl, replies[-1], golden)
    timed_loop(seconds, MIN_COLD_OPS, one, setup.due)
    walls = op_walls(replies)
    rss = [r["rss_mb"] for r in replies]
    metrics, detail = op_time_metrics(replies)
    metrics["peak_rss_mb"] = statistics.median(rss)
    detail["op_rss_mb"] = rss
    return metrics, detail


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def check_same(a, b, key, op):
    if "error" in b:
        raise CheckError(b["error"])
    if a.get(key) != b.get(key):
        raise CheckError(f"op {op}: traced output differs from untraced")


def run_traced(name, seed, seconds, ops):
    """Each input runs once untraced and once traced, in alternating order
    (untraced first on even ops), so a drift in machine speed cancels out of
    trace.overhead_ratio.  mc-* keeps one interpreter per side; table and
    analyze start a fresh one per op."""
    wl = WORKLOADS[name]
    plain, traced, spans, patched = [], [], [], {}
    with contextlib.ExitStack() as stack:
        if wl["kind"] == "mc":
            golden = json.loads(load_golden("mc.json"))[name]
            workers = [stack.enter_context(Worker(spec_for(name, trace=t)))
                       for t in (False, True)]
            patched.update(workers[1].ready["patched"])
            key = "digest"

            def op(trace, i):
                return workers[trace].call(cmd="mc", op=i, seed=batch_seed(seed, i))

            def check(reply, i):
                check_mc(wl, reply, seed, i, golden)
        else:
            golden = load_golden(wl["golden"])
            key = "stdout"

            def op(trace, i):
                with Worker(spec_for(name, trace=trace)) as w:
                    reply = w.call(cmd="cli", op=i)
                    if trace:
                        spans.extend(w.call(cmd="spans")["spans"])
                        patched.update(w.ready["patched"])
                return reply

            def check(reply, i):
                check_cli(wl, reply, golden)

        def pair(i):
            got = {t: op(t, i) for t in ((False, True) if i % 2 == 0 else (True, False))}
            ops.run(check, got[False], i)
            ops.run(check_same, got[False], got[True], key, i)
            plain.append(got[False])
            traced.append(got[True])

        timed_loop(seconds, 2, pair)
        if wl["kind"] == "mc":
            spans.extend(workers[1].call(cmd="spans")["spans"])

    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    with open(spans_path, "w") as fh:
        for sp in spans:
            fh.write(json.dumps(sp) + "\n")
    walls = {i: r["wall_s"] for i, r in enumerate(traced) if "wall_s" in r}
    if not walls:
        raise RuntimeError("no traced op ran to the end")
    metrics = layer_metrics(spans, walls)
    t_plain = sum(op_walls(plain))
    t_traced = sum(walls.values())
    metrics["trace.overhead_ratio"] = (t_traced - t_plain) / t_plain
    return metrics, {"patched": patched, "spans_file": str(spans_path.relative_to(ROOT)),
                     "untraced_walls": [r.get("wall_s") for r in plain],
                     "traced_walls": [r.get("wall_s") for r in traced]}


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _git(*args):
    try:
        res = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance():
    # only a repository rooted at this checkout describes the code measured
    top = _git("rev-parse", "--show-toplevel")
    sha = _git("rev-parse", "HEAD") if top and Path(top).resolve() == ROOT else None
    status = _git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(OUT / "results.jsonl"),
                    help="JSON-lines file the run record is appended to")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "liftedcodes" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    prov = provenance()
    name, wl = args.workload, WORKLOADS[args.workload]
    ops = Ops()
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov}

    try:
        if args.trace:
            metrics, detail = run_traced(name, args.seed, args.seconds, ops)
        else:
            setup = SetupSamples(name)
            if wl["kind"] == "mc":
                metrics, detail = run_mc(name, args.seed, args.seconds, ops, setup)
            else:
                metrics, detail = run_cli(name, args.seconds, ops, setup)
            setup.due(1.0)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for msg in ops.failures:
            print(f"FAILED: {msg}", file=sys.stderr)
        return 1
    if args.trace:
        wanted = bench["per_layer"]
        record["per_layer"] = metrics
    else:
        record["setup_samples"] = list(setup)
        metrics["setup_s"] = statistics.median(setup)
        metrics["fail_ratio"] = len(ops.failures) / ops.attempted
        wanted = bench["end_to_end"]
        record["end_to_end"] = metrics
    record.update(detail)
    prov["loadavg_end"] = list(os.getloadavg())
    correct = not ops.failures and not ops.run_failures
    record.update(correct=correct, attempted=ops.attempted, failed=len(ops.failures),
                  failures=ops.failures + ops.run_failures)
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record) + "\n")

    units = {m["name"]: m["unit"] for m in wanted}
    for key, val in metrics.items():
        unit = units.get(key, EXTRA_UNITS.get(key, ""))
        note = ""
        if key == "op_tail_s" and val is not None:
            note = f"  (p{detail['tail_percentile']} of {len(detail['op_walls'])} ops)"
        shown = "n/a (too few ops)" if val is None else f"{val:.6g} {unit}"
        print(f"{name}  {key:<40} {shown}{note}")
    if not args.trace:
        print(f"{name}  {'waiting time':<40} absent (no queue or pool)")
    for msg in record["failures"]:
        print(f"FAILED: {msg}", file=sys.stderr)
    missing = [m for m in units if m not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 2
    result = {"correct": correct, "attempted": ops.attempted, "failed": len(ops.failures),
              "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


def _alarm(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(RUN_LIMIT_S)
    sys.exit(main())
