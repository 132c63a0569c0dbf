"""One benchmark interpreter: imports the package, sets up the workload, then
runs ops on request.

Usage: python3 worker.py '<spec json>'

The spec names the workload kind and its parameters, whether to trace, and
whether to exit right after set-up (a set-up-time sample).  Set-up ends with
a ``{"ready": ...}`` line on stdout.  After that the worker reads one JSON
command per stdin line and answers each with one JSON line:

  {"cmd": "mc", "op": i, "seed": s}   one mc_experiment batch
  {"cmd": "cli", "op": i}             one CLI invocation, stdout captured
  {"cmd": "spans"}                    the spans recorded so far
  {"cmd": "exit"}

Each op is timed inside this interpreter, after the import.  Every op reply
also carries the reference times measured just before and just after the op
(``ref_before``, ``ref_after``): fixed work that calls nothing in the
package, so that run.py can divide out the host's speed at that moment.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _send(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])

    import liftedcodes
    from liftedcodes import cli, codes, decode

    here = os.path.realpath(liftedcodes.__file__)
    if not here.startswith(src + os.sep):
        raise SystemExit(f"liftedcodes imported from {here}, not from {src}")

    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer
        tracer = Tracer()
        patched = tracer.install()
        tracer.op = "setup"

    code = None
    if spec["kind"] == "mc":
        # make_code builds the generator matrix, which is part of set-up
        code = codes.make_code("PLift", spec["q"], spec["m"], spec["k"])
    ready = {"ready": True}
    if tracer is not None:
        tracer.op = None
        ready["patched"] = patched
    _send(ready)
    if spec.get("setup_only"):
        return

    before = None
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "exit":
            break
        if cmd["cmd"] == "spans":
            _send({"spans": tracer.records()})
            continue
        if before is None:
            before = _ref(spec["ref_reps"])
        if tracer is not None:
            tracer.op = cmd["op"]
        try:
            if cmd["cmd"] == "mc":
                reply = _run_mc(decode, code, spec, cmd["seed"])
            else:
                reply = _run_cli(cli, spec["argv"])
        except Exception:
            reply = {"error": traceback.format_exc()}
        if tracer is not None:
            tracer.op = None
        reply["rss_mb"] = _rss_mb()
        after = _ref(spec["ref_reps"])
        reply["ref_before"], reply["ref_after"] = before, after
        before = after
        _send(reply)


# Reference work.  _ref_py is interpreter-bound (int arithmetic, tuples, a
# dict), like the package's scalar field code; _ref_np gathers from a 256x256
# uint8 table, like its vectorised field code.  Each takes 5-10 ms.
_RNG = np.random.default_rng(0)
_REF_TABLE = _RNG.integers(0, 256, (256, 256), dtype=np.uint8)
_REF_ROWS = _RNG.integers(0, 256, (96, 1024), dtype=np.uint8)


def _ref_py():
    t0 = time.perf_counter()
    acc, d = 0, {}
    for i in range(30000):
        acc = (acc * 31 + i) % 65521
        d[(i & 255, acc & 7)] = acc
    return time.perf_counter() - t0


def _ref_np():
    t0 = time.perf_counter()
    b = _REF_ROWS
    for i in range(10):
        b = _REF_TABLE[b, _REF_ROWS[i][None, :]] ^ _REF_ROWS
    return time.perf_counter() - t0


def _ref(reps):
    """[_ref_py, _ref_np] wall times, each the median of `reps` runs."""
    return [statistics.median(f() for _ in range(reps)) for f in (_ref_py, _ref_np)]


def _run_mc(decode, code, spec, seed):
    cfg = decode.CorrectionConfig(s=spec["s"], delta=spec["delta"], seed=seed)
    t0 = time.perf_counter()
    rep = decode.mc_experiment(code, cfg, trials=spec["trials"])
    wall = time.perf_counter() - t0
    d = rep.to_dict()
    text = json.dumps(d, sort_keys=True)
    return {"wall_s": wall, "trials": d["trials"], "successes": d["successes"],
            "wrong": d["wrong"], "erasures": d["erasures"],
            "hist_sum": sum(d["query_histogram"]),
            "digest": hashlib.sha256(text.encode()).hexdigest()}


def _run_cli(cli, argv):
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "rc": rc, "stdout": buf.getvalue()}


if __name__ == "__main__":
    main()
