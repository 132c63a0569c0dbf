"""Spans around the package's public functions, and the per-layer numbers
derived from them.

The tracer is installed from the benchmark's own files: it replaces every
module-level name that is bound to a traced function, in every loaded
``liftedcodes`` module, so a name bound at import (``decode`` binds
``encode``, ``analysis`` binds ``adeg``) is traced where it is looked up.
Scalar field operations (``FiniteField.add``/``mul``/...) are deliberately
not wrapped: they run millions of times per op, so their time counts toward
the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs that get a span; "ExtensionIso" spans construction.
TRACED = {
    "decode": ["mc_experiment", "local_correct", "prs_decode", "query_gen", "corrupt_word"],
    "codes": ["make_code", "encode", "evaluate_monomials", "shorten_at_infinity",
              "puncture_to_infinity", "code_equal"],
    "geometry": ["random_embedding_through", "enumerate_points"],
    "degrees": ["adeg", "pdeg"],
    "linalg": ["rref", "rank", "nullspace", "gf_matmul", "gf_matvec"],
    "gf": ["GF", "ExtensionIso"],
    "analysis": ["rate_table", "information_set_check", "qc_certificate"],
    "cli": ["main"],
}


def _shape(a):
    shape = getattr(a, "shape", None) or (len(a), len(a[0]) if len(a) else 0)
    return (1, shape[0]) if len(shape) == 1 else shape


# Work counts recorded on a span, computed from arguments and results.
def _count_encode(args, out):
    return {"coords": len(out)}


def _count_local_correct(args, out):
    sym, queried = out
    return {"ok": int(sym is not None), "reads": len(queried) + 1}


def _count_prs_decode(args, out):
    return {"ok": int(out is not None)}


def _count_rref(args, out):
    r, c = _shape(args[1])
    return {"cells": r * c}


def _count_gf_matmul(args, out):
    r, k = _shape(args[1])
    c = _shape(args[2])[1]
    # one field multiply-add per (i, l, j); bytes: both inputs and the output,
    # one byte per element.  Computed from shapes, not measured.
    return {"ops": r * k * c, "bytes": r * k + k * c + r * c}


def _count_adeg(args, out):
    m, _k, q = args[:3]
    return {"box": q ** m}


def _count_evaluate_monomials(args, out):
    return {"cells": out.shape[0] * out.shape[1]}


COUNTERS = {
    "codes.encode": _count_encode,
    "decode.local_correct": _count_local_correct,
    "decode.prs_decode": _count_prs_decode,
    "linalg.rref": _count_rref,
    "linalg.gf_matmul": _count_gf_matmul,
    "degrees.adeg": _count_adeg,
    "codes.evaluate_monomials": _count_evaluate_monomials,
}


class Tracer:
    """In-memory span recorder.  A span is
    [name, start, end, parent_span_id, op_id, counts]; its id is its index."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, out)
            return out

        return traced

    def install(self):
        """Patch every traced name in every loaded liftedcodes module.
        Returns {span name: number of module bindings replaced}."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "liftedcodes" or name.startswith("liftedcodes.")}
        patched = {}
        for short, names in TRACED.items():
            home = mods[f"liftedcodes.{short}"]
            for fname in names:
                span = f"{short}.{fname}"
                orig = getattr(home, fname)
                if isinstance(orig, type):
                    orig.__init__ = self.wrap(span, orig.__init__)
                    patched[span] = 1
                    continue
                wrapper = self.wrap(span, orig)
                hits = 0
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            hits += 1
                patched[span] = hits
        missing = [s for s, n in patched.items() if n == 0]
        if missing:
            raise RuntimeError(f"traced names not found: {missing}")
        return patched

    def records(self):
        return [{"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "op": op, "counts": counts}
                for sid, (name, start, end, parent, op, counts) in enumerate(self.spans)]


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """(op, span id) -> duration minus the time its direct child spans cover.
    Span ids are unique within an op; a parent is always in the same op."""
    children = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault((sp["op"], sp["parent"]), []).append((sp["start"], sp["end"]))
    return {(sp["op"], sp["id"]):
            (sp["end"] - sp["start"]) - _covered(children.get((sp["op"], sp["id"]), ()))
            for sp in spans}


def _ratio(num, den):
    # a ratio whose base is zero on a workload is reported as 0 (absent)
    return num / den if den else 0.0


def layer_metrics(spans, op_walls):
    """Per-layer metrics over the spans of the given ops.

    ``op_walls`` maps op id -> wall seconds of that op.  Calls, self time and
    work counts are means per op; shares are over the summed op wall time.
    """
    ops = set(op_walls)
    mine = [sp for sp in spans if sp["op"] in ops]
    selfs = self_times(mine)
    n_ops = len(ops)
    wall = sum(op_walls.values())
    calls, self_s, counts = {}, {}, {}
    for sp in mine:
        name = sp["name"]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[(sp["op"], sp["id"])]
        for key, val in (sp["counts"] or {}).items():
            ckey = (name, key)
            counts[ckey] = counts.get(ckey, 0) + val

    out = {}
    for short, names in TRACED.items():
        share = 0.0
        for fname in names:
            span = f"{short}.{fname}"
            out[f"{span}.calls"] = calls.get(span, 0) / n_ops
            out[f"{span}.self_s"] = self_s.get(span, 0.0) / n_ops
            share += self_s.get(span, 0.0)
        out[f"{short}.share"] = share / wall
    out["unspanned.share"] = 1.0 - sum(self_s.values()) / wall

    def c(name, key):
        return counts.get((name, key), 0)

    out["codes.encode.read_ratio"] = _ratio(c("decode.local_correct", "reads"),
                                            c("codes.encode", "coords"))
    out["decode.prs_decode.ok_ratio"] = _ratio(c("decode.prs_decode", "ok"),
                                               calls.get("decode.prs_decode", 0))
    out["decode.local_correct.ok_ratio"] = _ratio(c("decode.local_correct", "ok"),
                                                  calls.get("decode.local_correct", 0))
    out["linalg.rref.cells"] = c("linalg.rref", "cells") / n_ops
    out["linalg.rref.cells_per_s"] = _ratio(c("linalg.rref", "cells"),
                                            self_s.get("linalg.rref", 0.0))
    out["linalg.gf_matmul.ops"] = c("linalg.gf_matmul", "ops") / n_ops
    out["linalg.gf_matmul.bytes_computed"] = c("linalg.gf_matmul", "bytes") / n_ops
    out["degrees.adeg.box_tuples"] = c("degrees.adeg", "box") / n_ops
    out["degrees.adeg.tuples_per_s"] = _ratio(c("degrees.adeg", "box"),
                                              self_s.get("degrees.adeg", 0.0))
    out["codes.evaluate_monomials.cells"] = c("codes.evaluate_monomials", "cells") / n_ops
    return out
