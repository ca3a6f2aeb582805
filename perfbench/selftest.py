#!/usr/bin/env python3
"""Self-tests of the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/selftest.py

1. The tracer's self-time arithmetic on a synthetic nested call.
2. A smoke run on cantor-1-3 emits every metric BENCHMARK.json names,
   with its unit and direction, untraced and traced, and passes its checks.
3. A tampered reference (an artifact hash, a certified tau) is reported
   as a failed operation, not as a pass.
"""

from __future__ import annotations

import copy
import json
import sys

import run
from layers import PER_LAYER
from tracer import Patcher, Tracer

SMOKE = run.Workload("smoke", ("cantor-1-3",), "build", 3, mass_batch=200)


def check(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def test_tracer_self_time():
    now = [0]
    t = Tracer(clock=lambda: now[0])

    def inner(step):
        now[0] += step
        return step

    def outer():
        now[0] += 2
        t.call("inner", inner, 3)
        now[0] += 5
        traced_inner(4)

    seen = []
    traced_inner = t.wrap(inner, "inner", hook=lambda r, a: seen.append((r, a)),
                          rename=lambda r, a: f"inner.{r}")
    t.call("outer", outer)
    # outer: 2 + 3 + 5 + 4 = 14 in total, 14 - (3 + 4) = 7 of it its own
    check(t.records[("outer", None, "outer")] == [1, 14, 7], f"outer {t.records}")
    check(t.records[("outer", "outer", "inner")] == [1, 3, 3], f"inner {t.records}")
    check(t.records[("outer", "outer", "inner.4")] == [1, 4, 4], f"renamed {t.records}")
    check(seen == [(4, (4,))], f"hook saw {seen}")
    check(t.layer_self_s("inner") == 7e-9, "layer self time")
    check(not t.stack, "a span stayed open")

    class Owner:
        def f(self):
            return 1

    p = Patcher()
    original = Owner.__dict__["f"]
    p.replace(Owner, "f", t.wrap(Owner.f, "owner.f"))
    check(Owner().f() == 1 and t.calls("owner.f") == 1, "wrapped method")
    p.restore()
    check(Owner.__dict__["f"] is original, "patch not restored")


def smoke(refs, trace):
    result, lines = run.run_workload(SMOKE, seed=7, seconds=0.5, trace=trace,
                                     refs=refs, imports=[(0.0, 0.0)])
    json.dumps(result)
    return result, lines


def test_smoke_emits_every_metric(refs):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, key, spec in ((False, "end_to_end", run.END_TO_END),
                             (True, "per_layer", PER_LAYER)):
        result, lines = smoke(refs, trace)
        check(result["correct"] and result["failed"] == 0,
              f"smoke run failed checks: {lines}")
        declared = {m["name"]: m for m in bench[key]}
        check(set(result["metrics"]) == set(declared),
              f"{key}: emitted {sorted(result['metrics'])}, declared {sorted(declared)}")
        for name, m in declared.items():
            check(result["metrics"][name]["unit"] == m["unit"], f"unit of {name}")
            check(spec[name] == (m["unit"], m["better"]), f"direction of {name}")
            check(any(line.startswith(name + " ") and f"({m['better']} is better)" in line
                      for line in lines), f"{name} missing from the report")
    from selfsim.maps import Similitude
    check(not hasattr(Similitude.compose, "__wrapped__"), "tracer left installed")


def test_tampered_reference_fails(refs):
    bad = copy.deepcopy(refs)
    arts = bad["cantor-1-3"]["artifacts"]
    first = sorted(arts)[0]
    arts[first] = "0" * 64
    result, lines = smoke(bad, False)
    check(not result["correct"] and result["failed"] >= 1,
          "a tampered artifact hash passed")
    check(any(first in line for line in lines), f"failure not reported: {lines}")

    bad = copy.deepcopy(refs)
    table = bad["cantor-1-3"]["tau"]["16"]
    for q in ("1.0", "2.0", "3.0"):
        table[q][0] += 1e-6
    result, lines = smoke(bad, False)
    check(not result["correct"] and result["failed"] >= 1,
          "a tampered certified tau passed")


def main() -> int:
    run.cap_blas_threads()
    run.import_selfsim()
    refs = run.load_references()
    test_tracer_self_time()
    print("ok tracer self time")
    test_smoke_emits_every_metric(refs)
    print("ok smoke run emits every metric")
    test_tampered_reference_fails(refs)
    print("ok tampered references fail")
    return 0


if __name__ == "__main__":
    sys.exit(main())
