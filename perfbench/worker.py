"""One workload run in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --passes P
        --limit S [--trace] [--smoke] [--trace-out PATH]

Repeats the workload's fixed operation list (one pass) P times, timing each
operation's thunk alone, and prints one JSON report as its last stdout line.
The pass count is fixed rather than timed, so that a seed always attempts
the same operations and fails the same ones.  Only a run still going after
S seconds stops early.

Between passes an untraced worker times set-up: it starts an interpreter
that imports ``wreathlab.cli`` and prints ``time.perf_counter()``.  On Linux
that clock is CLOCK_MONOTONIC, shared by all processes, so the difference to
the moment of the spawn is the set-up time.  Just before, it times a bare
interpreter the same way: how long a process takes to start drifts with the
host's load by 30% within minutes, and the ratio of the two drifts far less.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, required=True)
    p.add_argument("--limit", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--trace-out")
    return p.parse_args(argv)


SETUP_CODE = "import wreathlab.cli, sys, time; sys.stdout.write(repr(time.perf_counter()))"
BARE_CODE = "import sys, time; sys.stdout.write(repr(time.perf_counter()))"
SETUP_PROBES_PER_PASS = 2
BARE_REF_S = 0.04     # a bare interpreter's start in the defining host's fast state
PROBE_LOOP = 10_000
PROBE_FRACTIONS = [Fraction(i * 7 % 9 + 1, i * 5 % 8 + 1) for i in range(24)]
PROBE_REF_MS = (0.65, 0.4)  # the two loops' times in the defining host's fast state


def start_time(code: str) -> float:
    """Seconds from spawning an interpreter until ``code`` has run."""
    spawned = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(done.stdout) - spawned


def speed_probe() -> tuple[float, ...]:
    """Wall and CPU milliseconds of two fixed pure-Python loops: integer
    bytecode, then Fraction arithmetic.

    The host's vCPUs switch between fast and slow states every second or so,
    and can stay slow for minutes.  The two kinds of work slow by different
    factors there, up to 2x.  A probe on each side of every op samples the
    state the op ran in, so that run.py can scale the op's time to the
    reference speed (PROBE_REF_MS).
    """
    clocks = [(time.perf_counter(), time.process_time())]
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    clocks.append((time.perf_counter(), time.process_time()))
    acc = Fraction(0)
    for a in PROBE_FRACTIONS:
        for b in PROBE_FRACTIONS[:6]:
            acc += a * b
    clocks.append((time.perf_counter(), time.process_time()))
    return tuple((end[c] - start[c]) * 1e3
                 for start, end in zip(clocks, clocks[1:]) for c in (0, 1))


def run_pass(ops, index: int, tracer) -> dict:
    """Run every operation once; only the thunks are timed."""
    from workloads import Failure

    gc.collect()
    first = tracer.begin_pass(index) if tracer else 0
    ctx: dict = {}
    outputs, inputs = hashlib.sha256(), hashlib.sha256()
    wall_ms, cpu_ms, failures, props, outcomes, probes = [], [], [], [], [], []
    for i, op in enumerate(ops):
        try:
            prepared = op.make(random.Random(op.seed), ctx)
        except Exception as exc:  # a broken input generator fails this op, not the run
            failures.append((i, op.kind, Failure(f"make raised {type(exc).__name__}: {exc}")))
            wall_ms.append(0.0)
            cpu_ms.append(0.0)
            probes.append((0.0,) * 8)
            continue
        if tracer:
            tracer.op = i
        before = speed_probe()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            value, exc = prepared.thunk(), None
        except Exception as error:
            value, exc = None, error
        t1, c1 = time.perf_counter(), time.process_time()
        after = speed_probe()
        probes.append(before + after)
        if tracer:
            tracer.op = -1
        try:
            summary, failure = prepared.check(value, exc)
        except Exception as error:
            summary, failure = "", Failure(f"check raised {type(error).__name__}: {error}")
        wall_ms.append((t1 - t0) * 1e3)
        cpu_ms.append((c1 - c0) * 1e3)
        inputs.update(f"{op.kind}|{prepared.key}\n".encode())
        outputs.update(f"{op.kind}|{summary}|{failure and failure.text}\n".encode())
        props.append(prepared.props)
        outcomes.append((op.kind, summary if len(summary) < 40 else ""))
        if failure is not None:
            failures.append((i, op.kind, failure))
        del value, exc, prepared  # a kept traceback would pin the op's inputs in memory
    result = {
        "wall_ms": wall_ms,
        "cpu_ms": cpu_ms,
        "failures": [{"op": i, "kind": kind, "text": f.text, "known": f.known}
                     for i, kind, f in failures],
        "input_digest": inputs.hexdigest()[:16],
        "output_digest": outputs.hexdigest()[:16],
        "props": props,
        "outcomes": outcomes,
        "probes": probes,
    }
    if tracer:
        result["times"], result["counts"] = tracer.summary(first)
        result["alloc_peak_mb"] = tracer.alloc_peak_mb()
    return result


def input_properties(props: list[dict], outcomes: list[tuple]) -> dict:
    """What share of the inputs has each property a later change may act on."""
    from workloads import DENSE_CAP, VALIDATION_CLIFF

    orders = [p["order"] for p in props if "order" in p]
    wreaths = [p["wreath_order"] for p in props if "wreath_order" in p]
    loads = [p["corrupted"] for p in props if "corrupted" in p]
    expected = Counter(p["search"] for p in props if "search" in p)
    seen = Counter(s for kind, s in outcomes if kind == "embeds_into")

    def share(part, whole):
        return {"count": part, "of": whole, "share": round(part / whole, 4) if whole else None}

    return {
        "order_histogram": dict(sorted(Counter(
            f"<=2^{max(n - 1, 1).bit_length()}" for n in orders).items(),
            key=lambda kv: int(kv[0][4:]))),
        "order_le_512": share(sum(n <= VALIDATION_CLIFF for n in orders), len(orders)),
        "order_above_512": share(sum(n > VALIDATION_CLIFF for n in orders), len(orders)),
        "wreath_dense": share(sum(n <= DENSE_CAP for n in wreaths), len(wreaths)),
        "wreath_structural": share(sum(n > DENSE_CAP for n in wreaths), len(wreaths)),
        "field_degree_k_histogram": dict(sorted(Counter(p["k"] for p in props if "k" in p).items())),
        "corrupted_json": share(sum(loads), len(loads)),
        "search_expected": dict(expected),
        "search_outcomes": dict(seen),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import wreathlab
    import wreathlab.cli  # noqa: F401  (this import also writes the bytecode caches)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(wreathlab.__file__).startswith(src + os.sep):
        print(f"wreathlab imported from {wreathlab.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    passes, setup = [], []
    start = time.perf_counter()
    while len(passes) < args.passes:
        passes.append(run_pass(ops, len(passes), tracer))
        if len(passes) == 1:
            # later passes repeat the same work but let the allocator's heap grow
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not tracer:
            setup += [(start_time(BARE_CODE), start_time(SETUP_CODE))
                      for _ in range(SETUP_PROBES_PER_PASS)]
        if time.perf_counter() - start > args.limit:
            break
    run_s = time.perf_counter() - start

    first = passes[0]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup,
        "op_count": len(ops),
        "passes": len(passes),
        "run_s": run_s,
        "probe_ref_ms": PROBE_REF_MS,
        "bare_ref_s": BARE_REF_S,
        "wall_ms": [p["wall_ms"] for p in passes],
        "cpu_ms": [p["cpu_ms"] for p in passes],
        "probes": [p["probes"] for p in passes],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops) * len(passes),
        "failures": [f for p in passes for f in p["failures"]],
        "known_defects": {f["known"]: workloads.KNOWN_DEFECTS[f["known"]]
                          for p in passes for f in p["failures"] if f["known"]},
        "input_digest": first["input_digest"],
        "output_digests": sorted({p["output_digest"] for p in passes}),
        "inputs": input_properties(first["props"], first["outcomes"]),
    }
    if tracer:
        # pass 0 also measured allocation peaks, which slows wreath builds
        timed = passes[1:] or passes
        for key in ("wall_ms", "cpu_ms", "probes"):
            report[key] = [p[key] for p in timed]
        report["times"] = {k: statistics.median(p["times"][k] for p in timed)
                           for k in first["times"]}
        report["times"]["wreath.peak_alloc_mb"] = first["alloc_peak_mb"]
        report["counts"] = first["counts"]
        report["counts_repeat"] = all(p["counts"] == first["counts"] for p in passes)
        if args.trace_out:
            tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
