"""wreathlab benchmark: the command that runs one workload.

    python3 perfbench/run.py --workload catalog|embed|tower --seed N
        --seconds S --trace 0|1 [--smoke]

Run from the root of a wreathlab checkout: the package is imported from
./src, so nothing is built or installed.  With ``--trace 0`` it prints every
end-to-end metric; with ``--trace 1`` every per-layer metric, from a traced
run beside an untraced one of the same seed.  Each workload run is a fresh
interpreter (perfbench/worker.py).  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the line before it holds
the run's op count, digests, failures and input properties.  BENCHMARK.json
lists the metrics and perfbench/README.md says what each one measures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("catalog", "embed", "tower")
DEADLINE_S = 170          # every run must end within 180 s
MIN_PASSES = 3
# Seconds one pass takes (untraced, traced) on the defining host: the pass
# count is --seconds over this, so that a seed's runs all do the same work.
PASS_S = {"catalog": (6.0, 5.0), "embed": (5.0, 5.0), "tower": (4.5, 4.0)}
SMOOTH = 3                # probes of this many ops on each side of an op give its host speed
UNITS = {"s": "s", "mb": "MB", "bytes": "bytes"}  # per-layer metric name suffix -> unit


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one pass of a reduced op list, for the self-test")
    return p.parse_args(argv)


def environment(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"  # set iteration order, and so every output digest, repeats
    # set-up is timed as users pay it after the first import: from bytecode caches
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # the package is single-threaded; keep numpy so
    return env


def pass_count(args, seconds: float, trace: bool) -> int:
    if args.smoke:
        return 1
    return max(MIN_PASSES, round(seconds / PASS_S[args.workload][trace]))


def run_worker(env: dict, args, seconds: float, trace: bool, deadline: float) -> dict:
    limit = max(deadline - time.perf_counter() - 15, 1)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--passes", str(pass_count(args, seconds, trace)),
           "--limit", f"{limit:.1f}"]
    if args.smoke:
        cmd.append("--smoke")
    if trace:
        os.makedirs(".bench_out", exist_ok=True)
        cmd += ["--trace", "--trace-out",
                os.path.join(".bench_out", f"trace-{args.workload}-{args.seed}.json")]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.perf_counter(), 1))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# The weights of the speed probe's integer and Fraction loops in a workload's
# host slowdown.  Ops of different kinds slow by different factors in the
# host's slow states: numpy work least, Fraction arithmetic most.  These
# weights made the scaled times of a seed vary least between host states:
# catalog is mostly numpy table checks, embed adds the pure-Python wreath
# codec, tower is Fraction arithmetic.
PROBE_WEIGHTS = {"catalog": (0.9, 0.1), "embed": (0.55, 0.45), "tower": (0.4, 0.6)}
LOOPS = 2                 # a probe record: wall, CPU of each loop, before and after the op


def slowdowns(probes: list, refs, weights, clock: int) -> list[float]:
    """How much slower than the reference the host ran at each probe.

    ``clock`` 0 picks wall time, 1 CPU time.
    """
    out = []
    for p in probes:
        for side in (0, 2 * LOOPS):
            if p[side] > 0:
                out.append(sum(w * p[side + 2 * j + clock] / ref
                               for j, (w, ref) in enumerate(zip(weights, refs))))
    return out


def per_op(report: dict, key: str = "wall_ms", scale: bool = True) -> list[float]:
    """Each op's median time over the passes, in milliseconds.

    With ``scale`` every timing is first brought to the reference host speed:
    divided by the median slowdown of the speed probes taken around this op
    and its SMOOTH neighbours in the same pass.  The host's state lasts a
    second or more, so these probes sample the state the op ran in; the
    program's own cost passes through unchanged.
    """
    weights = PROBE_WEIGHTS[report["workload"]]
    clock = 1 if key == "cpu_ms" else 0
    samples = []
    for times, probes in zip(report[key], report["probes"]):
        row = []
        for i, t in enumerate(times):
            near = slowdowns(probes[max(0, i - SMOOTH):i + SMOOTH + 1],
                             report["probe_ref_ms"], weights, clock)
            row.append(t / statistics.median(near) if scale and near else t)
        samples.append(row)
    return [statistics.median(per_pass) for per_pass in zip(*samples)]


def pass_wall_s(report: dict) -> float:
    return sum(per_op(report)) / 1e3


def host_slowdown(report: dict) -> float:
    """The median slowdown of the host over the run."""
    weights = PROBE_WEIGHTS[report["workload"]]
    return statistics.median(
        x for row in report["probes"] for x in slowdowns(row, report["probe_ref_ms"], weights, 0))


def setup_s(report: dict, scale: bool = True) -> float:
    """The median set-up time; with ``scale``, each sample times the
    reference start of a bare interpreter over the bare start timed just
    before it."""
    return statistics.median(
        full * report["bare_ref_s"] / bare if scale else full for bare, full in report["setup_s"])


def end_to_end(report: dict) -> dict:
    latencies = per_op(report)
    deciles = statistics.quantiles(latencies, n=10)
    failed = len(report["failures"])
    return {
        "setup_s": metric(setup_s(report), "s"),
        "wall_s": metric(sum(latencies) / 1e3, "s"),
        "cpu_s": metric(sum(per_op(report, "cpu_ms")) / 1e3, "s"),
        "op_p50_ms": metric(statistics.median(latencies), "ms"),
        "op_p90_ms": metric(deciles[8], "ms"),
        "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
        "success_ratio": metric((report["attempted"] - failed) / report["attempted"], "ratio"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_ratio") or name == "trace.overhead":
        return "ratio"
    return UNITS.get(name.rsplit("_", 1)[-1], "count")


def per_layer(plain: dict, traced: dict) -> dict:
    values = {**traced["times"], **traced["counts"]}
    values["trace.overhead"] = pass_wall_s(traced) / pass_wall_s(plain)
    return {name: metric(value, layer_unit(name)) for name, value in values.items()}


def unexpected(report: dict) -> list[dict]:
    return [f for f in report["failures"] if f["known"] is None]


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wreathlab", "__init__.py")):
        print("run.py: no wreathlab source at ./src/wreathlab; run from a checkout root",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    env = environment(root)
    try:
        if args.trace:
            half = args.seconds / 2
            plain = run_worker(env, args, half, trace=False, deadline=deadline)
            traced = run_worker(env, args, half, trace=True, deadline=deadline)
            reports = [plain, traced]
            metrics = per_layer(plain, traced)
        else:
            plain = run_worker(env, args, args.seconds, trace=False, deadline=deadline)
            reports = [plain]
            metrics = end_to_end(plain)
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    digests = {d for r in reports for d in r["output_digests"]}
    counts_ok = not args.trace or traced["counts_repeat"]
    problems = [f for r in reports for f in unexpected(r)]
    correct = not problems and len(digests) == 1 and counts_ok
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(len(r["failures"]) for r in reports)

    for name, m in metrics.items():
        print(f"{args.workload} seed={args.seed} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} seed={args.seed} op_count = {plain['op_count']} per pass, "
          f"{attempted} attempted, {failed} failed "
          f"(error rate {failed}/{attempted}), correct = {correct}")
    for f in problems[:10]:
        print(f"unexpected failure: op {f['op']} ({f['kind']}): {f['text']}")
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "op_count": plain["op_count"], "passes": [r["passes"] for r in reports],
        "setup_bare_full_s": plain["setup_s"], "input_digest": plain["input_digest"],
        "output_digests": sorted(digests), "counts_repeat": counts_ok,
        "known_defects": {k: v for r in reports for k, v in r["known_defects"].items()},
        "unscaled_wall_s": sum(per_op(plain, scale=False)) / 1e3,
        "unscaled_setup_s": setup_s(plain, scale=False) if plain["setup_s"] else None,
        "host_slowdown": host_slowdown(plain),
        "run_s": [r["run_s"] for r in reports],
        "inputs": plain["inputs"],
    }
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
