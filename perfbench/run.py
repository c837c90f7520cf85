"""Benchmark for the monores command line, run from the repository root.

    python3 perfbench/run.py --workload verify-battery --seed 1 --seconds 14 --trace 0

Workloads (see ``workloads.py``): ``verify-battery``, ``betti-methods`` and
``conjecture-fuzz``.  A run generates each round's inputs from the seed and
times its ops one after another, whole rounds until the summed normalised
op time reaches ``--seconds``, so every run has the same mix of ops; then it
checks every op's output against an oracle outside the timed region.
Reported times are normalised to a reference kernel timed around each op
(see ``clock.py``), because the shared host's speed drifts by up to 2x.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the ops of a fixed number of rounds (so the same work for
a given seed, whatever the program's speed; ``--seconds`` is not used) run
under the outside tracer and the line carries the per-layer metrics,
including the overhead against an untraced replay of the same ops in a
fresh process.  The traced run fails, with no result line, when the tracer
misses calls that every version of the program makes.  Metric names and
units come from ``BENCHMARK.json``.  Full results, per-op digests and the
span file go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from clock import reference_time, scale

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 7
RAW_CAP = 3
TAIL_BEYOND = 10


class SetupError(Exception):
    pass


class CoverageError(Exception):
    pass


def load_program():
    if not (SRC / "monores" / "cli.py").is_file():
        raise SetupError(f"no monores sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import monores.cli

    if Path(monores.cli.__file__).resolve().parent != SRC / "monores":
        raise SetupError(f"imported monores from {monores.cli.__file__}, not {SRC}")
    return monores.cli


def load_metric_units() -> tuple[dict, dict]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError("BENCHMARK.json is missing")
    spec = json.loads(path.read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


# Runs in the fresh interpreter: the reference kernel brackets the import so
# the normalisation sees the same core and moment as the import itself.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from clock import reference_time
before = reference_time()
import monores.cli
print(before, reference_time())
"""


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to start and import monores.cli,
    normalised and raw; the probe's reference-kernel time is taken out."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_PROBE, str(Path(__file__).parent)]
    # the first start also writes bytecode caches
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=120, capture_output=True)
    raw, normalised = [], []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        probe = subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=120,
                               capture_output=True, text=True)
        elapsed = perf_counter() - start
        before, after = map(float, probe.stdout.split())
        raw.append(elapsed - before - after)
        normalised.append(raw[-1] * scale(before, after))
    return statistics.median(normalised), statistics.median(raw)


def call_op(main, argv):
    from workloads import OpResult

    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - a crash is a failed op
        error = f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - start
    return OpResult(latency, code, out.getvalue(), error)


def run_loop(cli, workload, seconds, *, tracer=None, max_ops=None, max_rounds=None):
    """Closed loop, one client: whole rounds until the normalised op time
    reaches ``seconds``, or ``max_rounds`` rounds.  It stops inside a round
    after ``max_ops`` ops, or when the raw op time reaches RAW_CAP times
    ``seconds`` on a very slow host.  Each op is bracketed by
    reference-kernel runs."""
    ops, results = [], []
    busy = raw_busy = 0.0
    k = 0
    while k != max_rounds:
        round_ops = workload.make_round(k)
        before = reference_time()
        for op in round_ops:
            op.index = len(ops)
            if tracer is not None:
                tracer.begin_op(op.index)
            res = call_op(cli.main, op.argv)
            if tracer is not None:
                tracer.end_op()
            after = reference_time()
            res.scale = scale(before, after)
            before = after
            ops.append(op)
            results.append(res)
            busy += res.latency * res.scale
            raw_busy += res.latency
            if len(ops) == max_ops or raw_busy >= RAW_CAP * seconds:
                return ops, results
        k += 1
        if busy >= seconds:
            break
    return ops, results


def tail_latency(latencies):
    """The highest percentile with at least TAIL_BEYOND ops above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment(seed):
    commit = None
    if shutil.which("git") and (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def op_records(ops, results):
    return [
        {"i": op.index, "round": op.round, "slot": op.slot, "size": op.size,
         "argv": [os.path.basename(a) if a.startswith(str(OUT)) else a for a in op.argv],
         "latency_s": res.latency, "normalised_s": res.latency * res.scale, "exit": res.exit_code, "ok": res.ok,
         "reason": res.reason, "digest": res.digest, **res.extra}
        for op, res in zip(ops, results)
    ]


def metric_line(names_units, values, correct, attempted, failed):
    metrics = {}
    for name, unit in names_units.items():
        if name not in values:
            raise SetupError(f"metric {name} is not measured")
        metrics[name] = {"value": values[name], "unit": unit}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--untraced-ops", type=int, default=None,
                        help="internal: time exactly this many ops untraced and "
                             "print their latencies (the trace overhead baseline)")
    args = parser.parse_args(argv)

    try:
        end_to_end_units, per_layer_units = load_metric_units()
        cli = load_program()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # a default pool change must show, so the workloads run with the default
    os.environ.pop("MONORES_THREADS", None)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="ops-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, tmpdir)
        if args.untraced_ops is not None:
            _, results = run_loop(cli, workload, math.inf, max_ops=args.untraced_ops)
            print(json.dumps({"latencies": [r.latency * r.scale for r in results]}))
            return 0
        if args.trace:
            return traced_run(args, cli, workload, per_layer_units)
        return untraced_run(args, cli, workload, end_to_end_units)
    except (SetupError, CoverageError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _finish(args, ops, results, values, extra, names_units):
    failed = sum(not r.ok for r in results)
    correct = failed == 0
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "env": environment(args.seed), "correct": correct,
        "attempted": len(results), "failed": failed, "metrics": values, **extra,
        "ops": op_records(ops, results),
    }
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for op, res in zip(ops, results):
        if not res.ok:
            print(f"FAILED op {op.index} ({op.slot}, {' '.join(op.argv[:1])}): {res.reason}")
    return metric_line(names_units, values, correct, len(results), failed)


def untraced_run(args, cli, workload, names_units) -> int:
    # The children's peak is a maximum that a process can inherit at start,
    # so it counts only when the ops raise it.  It is read before the set-up
    # probes start, so it covers the processes the program ran and reaped
    # during the ops; the largest one's peak is added to this process's.
    children_before_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ops, results = run_loop(cli, workload, args.seconds)
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if children_kb <= children_before_kb:
        children_kb = 0
    peak_rss_mb = (own_kb + children_kb) / 1024
    setup_s, setup_raw_s = measure_setup()
    workload.check(ops, results)
    good = sum(r.ok for r in results)

    def timings(latencies):
        tail, percentile = tail_latency(latencies)
        return {"ops_per_s": good / sum(latencies),
                "latency_p50_s": statistics.median(latencies),
                "latency_tail_s": tail}, percentile, sum(latencies)

    normalised, percentile, busy = timings([r.latency * r.scale for r in results])
    raw, _, raw_busy = timings([r.latency for r in results])
    values = {
        "setup_s": setup_s,
        **normalised,
        "failed_share": sum(not r.ok for r in results) / len(results),
        "peak_rss_mb": peak_rss_mb,
    }
    skipped = sum(r.extra.get("skipped", 0) for r in results)
    extra = {"tail_percentile": percentile, "rounds": ops[-1].round + 1,
             "busy_s": busy, "skipped_trials": skipped,
             "peak_rss_kb": {"self": own_kb, "largest_child": children_kb},
             "raw_wall": dict(raw, setup_s=setup_raw_s, busy_s=raw_busy)}
    units = dict(names_units, failed_share="share")
    line = _finish(args, ops, results, values, extra, names_units)
    print(f"{args.workload}: {len(ops)} ops in {extra['rounds']} rounds, "
          f"{busy:.2f} s busy, tail = p{percentile:.1f}, skipped trials {skipped}")
    print(f"  {'metric':16s} {'normalised':>11s} {'raw wall':>11s} unit")
    for name in ("setup_s", "ops_per_s", "latency_p50_s", "latency_tail_s",
                 "failed_share", "peak_rss_mb"):
        raw_value = extra["raw_wall"].get(name)
        raw_text = "" if raw_value is None else f"{raw_value:.6g}"
        print(f"  {name:16s} {values[name]:11.6g} {raw_text:>11s} {units[name]}")
    print(line)
    return 0


def coverage(tracer, workload, ops, values) -> dict:
    """Checks that hold for every version of the program: if one fails, the
    tracer no longer sees the program's work (a call moved to another
    process, or a traced function was renamed) and the per-layer figures
    would read as gains that are not there."""
    from workloads import count_check

    trials = workload.CONJECTURE_TRIALS_PER_OP * len(ops)
    checks = {
        "traced functions found": (0, len(tracer.missing)),
        "cli.main calls, one per op": (len(ops), values["cli.main.calls"]),
        "cli.run_conjecture_trial calls, one per trial":
            (trials, values["cli.run_conjecture_trial.calls"]),
    }
    if workload.name == "conjecture-fuzz":
        checks["posets.order_complex calls"] = (0, values["posets.order_complex.calls"])
    return {name: count_check(e, o) for name, (e, o) in checks.items()}


def traced_run(args, cli, workload, names_units) -> int:
    from tracer import Tracer, aggregate, per_op_counts

    tracer = Tracer()
    tracer.install()
    try:
        ops, results = run_loop(cli, workload, math.inf, tracer=tracer,
                                max_rounds=workload.TRACE_ROUNDS)
    finally:
        tracer.uninstall()
    workload.check(ops, results)
    values = aggregate(tracer.spans, [r.scale for r in results])
    covered = coverage(tracer, workload, ops, values)
    broken = [f"{name}: expected {c['expected']}, observed {c['observed']}"
              for name, c in covered.items() if not c["holds"]]
    if tracer.missing:
        broken.append(f"not found, so not traced: {', '.join(tracer.missing)}")
    if broken:
        raise CoverageError("the tracer misses the program's calls; " + "; ".join(broken))
    busy = sum(r.latency * r.scale for r in results)
    tag = f"{args.workload}-seed{args.seed}-trace1"
    tracer.write(OUT / f"{tag}-spans.jsonl.gz")

    child = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--untraced-ops", str(len(ops))],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    untraced = json.loads(child.stdout.strip().splitlines()[-1])["latencies"]
    values["trace.overhead_ratio"] = busy / sum(untraced)
    sanity = workload.trace_sanity(
        ops, results, values, lambda name, key: per_op_counts(tracer.spans, name, key))
    extra = {"coverage": covered, "sanity": sanity, "rounds": workload.TRACE_ROUNDS,
             "busy_s": busy, "untraced_busy_s": sum(untraced)}
    line = _finish(args, ops, results, values, extra, names_units)
    print(f"{args.workload} traced: {len(ops)} ops, {len(tracer.spans)} spans, "
          f"overhead x{values['trace.overhead_ratio']:.3f}, "
          f"{len(covered)} coverage checks hold")
    for name, check in sanity.items():
        differing = check.get("ops_differing")
        where = "" if differing is None else f" ({differing} ops differ)"
        print(f"  sanity {name}: expected {check['expected']}, observed "
              f"{check['observed']}{where} -> {'holds' if check['holds'] else 'DOES NOT HOLD'}")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
