"""irstkit benchmark: one closed-loop workload per process, one caller.

Usage, from the repository root:

    python3 bench/run.py --workload predict_640 --seed 1 --seconds 40 --trace 0

The package is imported from ``src/`` of the same checkout.  The run sets
the workload up several times (``setup_s`` is their median; each set-up
ends with one warm-up op), then calls one op after another for
``--seconds`` seconds, checking every output.  Every timing is scaled to
the reference host speed (see ``scaled``).  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced ops and
reports the per-layer metrics, the tracing overhead and the self-time
reconciliation.  The last line of standard output is the
JSON result; the full report and the spans are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUPS = 3
TAIL_BEYOND = 10          # op_ms_tail leaves this many samples above it
RECONCILE_TOLERANCE = 0.10
END_TO_END_UNITS = {"setup_s": "s", "img_s": "img/s", "op_ms_p50": "ms",
                    "op_ms_tail": "ms", "peak_rss_mb": "MB"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The shared host's per-core speed drifts by up to a factor of two over
# seconds to minutes, which a run of under a minute cannot average out.  A fixed
# pure-Python loop, timed before the first and after every op and set-up,
# tracks that drift, and every timing is scaled to the loop's REFERENCE_S.
REFERENCE_LOOPS = 400_000
REFERENCE_S = 0.025  # the loop's time on an unloaded 2-vCPU Xeon VM at 2.0 GHz


def tail_rank(n: int) -> int:
    """1-based rank of the highest order statistic with ``TAIL_BEYOND``
    samples above it, but never below the median: with 20 samples or
    fewer, fewer than ``TAIL_BEYOND`` lie beyond it."""
    return max(n - TAIL_BEYOND, n // 2 + 1)


def latency(times: list[float]) -> dict:
    ordered = sorted(times)
    n = len(ordered)
    if not n:
        return {"n": 0, "p50_ms": None, "tail_ms": None, "tail_pct": None, "beyond": 0}
    rank = tail_rank(n)
    return {"n": n, "p50_ms": statistics.median(ordered) * 1e3,
            "tail_ms": ordered[rank - 1] * 1e3, "tail_pct": round(100.0 * rank / n, 1),
            "beyond": n - rank}


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(), "seed": seed}
    env.update({v: os.environ.get(v, "unset") for v in THREAD_VARS})
    return env


def reference_s() -> float:
    """Wall time of a fixed loop that touches no irstkit code."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(REFERENCE_LOOPS):
        acc += k * k
    return time.perf_counter() - t0


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """``times`` at the reference host speed.  ``refs[k]`` is the reference
    loop's time just before ``times[k]`` and ``refs[k + 1]`` just after
    it; each time is scaled by REFERENCE_S over the median of the loop
    times before it, after it and after the next one."""
    return [t * REFERENCE_S / statistics.median(refs[k:k + 3]) for k, t in enumerate(times)]


def error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop for ``seconds``, from op 1: one op, the reference loop,
    the op's check, then the next op.  Only the op is timed, and its time
    is ``scaled``; a raised op or a failed check is a failed op.  With a
    tracer every other op runs traced, so traced and untraced ops see the
    same machine conditions."""
    from workloads import CheckFailed

    ops: list[tuple[str, float, bool]] = []  # kind, wall time, succeeded
    refs = [reference_s()]
    errors: Counter = Counter()
    deadline = time.perf_counter() + seconds
    while True:
        kind = "traced" if tracer is not None and len(ops) % 2 == 1 else "untraced"
        i = len(ops) + 1
        out = exc = None
        t0 = time.perf_counter()
        try:
            if kind == "traced":
                with tracer:
                    out = tracer.run_op(workload.op, i)
            else:
                out = workload.op(i)
        except Exception as e:  # an op failure is a measured outcome
            exc = e
        dt = time.perf_counter() - t0
        refs.append(reference_s())
        ok = False
        if exc is not None:
            errors[error_text(exc)] += 1
        else:
            try:
                workload.check(i, out)
                ok = True
            except CheckFailed as e:
                errors[f"check: {e}"] += 1
            except Exception as e:  # a check that raises fails the op
                errors[error_text(e)] += 1
        ops.append((kind, dt, ok))
        if time.perf_counter() >= deadline:
            break

    times: dict[str, list[float]] = {"untraced": [], "traced": []}
    wall: dict[str, list[float]] = {"untraced": [], "traced": []}
    busy = {"untraced": 0.0, "traced": 0.0}  # scaled time of every op, failed ones too
    for (kind, dt, ok), t in zip(ops, scaled([dt for _, dt, _ in ops], refs)):
        busy[kind] += t
        if ok:
            times[kind].append(t)
            wall[kind].append(dt)
    return {"times": times, "wall": wall, "busy": busy, "attempted": len(ops),
            "errors": errors}


def set_up(cls, seed: int):
    """SETUPS fresh set-ups, each ending with warm-up op 0 and its check.
    Returns the last workload, the ``scaled`` set-up times and their wall
    times, every scene's generation time and the errors of the warm-ups."""
    from workloads import CheckFailed

    wall, refs, scene_ms, warmups = [], [reference_s()], [], []
    errors: Counter = Counter()
    workload = None
    for _ in range(SETUPS):
        workload = None  # free the previous set-up before building the next
        gc.collect()
        t0 = time.perf_counter()
        workload = cls(seed, scene_ms)
        try:
            out = workload.op(0)
            raised = False
        except Exception as exc:  # the warm-up op fails like any other op
            errors[error_text(exc)] += 1
            raised = True
        wall.append(time.perf_counter() - t0)
        refs.append(reference_s())
        if not raised:
            try:
                workload.check(0, out)
                warmups.append(out)
            except CheckFailed as exc:
                errors[f"check: {exc}"] += 1
            except Exception as exc:  # a check that raises fails the op
                errors[error_text(exc)] += 1
    # the set-ups share the seed, so their warm-up outputs must agree
    differing = sum(out != warmups[0] for out in warmups[1:])
    if differing:
        errors["check: warm-up output differs between same-seed set-ups"] += differing
    return workload, scaled(wall, refs), wall, scene_ms, errors


def traced_metrics(tracer, workload, lat: dict, traced: dict, scene_ms) -> dict:
    """Per-layer metrics of a traced run, in ``per_layer_units`` order."""
    from irstkit import complexity
    from spans import per_layer_units

    summary = tracer.summary()
    cost = complexity.count_model(workload.cfg)
    layer = dict(summary["metrics"])
    layer["complexity.gflop_per_img"] = cost.total_flops / 1e9
    layer["complexity.params"] = float(cost.total_params)
    layer["data.generate_scene_ms"] = statistics.fmean(scene_ms)
    layer["trace.overhead_ms"] = (traced["p50_ms"] - lat["p50_ms"]
                                  if traced["n"] and lat["n"] else None)
    layer["trace.attributed_share"] = summary["attributed_share"]
    return {"per_layer": {k: layer[k] for k in per_layer_units()},
            "layer_self_ms": summary["layer_self_ms"],
            "traced_op_ms_mean": summary["op_ms"], "traced_ops": summary["ops"]}


def run(args) -> dict:
    from spans import Tracer, per_layer_units
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    env = environment(args.seed)
    workload, setup_times, setup_wall, scene_ms, errors = set_up(cls, args.seed)
    tracer = Tracer() if args.trace else None
    loop = measure(workload, args.seconds, tracer)
    errors.update(loop["errors"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = SETUPS + loop["attempted"]

    checks = {}
    if workload.final_check is not None:
        attempted += 1
        try:
            workload.final_check()
            checks["final_check"] = "ok"
        except Exception as exc:  # reported as a failed op
            checks["final_check"] = error_text(exc)
            errors[f"final check: {error_text(exc)}"] += 1
    failed = sum(errors.values())

    lat = latency(loop["times"]["untraced"])
    env["samples"] = {"setup_s": len(setup_times), "op_ms_p50": lat["n"],
                      "op_ms_tail": {"percentile": lat["tail_pct"], "n": lat["n"],
                                     "beyond": lat["beyond"]}}
    report = {"workload": cls.name, "trace": args.trace, "env": env,
              "failed_share": failed / attempted, "attempted": attempted,
              "failed": failed, "errors": dict(errors), "checks": checks,
              "setup_times_s": setup_times, "setup_wall_s": setup_wall}
    correct = failed == 0
    if tracer is None:
        wall = latency(loop["wall"]["untraced"])
        report["end_to_end"] = {
            "setup_s": statistics.median(setup_times),
            "img_s": len(loop["times"]["untraced"]) * cls.images_per_op / loop["busy"]["untraced"],
            "op_ms_p50": lat["p50_ms"],
            "op_ms_tail": lat["tail_ms"],
            "peak_rss_mb": peak_rss_mb,
        }
        report["wall"] = {"setup_s": statistics.median(setup_wall),
                          "op_ms_p50": wall["p50_ms"], "op_ms_tail": wall["tail_ms"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in report["end_to_end"].items()}
    else:
        traced = latency(loop["times"]["traced"])
        report.update(traced_metrics(tracer, workload, lat, traced, scene_ms),
                      untraced_op_ms_p50=lat["p50_ms"], traced_op_ms_p50=traced["p50_ms"])
        share = report["per_layer"]["trace.attributed_share"]
        reconciled = abs(1.0 - share) <= RECONCILE_TOLERANCE
        checks["reconciliation"] = "ok" if reconciled else f"only {share:.1%} of op time attributed"
        correct = correct and reconciled
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k][0]} for k, v in report["per_layer"].items()}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"{cls.name}-seed{args.seed}.spans.jsonl")

    report["correct"] = correct
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{cls.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")
    print_report(report)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  trace {report['trace']}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    samples = report["env"]["samples"]
    tail = samples["op_ms_tail"]
    notes = {"setup_s": f"median of {samples['setup_s']} set-ups",
             "op_ms_p50": f"n={samples['op_ms_p50']} successful ops",
             "op_ms_tail": f"p{tail['percentile']}, n={tail['n']}, {tail['beyond']} beyond"}
    for name, value in report.get("end_to_end", {}).items():
        print(f"  {name:<14} {fmt(value):>12} {END_TO_END_UNITS[name]:<6} {notes.get(name, '')}")
    if "wall" in report:
        print("  unscaled wall time: " + ", ".join(
            f"{name} {fmt(value)} {END_TO_END_UNITS[name]}" for name, value in report["wall"].items()))
    print(f"  {'failed_share':<14} {fmt(report['failed_share']):>12} {'':<6} "
          f"{report['failed']} of {report['attempted']} ops")
    for text, count in report["errors"].items():
        print(f"  error x{count}: {text}")
    if "per_layer" in report:
        for name, value in report["per_layer"].items():
            print(f"  {name:<36} {fmt(value):>12}")
        print(f"  op_ms_p50 untraced {fmt(report['untraced_op_ms_p50'])} ms, "
              f"traced {fmt(report['traced_op_ms_p50'])} ms (alternating ops)")
        print(f"  traced op {fmt(report['traced_op_ms_mean'])} ms mean = self time of "
              + " + ".join(f"{k} {fmt(v)}" for k, v in report["layer_self_ms"].items())
              + f" ms ({report['per_layer']['trace.attributed_share']:.1%} attributed)")
    for name, status in report["checks"].items():
        print(f"  check {name}: {status}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(REPO_ROOT / "src"), str(BENCH_DIR)]
    try:
        import irstkit
    except ImportError as exc:
        print(f"cannot import irstkit from {REPO_ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(irstkit.__file__).resolve().is_relative_to(REPO_ROOT / "src"):
        print(f"irstkit came from {irstkit.__file__}, not this checkout's src/", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
