"""exchkit benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 35 --trace 0

Runs the workload's fixed list of decisions in passes until ``--seconds``
is used up, each decision starting only after the previous one returned.
Every answer is checked exactly, outside the timed region: in full on the
first pass, and on later passes by matching the first pass's answers or,
failing that, in full again.  The last line of standard output is one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics from span
tracing with ``--trace 1``.  Human-readable lines before it give sample
counts, latency percentiles and the machine.

Times are in reference seconds: wall time corrected for the speed of the
shared host while it was taken, which hostspeed.py samples in this thread.

Each pass rebuilds its inputs and empties exchkit's memo caches first, so
every pass starts as cold as a fresh CLI call.  The library is imported
from ``src/`` of the checkout this file sits in; the run fails if it is
missing.  See perfbench/README.md for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()

import hostspeed  # noqa: E402

# Set-up is short, so its host-speed samples come often.
_SETUP_SAMPLER = hostspeed.Sampler(0.005).start()
_SETUP_SAMPLER.active = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Setup is measured in this process and in this many fresh interpreters.
SETUP_REPEATS = 8
# Seconds between host-speed samples during passes.
SAMPLE_INTERVAL = 0.05


def _import_library():
    if not (SRC / "exchkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no exchkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import exchkit

    if Path(exchkit.__file__).resolve().parent != SRC / "exchkit":
        sys.exit(f"perfbench: imported exchkit from {exchkit.__file__}, not {SRC}")
    import workloads

    return workloads


def _clear_caches() -> None:
    """Empty every functools memo cache in exchkit's modules."""
    for key, module in list(sys.modules.items()):
        if module is not None and key.startswith("exchkit"):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def _nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


@dataclass
class Pass:
    """One run through the workload's decisions.  ``solve_s`` and
    ``latencies`` are in reference seconds (see hostspeed.py); ``wall_s`` is
    the time the decisions took on the clock."""

    solve_s: float
    wall_s: float
    latencies: list
    attempted: int
    failed: int
    digests: list
    layers: Optional[dict] = None
    spans: Optional[list] = None


def run_pass(workloads, args, tracer, sampler, checked) -> Pass:
    """Run every task once and check its answers.

    ``checked`` holds the digests of the answers an earlier pass checked in
    full.  An answer with the same digest is the same answer; any other
    answer gets the full check.
    """
    tasks = workloads.WORKLOADS[args.workload](args.seed)
    _clear_caches()
    latencies = []
    marks = []  # the host-speed samples taken during each decision
    digests = []
    attempted = failed = 0
    wall_s = 0.0
    clock = time.perf_counter
    for number, task in enumerate(tasks):
        results = []
        ok = True
        for call in task.calls:
            if tracer is not None:
                tracer.decision += 1
                tracer.enabled = True
            spent = sampler.spent
            first = len(sampler.samples)
            start = clock()
            sampler.active = True
            try:
                results.append(call())
            except Exception as exc:  # a raising decision is a failed decision
                ok = False
                print(f"perfbench: decision raised {exc!r}", file=sys.stderr)
            finally:
                sampler.active = False
                elapsed = clock() - start - (sampler.spent - spent)
                marks.append((first, len(sampler.samples)))
                if tracer is not None:
                    tracer.enabled = False
            wall_s += elapsed
            latencies.append(elapsed)
            if not ok:
                break
        digest = None
        if ok:
            try:
                digest = workloads.digest(results)
                if checked is None or checked[number] != digest:
                    ok = bool(task.check(results))
            except Exception as exc:  # a check that cannot run is a failure
                print(f"perfbench: check raised {exc!r}", file=sys.stderr)
                ok = False
        digests.append(digest if ok else None)
        attempted += len(task.calls)
        if not ok:
            failed += len(task.calls)
            print(f"perfbench: task {number} failed", file=sys.stderr)
    latencies = [t * v for t, v in zip(latencies, hostspeed.local_speeds(sampler.take(), marks))]
    speed = sum(latencies) / wall_s
    done = Pass(sum(latencies), wall_s, latencies, attempted, failed, digests)
    if tracer is not None:
        done.spans = tracer.take()
        done.layers = {
            key: value * speed if key.endswith("_s") else value
            for key, value in spans.layer_metrics(done.spans).items()
        }
        for span in done.spans:
            span.io = None  # let the pass's results go
    return done


def _measure_setup(args) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_small", "norm_ladder", "certify_mixtures"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build the inputs, print the set-up seconds and exit")
    args = parser.parse_args(argv)

    workloads = _import_library()
    workloads.WORKLOADS[args.workload](args.seed)
    setup_here = time.perf_counter() - _T0 - _SETUP_SAMPLER.spent
    _SETUP_SAMPLER.stop()
    setup_here *= hostspeed.speed(_SETUP_SAMPLER.take())
    if args.setup_only:
        print(repr(setup_here))
        return 0

    tracer = spans.Tracer() if args.trace else None
    sampler = hostspeed.Sampler(SAMPLE_INTERVAL).start()
    started = time.perf_counter()
    passes: list[Pass] = []
    plain: list[Pass] = []
    checked = None
    walls = []
    # Traced runs alternate traced and untraced passes, so the overhead of
    # tracing is measured on the same inputs in the same process.
    min_passes = 2 if args.trace else 1
    while True:
        done = len(passes) + len(plain)
        pass_started = time.perf_counter()
        if tracer is not None and done % 2 == 0:
            tracer.install()
            try:
                passes.append(run_pass(workloads, args, tracer, sampler, checked))
            finally:
                tracer.uninstall()
        else:
            (plain if tracer is not None else passes).append(
                run_pass(workloads, args, None, sampler, checked)
            )
        walls.append(time.perf_counter() - pass_started)
        done += 1
        if done == 1:
            # Later passes reuse a heap the first one grew; the first pass is
            # what one fresh process needs.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            checked = (passes or plain)[0].digests
        # Only the first pass runs the full checks, so the slowest later
        # pass, or else the first pass's timed part, bounds the next one.
        guess = max(walls[1:]) if len(walls) > 1 else (passes or plain)[0].wall_s
        if done >= min_passes and time.perf_counter() - started + guess > args.seconds:
            break
    sampler.stop()
    setup = [setup_here] + _measure_setup(args)

    everything = passes + plain
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    per_pass = len(passes[0].latencies)
    machine = _machine()
    print(f"workload {args.workload} seed {args.seed}: {len(everything)} passes, "
          f"{per_pass} decisions per pass, single process, single thread, closed loop")
    print(f"machine: python {machine['python']}, nproc {machine['nproc']}, cpu {machine['cpu']}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} decisions)")

    if not args.trace:
        def pct(q):
            return statistics.median(
                _nearest_rank(sorted(p.latencies), q) * 1e3 for p in passes
            )

        # Latency percentiles are printed, not returned as metrics: from one
        # run to the next they spread by up to a third on a shared host.
        for q in (50, 90, 99):
            print(f"decision_p{q}_ms {pct(q / 100):.6g} ms")
        print(f"setup_s: median of {len(setup)} set-ups; solve_s and decision "
              f"percentiles: median over {len(passes)} passes of {per_pass} decisions each "
              f"(nearest rank); all in reference seconds")
        print(f"solve_wall_s {statistics.median(p.wall_s for p in passes):.6g} s "
              f"(on the clock; host speed {[round(p.solve_s / p.wall_s, 3) for p in passes]} "
              f"reference s per s)")
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "solve_s": (statistics.median(p.solve_s for p in passes), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        per_layer = {
            key: statistics.median(p.layers[key] for p in passes) for key in passes[0].layers
        }
        traced_solve = statistics.median(p.solve_s for p in passes)
        untraced_solve = statistics.median(p.solve_s for p in plain)
        per_layer["trace.solve_s"] = traced_solve
        per_layer["trace.overhead_s"] = traced_solve - untraced_solve
        metrics = {k: (v, _unit(k)) for k, v in per_layer.items()}
        print(f"per-layer: median over {len(passes)} traced passes; tracing overhead "
              f"{traced_solve - untraced_solve:+.4f} s against {len(plain)} untraced passes")
        _write_trace(args, passes[-1].spans, metrics, machine)

    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_ratio", ".share", "_per_refutation")):
        return "ratio"
    if key.endswith(".bits_max"):
        return "bits"
    return "count"


def _write_trace(args, recorded, metrics, machine) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "machine": machine,
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "span_fields": ["name", "parent", "decision", "start", "end"],
            "spans": [[s.name, s.parent, s.decision, s.start, s.end] for s in recorded],
        }, fh)
    print(f"spans of the last traced pass written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    try:
        code = main()
    finally:
        hostspeed.disarm()
    sys.exit(code)
