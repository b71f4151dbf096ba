"""minksoliton benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``.  Inputs come from ``--seed``.  Operations run in a closed loop in
this one process, in whole cycles, until ``--seconds`` have passed, and
every output is checked.  The last line of standard output is one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  Lines before it, each starting with ``#``, record the
environment, sample counts and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("peak_rss_mb", "MiB"),
]
# Set-up is timed this many times before the ops and as many after, so the
# median spans the run rather than one moment of a drifting machine.
SETUP_REPEATS = 4
SETUP_TIMEOUT_S = 120
SETUP_CODE = """\
import sys
sys.path.insert(0, {src!r})
from minksoliton import catalog, cli
cli.build_parser()
for name in {entries!r}:
    catalog.get(name).build()
"""
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def note(*parts):
    print("#", *parts, flush=True)


def import_program():
    """The minksoliton modules of this checkout, or None without one."""
    if not (SRC / "minksoliton" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import minksoliton
    from minksoliton import analysis, catalog, cli, frame_ode
    if Path(minksoliton.__file__).resolve().parent.parent != SRC:
        return None
    return SimpleNamespace(analysis=analysis, catalog=catalog, cli=cli,
                           frame_ode=frame_ode)


def prepare(ms, entries):
    """The workload's one-off preparation, as the set-up children do it."""
    ms.cli.build_parser()
    for name in entries:
        ms.catalog.get(name).build()


def time_setup(entries, repeats):
    """Wall times of fresh interpreters doing import + preparation."""
    cmd = [sys.executable, "-c", SETUP_CODE.format(src=str(SRC),
                                                   entries=list(entries))]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


class Sample:
    """Outcome of one measured phase."""

    def __init__(self):
        self.times = []
        self.items = 0
        self.failures = []

    @property
    def s_per_item(self):
        return sum(self.times) / self.items if self.items else float("inf")


def run_ops(workload, rng, seconds, ms, cache_keys, tracer=None):
    """Run whole cycles of ops until ``seconds`` of wall time have passed."""
    sample = Sample()
    cache = getattr(ms.frame_ode, "_TABLE_CACHE", {})
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in workload.cycle(rng):
            if tracer is not None:
                tracer.op = len(sample.times)
            error = None
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception:  # a raising op is a failed op; keep measuring
                error = traceback.format_exc(limit=-3)
            sample.times.append(time.perf_counter() - t0)
            if error is None:
                try:
                    op.check(result)
                except workloads.CheckFailed as err:
                    error = str(err)
                except Exception:  # malformed output fails the op
                    error = traceback.format_exc(limit=-3)
            if error is None:
                sample.items += op.items
            else:
                sample.failures.append(f"{op.label}: {error}")
            # Each op starts from the post-set-up state, as a new CLI
            # process would: frame tables built by the op are dropped.
            for key in set(cache) - cache_keys:
                del cache[key]
    return sample


def environment():
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }
    import numpy
    env["numpy"] = numpy.__version__
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in
                       ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        env["blas"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip()
                                     for line in fh
                                     if line.startswith("model name")), None)
    except OSError:
        env["cpu_model"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if level == '1' else ''}"] = \
                (index / "size").read_text().strip()
        except OSError:
            continue
    env["cpu0_caches"] = caches
    return env


def end_to_end(sample, setup_times):
    times = sample.times
    return {
        "setup_s": statistics.median(setup_times),
        "items_per_s": 1.0 / sample.s_per_item,
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ms = import_program()
    if ms is None:
        print(f"perfbench: no minksoliton sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](ms, workdir)
    rng = random.Random(args.seed)
    note("perfbench", json.dumps({"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds, "trace": args.trace}))
    note("env", json.dumps(environment()))

    if not args.trace:
        time_setup(workload.entries, 1)  # warms the file cache and bytecode
        setup_times = time_setup(workload.entries, SETUP_REPEATS)
    prepare(ms, workload.entries)
    cache_keys = set(getattr(ms.frame_ode, "_TABLE_CACHE", {}))

    if not args.trace:
        sample = run_ops(workload, rng, args.seconds, ms, cache_keys)
        setup_times += time_setup(workload.entries, SETUP_REPEATS)
        values = end_to_end(sample, setup_times)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        note("setup_s samples", json.dumps(setup_times))
        note(f"ops {len(sample.times)}, failed {len(sample.failures)}, "
             f"failed_ops_share {len(sample.failures) / len(sample.times)} "
             f"ratio; op_p50_s and op_p90_s over {len(sample.times)} samples")
        item = "draws_per_s" if args.workload == "case_sweep" else "points_per_s"
        note(f"{item} {values['items_per_s']:.6g}")
        samples = [sample]
    else:
        # Half the time untraced, half traced: the gap in time per item is
        # the tracing overhead.
        plain = run_ops(workload, rng, args.seconds / 2, ms, cache_keys)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_ops(workload, rng, args.seconds / 2, ms, cache_keys,
                             tracer)
        finally:
            tracer.restore()
        overhead = traced.s_per_item / plain.s_per_item - 1.0
        metrics = tracer.metrics(len(traced.times), sum(traced.times), overhead)
        span_file = workdir / "spans.npz"
        tracer.save(span_file)
        note(f"traced ops {len(traced.times)}, untraced ops {len(plain.times)}, "
             f"spans {len(tracer.span_layer)} saved to {span_file}")
        if tracer.missing:
            note("trace targets missing:", ", ".join(tracer.missing))
        samples = [plain, traced]

    attempted = sum(len(s.times) for s in samples)
    failed = sum(len(s.failures) for s in samples)
    for s in samples:
        for line in s.failures[:5]:
            note("failed op:", line.replace("\n", " | "))
    for name, m in metrics.items():
        note(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
