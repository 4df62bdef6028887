"""Benchmark of quadring's verification pipeline, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run generates its inputs from the seed
in a fresh process (set-up, timed together with the set-ups of the fixed
seeds of SETUP_PANEL), then runs the workload in a fresh process per
execution until --seconds have passed, and checks every output.  The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the
executions); with --trace 1 they are the per-layer ones, from executions
under the tracer in `tracing.py`, alternated with untraced executions that
give the tracing overhead.  The line before it records the environment and
every sample.  Workloads, metrics and the layer-to-metric map are described
in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import metadata

import checks
import tracing
from child import CUBIC_PRIMES, NET_PRIMES, VERRA_PRIMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
PY = sys.executable

WORKLOADS = ("count-scan", "count-scan-j2", "fiber-sweep", "recipes-disc")

COUNT_BUDGET = 7_000_000  # P^5(F_23) has 6,724,520 points
DISC_RANGE = (1, 5000)

# setup_s is the median of the set-up of --seed, whose files the workload
# uses, and of the set-ups of SETUP_PANEL, the same seeds in every run.  How
# many attempts a search needs depends on the seed, so one seed's set-up time
# alone moved the metric by up to a factor of two from seed to seed; the
# fixed panel makes the work timed nearly the same in every run.
SETUP_PANEL = (1, 2, 3, 4)
MIN_EXECUTIONS = 2
CHILD_TIMEOUT_S = 170
# Share of the traced wall that the layer self times may leave unexplained,
# and the clock jitter below which a self time counts as 0.
ADD_UP_TOLERANCE = 0.05
NEGATIVE_TOLERANCE_S = 1e-3

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SELF_TIME_LAYERS = tuple(f"{m.rsplit('.', 1)[-1]}.{a}" for m, a, _ in tracing.SPANS) + ("cli",)
COUNT_METRICS = (
    "family.points_on_X.points_scanned",
    "family.regularity_check.fibers",
    "family.lines_through_point.directions_scanned",
    "mpoly.HomPoly.evaluate.calls",
    "mpoly.evaluate_on_array.points",
    "nslattice.classify_discriminant.calls",
    "nslattice.solve_pell_like.calls",
    "search.random_net_search.attempts",
    "quadform.classify.calls",
    "quadform.count_projective_points.calls",
    "modmat.det_mod.calls",
    "modmat.kernel_basis.calls",
    "modmat.rank_mod.calls",
    "gfp.enumerate_projective.points",
    "gfp.projective_points_array.points",
)
# metric -> (numerator counter, denominator counter)
RATIO_METRICS = {
    "family.points_on_X.hit_ratio": ("family.points_on_X.x_points", "family.points_on_X.points_scanned"),
    "search.random_net_search.accept_ratio": ("search.random_net_search.accepted", "search.random_net_search.attempts"),
}
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIME_LAYERS},
    **{name: "count" for name in COUNT_METRICS},
    "family.points_on_X.bytes_materialized": "bytes",
    **{name: "ratio" for name in RATIO_METRICS},
    "trace.overhead_s": "s",
}

# Spans that must fire in every traced execution of a workload, and in the
# traced set-up.  "sweep" is the fiber-sweep's own loop, not a layer.
COUNT_SPANS = {
    "cli",
    "relations.verify_relations",
    "family.points_on_X",
    "family.regularity_check",
    "family.count_total_space",
    "family.lines_through_point",
    "reduction.count_double_cover",
    "reduction.count_reduced_family",
    "reduction.hyperbolic_reduce_family",
}
EXPECTED_SPANS = {
    "count-scan": COUNT_SPANS,
    "count-scan-j2": COUNT_SPANS,
    "fiber-sweep": {
        "sweep",
        "family.regularity_check",
        "family.count_total_space",
        "reduction.count_double_cover",
        "reduction.count_reduced_family",
        "reduction.hyperbolic_reduce_family",
    },
    "recipes-disc": {
        "cli",
        "recipes.cubic_with_plane_counts",
        "recipes.verra_counts",
        "nslattice.classify_discriminant",
        "grothring.derive",
    },
}
SETUP_SPANS = {
    "search.random_net_search",
    "search.random_cubic_with_plane",
    "search.random_verra_form",
    "family.regularity_check",
    "family.lines_through_point",
}


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


@dataclass
class Proc:
    """One finished child process: exit code, output, wall and resources."""

    code: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], work: str) -> Proc:
    """Run argv from the checkout root; wall from spawn to reap, CPU and peak
    RSS of that child alone (os.wait4)."""
    out_path = os.path.join(work, "stdout")
    err_path = os.path.join(work, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Proc(
        proc.returncode,
        stdout,
        stderr,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # KiB on Linux
    )


def cli_commands(workload: str, work: str, jobs: int | None = None) -> list[list[str]]:
    """quadring argument lists of one execution of a CLI workload."""
    if workload in ("count-scan", "count-scan-j2"):
        if jobs is None:
            jobs = 2 if workload == "count-scan-j2" else 1
        return [[
            "count", "--net", os.path.join(work, "net.json"),
            "--primes", ",".join(map(str, NET_PRIMES)),
            "--format", "json", "--jobs", str(jobs), "--budget", str(COUNT_BUDGET),
        ]]
    lo, hi = DISC_RANGE
    return [
        ["cubic", "--form", os.path.join(work, "cubic.json"),
         "--primes", ",".join(map(str, CUBIC_PRIMES)), "--format", "json"],
        ["verra", "--form", os.path.join(work, "verra.json"),
         "--primes", ",".join(map(str, VERRA_PRIMES)), "--format", "json"],
        ["disc", "--range", f"{lo}..{hi}", "--format", "json"],
        ["groth", "--derive", "all", "--format", "json"],
    ]


@dataclass
class Execution:
    """One execution of a workload: wall, CPU, peak RSS, outputs, traces."""

    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    procs: list[Proc] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    sweep: dict | None = None
    sweep_primes: list[int] = field(default_factory=list)


def _load_trace(path: str, proc: Proc) -> dict:
    if proc.code != 0:
        return {"spans": [], "counters": {}}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["process_wall_s"] = proc.wall
    return doc


def execute(workload: str, work: str, traced: bool, jobs: int | None = None) -> Execution:
    ex = Execution()
    trace_path = os.path.join(work, "trace.json")
    trace_args = ["--trace", trace_path] if traced else []
    if workload == "fiber-sweep":
        with open(os.path.join(work, "sweep.json"), encoding="utf-8") as fh:
            ex.sweep_primes = json.load(fh)["primes"]
        argv = [PY, CHILD, "sweep", "--net", os.path.join(work, "net.json"),
                "--primes", ",".join(map(str, ex.sweep_primes)), *trace_args]
        proc = run_process(argv, work)
        ex.procs.append(proc)
        try:
            ex.sweep = json.loads(proc.stdout) if proc.code == 0 else None
        except ValueError:
            ex.sweep = None
        # The verification calls alone; the process wall would add start-up.
        ex.wall = ex.sweep["wall_s"] if ex.sweep else proc.wall
        if traced:
            ex.traces.append(_load_trace(trace_path, proc))
    else:
        for args in cli_commands(workload, work, jobs):
            if traced:
                argv = [PY, CHILD, "cli", *trace_args, "--", *args]
            else:
                argv = [PY, "-m", "quadring", *args]
            proc = run_process(argv, work)
            ex.procs.append(proc)
            ex.wall += proc.wall
            if traced:
                ex.traces.append(_load_trace(trace_path, proc))
    ex.cpu = sum(p.cpu for p in ex.procs)
    ex.rss_mb = max(p.rss_mb for p in ex.procs)
    return ex


# --- checks -----------------------------------------------------------------


def load_reference(seed: int) -> tuple[dict, dict | None]:
    """The frozen reference, and its seed-specific part when it applies."""
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref, (ref if ref["seed"] == seed else None)


def check_execution(tally: checks.Tally, workload: str, ex: Execution, ref: dict, seed_ref: dict | None) -> None:
    if workload == "fiber-sweep":
        if ex.sweep is None:
            tally.fail_all(len(ex.sweep_primes), f"fiber-sweep: exit code {ex.procs[0].code}")
        else:
            checks.check_sweep(tally, ex.sweep["reports"], ex.sweep_primes, seed_ref)
        return
    outs = [(p.stdout, p.code) for p in ex.procs]
    if workload in ("count-scan", "count-scan-j2"):
        checks.check_count(tally, *outs[0], list(NET_PRIMES), seed_ref)
        return
    checks.check_cubic(tally, *outs[0], list(CUBIC_PRIMES), seed_ref)
    checks.check_verra(tally, *outs[1], list(VERRA_PRIMES), seed_ref)
    checks.check_disc(tally, *outs[2], *DISC_RANGE, ref)
    checks.check_groth(tally, *outs[3], ref)


def output_of(ex: Execution) -> list:
    """What must repeat exactly between executions of one workload."""
    if ex.sweep is not None:
        return ex.sweep["reports"]
    return [p.stdout for p in ex.procs]


def check_all(tally: checks.Tally, workload: str, executions: list[Execution], ref: dict, seed_ref: dict | None) -> None:
    """Check every execution, and that all of them printed the same bytes."""
    first = output_of(executions[0])
    for i, ex in enumerate(executions):
        check_execution(tally, workload, ex, ref, seed_ref)
        if i:
            tally.check(output_of(ex) == first, f"{workload}: output of execution {i} differs from execution 0")


# --- tracing ----------------------------------------------------------------


def trace_totals(docs: list[dict]) -> tuple[dict, dict]:
    """Self time per span name and counters, summed over the trace documents
    of one execution.  In a CLI process the cli layer is the process wall
    minus every other span: interpreter start, imports, argparse, file
    loading, JSON output and exit, which a user pays on every command."""
    selfs: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    for doc in docs:
        own = tracing.self_times(doc["spans"])
        if "cli" in own:
            own["cli"] = doc["process_wall_s"] - sum(v for k, v in own.items() if k != "cli")
        for name, value in own.items():
            selfs[name] += value
        for name, value in doc["counters"].items():
            counters[name] += value
    return selfs, counters


def check_trace(tally: checks.Tally, workload: str, ex: Execution) -> None:
    """Every expected span fired, no self time is negative (which overlapping
    or double-counted spans would cause), and the layer self times add up to
    the traced wall: the process walls for CLI workloads, the calls for the
    sweep, whose own loop ("sweep") is the part no layer explains.

    On CLI workloads the last two hold by construction: cli.self_s is the
    process wall minus every other span, and spans come off one stack.  Only
    fiber-sweep, whose traced wall is measured apart from its spans, can
    fail them."""
    selfs, _ = trace_totals(ex.traces)
    fired = {span[0] for doc in ex.traces for span in doc["spans"]}
    missing = sorted(EXPECTED_SPANS[workload] - fired)
    tally.check(not missing, f"{workload}: expected spans never fired: {missing}")
    negative = {k: v for k, v in selfs.items() if v < -NEGATIVE_TOLERANCE_S}
    tally.check(not negative, f"{workload}: negative self times {negative}")
    layers = sum(v for k, v in selfs.items() if k != "sweep")
    tally.check(
        abs(ex.wall - layers) <= ADD_UP_TOLERANCE * ex.wall,
        f"{workload}: layer self times add up to {layers:.4f} s of a traced wall of {ex.wall:.4f} s",
    )


def layer_metrics(selfs: dict, counters: dict) -> dict[str, float]:
    metrics = {f"{name}.self_s": selfs.get(name, 0.0) for name in SELF_TIME_LAYERS}
    for name in COUNT_METRICS + ("family.points_on_X.bytes_materialized",):
        metrics[name] = counters.get(name, 0)
    for name, (num, den) in RATIO_METRICS.items():
        metrics[name] = counters[num] / counters[den] if counters.get(den) else 0.0
    return metrics


def per_layer(setup_trace: dict, traced: list[Execution], untraced: list[Execution]) -> dict[str, float]:
    """Per-layer values: the traced set-up plus the median over the traced
    executions, so each layer's work in one run is counted once."""
    setup_selfs, setup_counters = trace_totals([setup_trace])
    totals = [trace_totals(ex.traces) for ex in traced]
    selfs = defaultdict(float, setup_selfs)
    counters = defaultdict(float, setup_counters)
    for name in {k for s, _ in totals for k in s}:
        selfs[name] += statistics.median(s.get(name, 0.0) for s, _ in totals)
    for name in {k for _, c in totals for k in c}:
        counters[name] += statistics.median(c.get(name, 0) for _, c in totals)
    metrics = layer_metrics(selfs, counters)
    metrics["trace.overhead_s"] = statistics.median(ex.wall for ex in traced) - statistics.median(
        ex.wall for ex in untraced
    )
    return metrics


# --- the run ----------------------------------------------------------------


@contextmanager
def work_dir(name: str):
    """A scratch directory under .perfbench_work in the checkout, removed
    afterwards together with .perfbench_work when no other run uses it."""
    work_root = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(work_root, f"{name}-{os.getpid()}")
    os.makedirs(work)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository (git is
    kept from looking above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args: argparse.Namespace) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": loadavg(),
    }


def setup(seed: int, work: str, sweep: bool, trace_path: str | None = None) -> dict:
    """Write the inputs of `seed` to `work` in a fresh process; returns
    setup_s, the time of the searches and the writing, and cubic_draws, how
    many cubics the search returned until one was smooth along the plane.
    `sweep` also picks the fiber-sweep primes."""
    argv = [PY, CHILD, "setup", "--seed", str(seed), "--out", work]
    argv += ["--sweep"] if sweep else []
    proc = run_process(argv + (["--trace", trace_path] if trace_path else []), work)
    if proc.code != 0:
        raise BenchError(f"set-up failed (exit {proc.code}): {proc.stderr.decode(errors='replace')[-2000:]}")
    return json.loads(proc.stdout)


def measure(args: argparse.Namespace, work: str) -> tuple[list[Execution], list[Execution]]:
    """Untraced executions (and, with --trace 1, traced ones alternating with
    them) until the next round would end more than half a round past
    --seconds; at least MIN_EXECUTIONS rounds (one with --trace 1)."""
    untraced: list[Execution] = []
    traced: list[Execution] = []
    minimum = 1 if args.trace else MIN_EXECUTIONS
    start = time.perf_counter()
    while True:
        untraced.append(execute(args.workload, work, traced=False))
        if args.trace:
            traced.append(execute(args.workload, work, traced=True))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(untraced)
        if len(untraced) >= minimum and elapsed + per_round / 2 > args.seconds:
            return untraced, traced


def bench(args: argparse.Namespace, work: str) -> tuple[dict, dict]:
    ref, seed_ref = load_reference(args.seed)
    detail: dict = {}
    setup_trace_path = os.path.join(work, "setup-trace.json")
    sweep = args.workload == "fiber-sweep"
    if args.trace:
        detail["cubic_draws"] = setup(args.seed, work, sweep, setup_trace_path)["cubic_draws"]
        with open(setup_trace_path, encoding="utf-8") as fh:
            setup_trace = json.load(fh)
    else:
        own = setup(args.seed, work, sweep)
        detail["cubic_draws"] = own["cubic_draws"]
        setup_times = [own["setup_s"]]
        for i, panel_seed in enumerate(SETUP_PANEL):
            with work_dir(f"setup{i}") as other:
                setup_times.append(setup(panel_seed, other, sweep)["setup_s"])
        detail["setup_s"] = setup_times

    untraced, traced = measure(args, work)
    tally = checks.Tally()
    check_all(tally, args.workload, untraced + traced, ref, seed_ref)
    if args.workload == "count-scan-j2":
        # The README promises byte-identical output for any --jobs.
        serial = execute(args.workload, work, traced=False, jobs=1)
        tally.check(
            serial.procs[0].stdout == untraced[0].procs[0].stdout,
            "count-scan-j2: stdout differs from the same count with --jobs 1",
        )

    detail["executions"] = len(untraced)
    detail["wall_s"] = [ex.wall for ex in untraced]
    detail["cpu_s"] = [ex.cpu for ex in untraced]
    detail["peak_rss_mb"] = [ex.rss_mb for ex in untraced]
    if args.trace:
        fired = {span[0] for span in setup_trace["spans"]}
        tally.check(SETUP_SPANS <= fired, f"set-up: expected spans never fired: {sorted(SETUP_SPANS - fired)}")
        for ex in traced:
            check_trace(tally, args.workload, ex)
        metrics = per_layer(setup_trace, traced, untraced)
        detail["traced_wall_s"] = [ex.wall for ex in traced]
        detail["wrapped_binding_sites"] = setup_trace["sites"]
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(detail["wall_s"]),
            "cpu_s": statistics.median(detail["cpu_s"]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(detail["peak_rss_mb"]),
        }
        units = END_TO_END
    detail["failures"] = tally.messages
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quadring", "cli.py")):
        print(f"perfbench: no quadring sources under {SRC}", file=sys.stderr)
        return 2
    env = environment(args)
    try:
        with work_dir(f"{args.workload}-{args.seed}") as work:
            result, detail = bench(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = loadavg()
    for message in detail["failures"]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"env": env, "samples": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
