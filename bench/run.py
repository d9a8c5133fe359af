"""Benchmark for wqokit: one workload, one seed, one fresh process.

    python3 bench/run.py --workload cover-deep --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports wqokit from ``src/``. The
process sets up the workload (import, inputs, warm-up), then runs whole
passes over the workload's pool of operations as one closed-loop client
until ``--seconds`` have passed and at least MIN_PASSES passes are done.
Untraced runs also set up again and time serial ``python -m wqokit.cli``
subprocesses, both spread over the timed phase. A speed probe runs
between operations, and the metrics give every time in reference
seconds (bench/speed.py). A referee checks every result; see
bench/README.md for workloads and metrics.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). Everything else, the environment
block, wall-clock figures, the output digest and the spans of a traced
run, goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import sys

# Modules the interpreter loaded before the benchmark imported anything.
# A set-up drops every pure-Python module outside this set, so it pays
# for the standard-library imports wqokit brings in, as a fresh process
# would.
STARTUP_MODULES = frozenset(sys.modules)

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import time
import types
import typing
from pathlib import Path

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

HELD_OUT_SEED = 9173  # kept back for confirming claims made on other seeds
SETUP_REPS = 41  # set-ups per untraced run; setup_s is their median
MIN_PASSES = 4  # so the 3 cover-deep items beyond its p90 rest on >= 12 calls
OVERRUN_S = 60  # extra time the last passes may take beyond --seconds
PROC_RUNS = 41  # `python -m wqokit.cli` subprocesses per untraced run
PROC_TIMEOUT_S = 30
DEADLINE_MARGIN_S = 50  # beyond --seconds + OVERRUN_S, before the process gives up
UNTRACED_SHARE = 0.25  # of a traced run's timed phase, run untraced first
PROBE_EVERY_S = 0.04  # operation time between two speed probes
STDLIB = Path(os.__file__).resolve().parent


class Raised(typing.NamedTuple):
    """The result of an operation that raised; always a failure."""

    error: str
    message: str


class Deadline(BaseException):
    """Raised by the alarm; not an Exception, so no operation swallows it."""


def _on_alarm(signum, frame):
    raise Deadline("run exceeded its deadline")


def stale(name: str, mod) -> bool:
    """Whether a set-up drops this module before it imports wqokit.

    That is wqokit itself and every pure-Python standard-library module
    loaded since interpreter start, so that a set-up imports again what
    wqokit needs, as a fresh process would.
    """
    if name == "wqokit" or name.startswith("wqokit."):
        return True
    path = getattr(mod, "__file__", None)
    if name in STARTUP_MODULES or not path or not path.endswith(".py"):
        return False
    path = Path(path).resolve()
    return path.is_relative_to(STDLIB) and "site-packages" not in path.parts


def import_wqokit(names) -> types.SimpleNamespace:
    """Import wqokit afresh from src/, so every set-up pays the import."""
    for name in [n for n, m in sys.modules.items() if stale(n, m)]:
        del sys.modules[name]
    for name in names:
        importlib.import_module(name)
    pkg = sys.modules["wqokit"]
    if Path(pkg.__file__).resolve().parent != SRC / "wqokit":
        raise ImportError(f"wqokit imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{n.split(".", 1)[1]: m for n, m in sys.modules.items() if n.startswith("wqokit.")}
    )


def percentile(sorted_values, num: int, den: int) -> float:
    """Nearest-rank num/den-th quantile of an ascending list."""
    return sorted_values[max(0, -(-num * len(sorted_values) // den) - 1)]


def score(pool, first, runs, mismatched) -> tuple[int, str, list[str]]:
    """Referee the first result of each pool item; failed ops, digest, examples.

    Every run of an item whose first result is wrong fails; otherwise the
    runs whose result differed from the first one fail.
    """
    failed, errors = 0, []
    digest = hashlib.sha256()
    for i, op in enumerate(pool):
        result = first[i]
        try:
            ok = not isinstance(result, Raised) and op.check(result)
        except Exception as exc:  # a result the referee cannot read is wrong
            ok = False
            result = ("unreadable", repr(exc))
        if ok:
            failed += mismatched[i]
        else:
            failed += runs[i]
            if len(errors) < 5:
                errors.append(f"{op.kind}#{i}: {result!r}"[:300])
        text = op.show(result) if ok else repr(result)
        digest.update(f"{i}:{op.kind}:{text}\n".encode())
    return failed, digest.hexdigest(), errors


def item_latencies(durations, n: int) -> list[float]:
    """Each pool item's mean latency over the passes of the timed phase.

    The machine's speed flips between levels many times a second, so one
    operation's samples have several modes. A percentile of the samples
    jumps between modes as their shares change from run to run; a mean
    over passes moves in proportion, as the speed scale does.
    """
    passes = len(durations) // n
    return [statistics.fmean(durations[i::n][:passes]) for i in range(n)]


def end_to_end_metrics(
    latencies, ops_per_s, setup_times, peak_rss_mb, proc_times, scale=1.0
) -> dict:
    """The end-to-end metrics from wall times, scaled by `scale`.

    `latencies` holds one mean latency per pool item (item_latencies).
    """
    lat = sorted(latencies)
    return {
        "ops_per_s": (ops_per_s / scale, "1/s"),
        "op_ms_p50": (1000 * scale * percentile(lat, 1, 2), "ms"),
        "op_ms_p90": (1000 * scale * percentile(lat, 9, 10), "ms"),
        "setup_s": (scale * statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "proc_ms_p50": (1000 * scale * statistics.median(proc_times) if proc_times else 0.0, "ms"),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


class CliProcs:
    """Serial `python -m wqokit.cli` runs, spread over the timed phase.

    Spreading them samples the same stretch of machine time as the
    operations, where a block at the end would catch one moment only.
    """

    def __init__(self, items):
        self.items = items
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list[float] = []
        self.failed = 0
        self.done = 0

    def step(self) -> None:
        """Run the next subprocess and time it."""
        item = self.items[self.done % len(self.items)]
        self.done += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "wqokit.cli", *item.argv],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=PROC_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.failed += 1
            return
        took = time.perf_counter() - t0
        self.times.append(took)
        if not item.check(proc.returncode, proc.stdout):
            self.failed += 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (SRC / "wqokit" / "__init__.py").is_file():
        print(f"error: no wqokit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if ns.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {ns.workload!r}", file=sys.stderr)
        return 2
    if not workloads.ORACLES.is_file():
        print(f"error: missing {workloads.ORACLES}", file=sys.stderr)
        return 2
    if ns.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(ns.seconds + OVERRUN_S + DEADLINE_MARGIN_S)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{ns.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(ns, workdir)
    except Deadline as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)


def set_up(wl, tracer):
    """Import wqokit, build the workload's pool and warm it up."""
    wq = import_wqokit(wl.modules)
    if tracer:
        tracer.install()
    pool, warm = wl.build(wq)
    for op in warm:
        op.run()
    return pool


def timed_set_up(wl, tracer, setup_times):
    gc.collect()  # drop the previous set-up, so each one starts alike
    t0 = time.perf_counter()
    pool = set_up(wl, tracer)
    setup_times.append(time.perf_counter() - t0)
    return pool


def run(ns, workdir: Path) -> int:
    load_before = os.getloadavg()
    orc = workloads.load_oracles()
    wl = workloads.WORKLOADS[ns.workload](ns.seed, workdir, orc)
    tracer = tracing.Tracer() if ns.trace else None
    setup_times: list[float] = []
    pool = plain_pool = timed_set_up(wl, None, setup_times)

    # Side work of an untraced run: the CLI subprocesses and the other
    # set-ups, spread evenly over the timed phase so that they sample the
    # same stretch of machine time as the operations. A set-up there
    # imports wqokit afresh and builds a pool that is then dropped; the
    # timed pool keeps the modules it was built with.
    procs = None if tracer else CliProcs(wl.proc_items())
    setups_due = 0 if tracer else SETUP_REPS

    def side_work(share: float) -> float:
        """Run the side work due by this share of the phase; its wall time."""
        t0 = time.perf_counter()
        while procs and procs.done < PROC_RUNS * share:
            procs.step()
        while len(setup_times) < setups_due * share:
            timed_set_up(wl, None, setup_times)
            gc.collect()
        return time.perf_counter() - t0

    # ---- timed phase: whole passes, one closed-loop client, with a speed
    # probe after every PROBE_EVERY_S of operation time. A traced run
    # first runs untraced passes for UNTRACED_SHARE of the phase, then
    # sets up again with the tracer installed; its traced passes must
    # give the same outputs.
    n = len(pool)
    first: list = [None] * n
    traced_first: list = [None] * n
    runs = [0] * n
    mismatched = [0] * n
    durations: list[float] = []
    pass_times: list[float] = []
    untraced_pass_times: list[float] = []
    spd = speed.Speed()
    spd.probe()
    passes = 0
    paused = 0.0  # time spent in side work and probes, outside every timing
    since_probe = 0.0
    gc.collect()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer and not tracer.on and t0 - start >= UNTRACED_SHARE * ns.seconds:
            pool = set_up(wl, tracer)  # a fresh import, wrapped
            tracer.on = True
            paused += time.perf_counter() - t0
        traced_pass = tracer is not None and tracer.on
        # each pool's first pass gives the results its later passes must repeat
        results = traced_first if traced_pass else first
        fill = passes == 0 or (traced_pass and not pass_times)
        pass_time = 0.0
        for i, op in enumerate(pool):
            if tracer:
                tracer.op = len(durations)
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an operation that raises is a failure
                result = Raised(type(exc).__name__, str(exc))
            t1 = time.perf_counter()
            took = t1 - t0
            durations.append(took)
            pass_time += took
            since_probe += took
            while since_probe >= PROBE_EVERY_S:  # probes in proportion to time
                paused += spd.probe()
                since_probe -= PROBE_EVERY_S
            runs[i] += 1
            if fill:
                results[i] = result
            elif result != results[i]:
                mismatched[i] += 1
            paused += side_work(min(1.0, (t1 - start - paused) / ns.seconds))
        passes += 1
        if tracer and not traced_pass:
            untraced_pass_times.append(pass_time)
        else:
            pass_times.append(pass_time)
        if traced_pass and len(pass_times) == 1:
            tracer.end_first_pass()
        elapsed = time.perf_counter() - start - paused
        if not pass_times:
            continue
        if elapsed >= ns.seconds + OVERRUN_S:
            break
        if elapsed >= ns.seconds and len(pass_times) >= MIN_PASSES:
            break
    if tracer:
        tracer.on = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    side_work(1.0)

    # ---- referee and digest, outside every timing
    failed, digest_hex, errors = score(plain_pool, first, runs, mismatched)
    failed += procs.failed if procs else 0
    attempted = len(durations) + (procs.done if procs else 0)

    def rate(times):  # operations over their time, in whole passes
        return n * len(times) / sum(times)

    # reference seconds per wall second over the run (bench/speed.py)
    scale = spd.scale()
    ops_per_s = rate(pass_times) / scale
    extra: dict = {"probe_s_mean": speed.PROBE_REF_S / scale}
    if tracer:
        metrics = tracing.layer_metrics(tracer, len(pass_times), ops_per_s, scale)
        # the trace is valid only if it reproduces the untraced outputs
        extra["traced_digest"] = score(pool, traced_first, runs, mismatched)[1]
        extra["untraced_digest_equal"] = extra["traced_digest"] == digest_hex
        extra["untraced_ops_per_s"] = rate(untraced_pass_times) / scale
        extra["tracing_overhead"] = extra["untraced_ops_per_s"] / ops_per_s
    else:
        latencies = item_latencies(durations, n)
        args = (latencies, rate(pass_times), setup_times, peak_rss_mb, procs.times)
        metrics = end_to_end_metrics(*args, scale)
        extra["wall"] = end_to_end_metrics(*args)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    correct = failed == 0 and extra.get("untraced_digest_equal", True)
    stem = f"{ns.workload}-seed{ns.seed}"

    record = {
        "workload": ns.workload,
        "seed": ns.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": ns.trace,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
        "seconds": ns.seconds,
        "elapsed_s": elapsed,
        "passes": passes,
        "pool_size": n,
        "ops": len(durations),
        "ops_per_s": ops_per_s,
        # wall seconds
        "pass_s_each": pass_times,
        "untraced_pass_s_each": untraced_pass_times,
        "setup_s_each": setup_times,
        "proc_s_each": procs.times if procs else [],
        "probe_s_each": spd.probes,
        # pool items beyond the 90th percentile, each a mean over `passes`
        "p90_items_beyond": n - -(-9 * n // 10),
        "fail_ratio": failed / attempted,
        "errors": errors,
        "digest": digest_hex,
        "metrics": metrics,
        **extra,
    }
    if tracer:
        record["counters_first_pass"] = tracer.first_pass
        tracer.write_spans(OUT / f"{stem}-trace1-spans.jsonl")
    (OUT / f"{stem}-trace{ns.trace}.json").write_text(json.dumps(record, indent=1))

    print(
        f"# {ns.workload} seed {ns.seed}: {len(durations)} ops in {passes} passes "
        f"of {n}, {elapsed:.1f} s, fail_ratio {failed / attempted:.4g}, "
        f"digest {digest_hex[:16]}"
    )
    for e in errors:
        print(f"# failed: {e}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
