"""Tests of the benchmark itself: referees, failure accounting, tracing.

    python -m pytest bench -q

The referees must accept the library's real answers and count an
injected wrong answer as a failure; the tracer must not change results
and must count the same work the same way twice.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import types
from itertools import product
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ORC = workloads.load_oracles()
# cover-deep ops cheap enough for a test: chains of at most 4 places
CHEAP = {"chain3", "chain4"}


@pytest.fixture
def workdir():
    path = run.OUT / f"test-{random.randrange(10**9)}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_chain_min_solutions_match_brute_force():
    for branchings in product((2, 3), repeat=3):
        w = workloads.chain_weights(branchings)
        for target in (w[0], w[0] + 1):
            box = product(*(range(-(-target // x) + 1) for x in w))
            covering = [m for m in box if sum(a * b for a, b in zip(m, w)) >= target]
            want = ORC.minimal_elements(covering, ORC.vec_le)
            assert workloads.chain_min_solutions(w, target) == want


def corrupt(kind: str, r):
    """A wrong answer of the same shape as r."""
    if kind.startswith("chain"):
        last = r.basis.gens[-1]
        bogus = types.SimpleNamespace(gens=r.basis.gens + (tuple(x + 1 for x in last),))
        return r._replace(basis=bogus)
    if isinstance(r, bool):
        return not r
    if kind.startswith("member"):  # a batch of answers
        return (not r[0],) + r[1:]
    if kind in ("quotient", "build_E"):
        return types.SimpleNamespace(gens=r.gens[1:])
    if kind.startswith("som"):
        return r ^ {0}
    if kind == "good_pair":
        return (0, 1) if r != (0, 1) else (0, 2)
    if kind == "homogeneous":
        if r is not None:
            return None
        return types.SimpleNamespace(indices=(0, 1, 2), shape=types.SimpleNamespace(value="antichain"))
    if kind == "quasi":
        return (False, None)
    code, out = r  # cli: (exit code, stdout)
    if kind == "cover":
        verdict = out.splitlines()[0]
        swapped = "coverable: false" if verdict == "coverable: true" else "coverable: true"
        return (1 - code, out.replace(verdict, swapped, 1))
    if out in ("true\n", "false\n"):
        return (1 - code, "false\n" if out == "true\n" else "true\n")
    if kind == "seq":
        return (1, "bad\n") if code == 0 else (0, "good pair: 0 1\n")
    if kind == "phi-slice":
        return (code, "0\n" if out != "0\n" else "1\n")
    lines = out.splitlines(keepends=True)  # an upset block: drop a generator
    return (code, "".join(lines[:1] + lines[2:]))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_referee_counts_injected_wrong_answers(name, workdir):
    wl = workloads.WORKLOADS[name](3, workdir, ORC)
    wq = run.import_wqokit(wl.modules)
    pool, warm = wl.build(wq)
    pool = [op for op in pool if not op.kind.startswith("chain") or op.kind in CHEAP]
    first = [op.run() for op in pool]
    runs = [2] * len(pool)
    clean = [0] * len(pool)
    failed, digest, errors = run.score(pool, first, runs, clean)
    assert (failed, errors) == (0, [])
    # the digest depends only on the results
    assert run.score(pool, [op.run() for op in pool], runs, clean)[1] == digest
    for i, op in enumerate(pool):
        wrong = list(first)
        wrong[i] = corrupt(op.kind, first[i])
        failed, other, errors = run.score(pool, wrong, runs, clean)
        assert failed == 2, (op.kind, first[i], wrong[i])
        assert other != digest
    # a later run that disagrees with the first fails on its own
    assert run.score(pool, first, runs, [1] + clean[1:])[0] == 1
    # so does every run of an item whose first run raised
    assert run.score(pool, [run.Raised("ValueError", "boom")] + first[1:], runs, clean)[0] == 2
    # the CLI subprocesses' referee, on the answer the library gives
    cli = run.import_wqokit(("wqokit", "wqokit.cli")).cli
    for item in wl.proc_items():
        code, out = _cli(cli, item.argv)
        assert item.check(code, out)
        assert not item.check(1 - code, out)


def _cli(cli, argv):
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, buf.getvalue()


def test_tracing_keeps_results_and_counts_repeat(workdir):
    wl = workloads.CoverDeep(5, workdir, ORC)
    wq = run.import_wqokit(wl.modules)
    pool, _ = wl.build(wq)
    pool = [op for op in pool if op.kind in CHEAP]
    plain = [op.run() for op in pool]
    counts = []
    for _ in range(2):
        wq = run.import_wqokit(wl.modules)
        tracer = tracing.Tracer()
        tracer.install()
        traced_pool, _ = wl.build(wq)
        traced_pool = [op for op in traced_pool if op.kind in CHEAP]
        tracer.on = True
        traced = [op.run() for op in traced_pool]
        tracer.on = False
        tracer.end_first_pass()
        assert [(r.coverable, r.basis.gens, r.iterations) for r in traced] == [
            (r.coverable, r.basis.gens, r.iterations) for r in plain
        ]
        counts.append(tracer.first_pass)
        selft = tracer.self_times()
        assert all(v >= 0 for v in selft.values())
        assert selft["coverability.backward_cover"] > 0
    assert counts[0] == counts[1]
    assert counts[0]["dickson.leq.calls"] > 0
    assert counts[0]["coverability.backward_cover.calls"] == len(pool)


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = run.end_to_end_metrics([0.001] * 10, 1.0, [0.1], 20.0, [0.05])
    assert {(k, u) for k, (v, u) in e2e.items()} == {
        (m["name"], m["unit"]) for m in spec["end_to_end"]
    }
    layer = tracing.layer_metrics(tracing.Tracer(), 1, 1.0, 1.0)
    assert {(k, u) for k, (v, u) in layer.items()} == {
        (m["name"], m["unit"]) for m in spec["per_layer"]
    }
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_set_up_drops_wqokit_and_the_stdlib_it_loaded(monkeypatch):
    import argparse

    monkeypatch.setattr(run, "STARTUP_MODULES", frozenset())
    assert run.stale("wqokit.cli", types.ModuleType("wqokit.cli"))
    assert run.stale("argparse", argparse)
    assert not run.stale("pytest", pytest)  # site-packages stays
    assert not run.stale("tracing", tracing)  # so does the benchmark
    assert not run.stale("sys", sys)  # built in
    monkeypatch.setattr(run, "STARTUP_MODULES", frozenset({"argparse"}))
    assert not run.stale("argparse", argparse)


def test_traced_run_checks_itself_against_untraced_passes(capsys):
    assert run.main(["--workload", "words-query", "--seed", "2", "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    record = json.loads((run.OUT / "words-query-seed2-trace1.json").read_text())
    assert record["untraced_digest_equal"] and record["traced_digest"] == record["digest"]
    assert record["untraced_pass_s_each"] and record["pass_s_each"]
    assert record["tracing_overhead"] > 0


def test_latencies_are_item_means_over_whole_passes():
    # two passes over three items, then a partial third pass that is left out
    durations = [1.0, 2.0, 30.0, 3.0, 4.0, 10.0, 99.0]
    assert run.item_latencies(durations, 3) == [2.0, 3.0, 20.0]
    e2e = run.end_to_end_metrics([2.0, 3.0, 20.0], 1.5, [0.1, 0.3, 0.2], 20.0, [0.05], scale=2.0)
    assert e2e["op_ms_p50"] == (6000.0, "ms") and e2e["op_ms_p90"] == (40000.0, "ms")
    assert e2e["ops_per_s"] == (0.75, "1/s") and e2e["setup_s"] == (0.4, "s")


def test_speed_kernel_is_minimal_elements_and_scale_uses_the_mean():
    assert set(speed.kernel()) == set(ORC.minimal_elements(speed.VECTORS, ORC.vec_le))
    spd = speed.Speed()
    spd.probes = [speed.PROBE_REF_S, 3 * speed.PROBE_REF_S]  # two speed levels
    assert spd.scale() == 0.5
    assert spd.probe() > 0 and len(spd.probes) == 3
