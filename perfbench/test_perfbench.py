"""Tests of the benchmark itself: smoke-size workloads, span arithmetic,
binding restoration, seed determinism and the output contract."""
import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import airylab.fredholm  # noqa: E402
import airylab.sao  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
from bench_trace import Span, Tracer, covered_time, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_rounds(workload, tally, rounds=1, tracer=None):
    """The prologue's output followed by each round's."""
    with tracer.installed() if tracer else contextlib.nullcontext():
        outs = [workload.prologue(tally)]
        for index in range(rounds):
            outs.append(workload.round(index, tally))
            workload.absorb(outs[-1])
    return outs


@pytest.mark.parametrize("name", sorted(bench_workloads.WORKLOADS))
def test_smoke_workload_passes_its_checks(name):
    workload = bench_workloads.WORKLOADS[name](seed=5, smoke=True)
    workload.warm_up()
    tally = bench_workloads.Tally()
    _run_rounds(workload, tally, rounds=2)
    summary = workload.finish(tally)
    assert tally.failed == 0, tally.notes
    assert tally.attempted > 0
    assert summary["samples"] > 0


def test_self_time_on_synthetic_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]
    spans = [Span("a", -1, 0, 0.0, 10.0), Span("b", 0, 0, 1.0, 4.0),
             Span("c", 0, 0, 5.0, 9.0), Span("d", 2, 0, 6.0, 8.0),
             Span("e", -1, 1, 12.0, 13.5)]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0, 1.5]
    assert covered_time(spans) == 11.5


def test_tracer_nests_spans_and_counts():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda xs: xs, bench_trace._riccati_counts)
    outer = tracer.wrap("outer", lambda xs: inner(xs) + inner(xs))
    assert outer([1, 2, 3]) == [1, 2, 3, 1, 2, 3]
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    totals = tracer.layer_totals()
    assert totals["inner"]["calls"] == 2 and totals["inner"]["cells"] == 6
    assert totals["outer"]["self_s"] >= 0.0


def test_weight_health_of_equal_and_degenerate_weights():
    even = bench_trace._weight_health(([0.5] * 4,), {}, None)
    assert even["ess_share"] == pytest.approx(1.0) and even["max_weight_share"] == pytest.approx(0.25)
    one = bench_trace._weight_health(([0.0, -800.0, -800.0, -800.0],), {}, None)
    assert one["ess_share"] == pytest.approx(0.25) and one["max_weight_share"] == pytest.approx(1.0)


def _bound_functions():
    import importlib
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in bench_trace.BINDINGS}


def test_bindings_restored_after_tracing_even_on_error():
    before = _bound_functions()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert airylab.sao.tridiagonal_eigenvalues is not before[
                ("airylab.sao", "tridiagonal_eigenvalues")]
            assert airylab.fredholm.ai_values.__wrapped__ is before[("airylab.fredholm", "ai_values")]
            raise RuntimeError("abort inside the traced region")
    after = _bound_functions()
    assert all(after[key] is fn for key, fn in before.items())


@pytest.mark.parametrize("name", ["ldp_importance", "fredholm_identity"])
def test_traced_round_is_bit_identical(name):
    cls = bench_workloads.WORKLOADS[name]
    tally = bench_workloads.Tally()
    plain = _run_rounds(cls(seed=9, smoke=True), tally)
    tracer = Tracer()
    traced = _run_rounds(cls(seed=9, smoke=True), tally, tracer=tracer)
    assert json.dumps(plain) == json.dumps(traced)
    assert tracer.spans and tally.failed == 0


def test_same_seed_same_outputs_other_seed_other_inputs():
    def first_round(seed):
        return _run_rounds(bench_workloads.LdpImportance(seed=seed, smoke=True),
                           bench_workloads.Tally())[1]

    assert json.dumps(first_round(3)) == json.dumps(first_round(3))
    assert first_round(3)["mean"] != first_round(4)["mean"]
    seeds = {bench_workloads.round_seed(s, w, i)
             for s in (1, 2) for w in bench_workloads.WORKLOADS for i in (0, 1)}
    assert len(seeds) == 2 * len(bench_workloads.WORKLOADS) * 2


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ldp_importance",
                           "--seed", "2", "--seconds", "0", "--trace", str(trace), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kernel_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
