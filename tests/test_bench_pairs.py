"""scripts/bench_pairs.py: its summary of paired benchmark runs, on canned results."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                       {"name": "samples_per_s", "better": "higher", "bound": 0.25}]}


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _bench_pairs()


def _run(wall_s, samples_per_s, failed=0, returncode=0):
    metrics = {"wall_s": {"value": wall_s, "unit": "s"},
               "samples_per_s": {"value": samples_per_s, "unit": "1/s"}}
    return {"returncode": returncode,
            "result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": metrics}}


def test_quartiles_interpolate_between_the_sorted_values():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_compare_follows_the_metric_direction():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4]
    faster = [0.7, 0.8, 0.9, 1.0, 1.1]
    lower = bench_pairs.compare(parent, faster, "lower", 0.25)
    assert lower["wins"] == 5 and lower["pairs"] == 5
    assert lower["worse_by"] == pytest.approx(-0.25)
    assert lower["beyond_parent_iqr"] and not lower["beyond_bound"] and not lower["unresolved"]
    higher = bench_pairs.compare(parent, faster, "higher", 0.1)
    assert higher["wins"] == 0
    assert higher["worse_by"] == pytest.approx(0.25)
    assert higher["beyond_bound"] and higher["unresolved"]


def test_ties_count_for_neither_side_and_a_small_move_stays_inside_the_iqr():
    facts = bench_pairs.compare([1.0, 2.0, 3.0, 4.0], [1.0, 2.1, 2.9, 4.0], "lower", 0.25)
    assert facts["wins"] == 1
    assert facts["worse_by"] == 0.0 and not facts["beyond_parent_iqr"]


def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    parent = [1.0, 1.5, 2.0, 2.5, 3.0]  # interquartile range 1.0 about a median of 2.0
    same = bench_pairs.compare(parent, list(parent), "lower", 0.25)
    assert same["unresolved"] and not same["beyond_bound"]
    # unless every run of the change beats every run of the parent
    assert not bench_pairs.compare(parent, [0.5, 0.6, 0.7, 0.8, 0.9], "lower", 0.25)["unresolved"]
    assert bench_pairs.compare(parent, [0.5, 0.6, 0.7, 0.8, 1.0], "lower", 0.25)["unresolved"]
    assert not bench_pairs.compare(parent, [3.1, 3.2, 3.3, 3.4, 3.5], "higher", 0.25)["unresolved"]
    assert not bench_pairs.compare(parent, list(parent), "lower", 0.5)["unresolved"]


def test_summary_reports_each_metric_and_every_pair():
    runs = {"kernel_sweep": [(_run(1.0, 40.0), _run(0.9, 41.0)),
                             (_run(1.2, 38.0), _run(1.3, 37.0)),
                             (_run(1.1, 39.0), _run(1.0, 42.0))]}
    lines, passed = bench_pairs.summarize(SPEC, runs)
    assert passed
    assert lines[0] == ("kernel_sweep: 3 pairs; operations attempted, parent/change: 30/30; "
                        "failed runs: none")
    assert lines[1].startswith("  wall_s (lower is better, bound 25%): parent 1.1 [1.05-1.15] "
                               "-> change 1 [0.95-1.15], 9.1% better; change wins 2/3;")
    assert lines[2] == "    pairs: 1/0.9 1.2/1.3 1.1/1"
    assert "samples_per_s" in lines[3] and "change wins 2/3" in lines[3]
    assert lines[3].endswith("beyond the parent's IQR: yes; beyond the bound: no; unresolved: no")


@pytest.mark.parametrize("bad", [_run(1.0, 40.0, failed=1), _run(1.0, 40.0, returncode=1),
                                 {"returncode": 1, "result": None}])
def test_a_run_that_failed_fails_the_summary_and_leaves_the_metrics(bad):
    runs = {"ldp_importance": [(_run(1.0, 40.0), _run(0.9, 41.0)), (_run(1.2, 38.0), bad)]}
    lines, passed = bench_pairs.summarize(SPEC, runs)
    assert not passed
    assert lines[0].endswith("failed runs: pair 1 change")
    assert lines[2] == "    pairs: 1/0.9"
