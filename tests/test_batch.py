"""Batch spectrum solves: the same bits as serial loops, for any CPU count."""
import importlib.util
import inspect
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from airylab import hill, sao
from airylab.fredholm import sample_sao2_spectra
from airylab.hill import Boundary, HillConfig, NoisePath, dirichlet_spectra
from airylab.mc import estimate_from_log_samples, spawn_rng
from airylab.sao import (SaoConfig, ldp_estimate, optimal_drift_profile, sandwich_check,
                         sao_spectrum)
from airylab.variational import DiscretizationParams

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
POOL_CELLS = hill._POOL_MIN_CELLS


def _digests():
    spec = importlib.util.spec_from_file_location("output_digests",
                                                  ROOT / "scripts" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _python(code):
    """Run code in a fresh interpreter on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def _serial(monkeypatch):
    monkeypatch.setattr(hill, "_usable_cpus", lambda: 1)


def _paths(cfg, rng, n):
    return (NoisePath.sample(rng, cfg.grid_n, cfg.h) for _ in range(n))


def _same_spectra(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.cap == b.cap
        assert np.array_equal(a.eigenvalues, b.eigenvalues)


class TestSameBits:
    def test_sample_sao2_spectra_matches_sao_spectrum_loop(self):
        for grid_n in (2 ** 10, 2 ** 12):
            cfg = SaoConfig(beta=2.0, domain_l=40.0, grid_n=grid_n, lambda_cap=36.0)
            rng = spawn_rng(71, "laplace-mc")
            expected = [sao_spectrum(cfg, path) for path in _paths(cfg, rng, 5)]
            _same_spectra(sample_sao2_spectra(cfg, 5, 71), expected)

    @pytest.mark.parametrize("base, offset", [("one", 0), ("group", -1), ("group", 0),
                                              ("group", 1), ("in flight", 1)])
    def test_batch_sizes_around_the_group_size(self, base, offset):
        # one path, one below / at / above a group, one above the groups in flight
        cfg = SaoConfig(beta=2.0, domain_l=20.0, grid_n=POOL_CELLS, lambda_cap=8.0)
        group = hill._GROUP_ROWS // cfg.grid_n
        in_flight = group * hill._GROUPS_PER_WORKER * max(2, hill._usable_cpus())
        n = {"one": 1, "group": group, "in flight": in_flight}[base] + offset
        rng = spawn_rng(72, "batch-sizes", n)
        expected = [sao_spectrum(cfg, path) for path in _paths(cfg, rng, n)]
        rng = spawn_rng(72, "batch-sizes", n)
        _same_spectra(list(dirichlet_spectra(cfg, _paths(cfg, rng, n))), expected)

    def test_hill_levels_and_paths_drawn_lazily(self):
        cfg = HillConfig(j=2, xi=1.0, beta=1.0, grid_n=POOL_CELLS, lambda_cap=200.0)
        n = 100
        rng = spawn_rng(73, "hill-batch")
        expected = [hill.hill_spectrum(cfg, NoisePath.sample(rng, cfg.grid_n, cfg.h))
                    for _ in range(n)]
        rng = spawn_rng(73, "hill-batch")
        drawn = []

        def paths():
            for _ in range(n):
                drawn.append(1)
                yield NoisePath.sample(rng, cfg.grid_n, cfg.h)

        batch = dirichlet_spectra(cfg, paths())
        first = next(batch)
        # a few groups per worker are drawn ahead, never the whole batch
        assert len(drawn) < n
        _same_spectra([first, *batch], expected)
        assert len(drawn) == n and sum(s.eigenvalues.size for s in expected) > 0

    def test_periodic_config_rejected(self):
        cfg = HillConfig(j=0, xi=1.0, beta=2.0, grid_n=64, boundary=Boundary.PERIODIC)
        with pytest.raises(hill.DomainError):
            dirichlet_spectra(cfg, [NoisePath.zeros(64, 1.0 / 64)])

    @pytest.mark.parametrize("use_importance", [False, True])
    @pytest.mark.parametrize("grid_n, n_samples", [(256, 8), (POOL_CELLS, 40)])
    def test_ldp_log_values_match_sao_spectrum_loop(self, use_importance, grid_n,
                                                    n_samples, monkeypatch):
        seen = []

        def capture(log_vals, seed):
            seen.append(log_vals.copy())
            return estimate_from_log_samples(log_vals, seed)

        monkeypatch.setattr(sao, "estimate_from_log_samples", capture)
        z, t, beta, seed = -1.0, 4.0, 2.0, 74
        ldp_estimate(z, t, beta, n_samples=n_samples, seed=seed, grid_n=grid_n,
                     use_importance=use_importance)
        threshold = -z * t ** (2.0 / 3.0)
        params = DiscretizationParams.from_deviation(z, t, 0.0)
        span = params.n * params.xi if use_importance else 0.0
        cfg = SaoConfig(beta=beta, domain_l=max(threshold, span) + 8.0, grid_n=grid_n,
                        lambda_cap=threshold)
        rates = np.zeros(grid_n)
        if use_importance:
            level = np.floor((np.arange(grid_n) + 0.5) * cfg.h / params.xi).astype(int) + 1
            inside = level <= params.n
            drifts = np.asarray(optimal_drift_profile(z, beta, params))
            rates[inside] = t ** (2.0 / 3.0) * drifts[level[inside] - 1]
        rng = spawn_rng(seed, "ldp", "importance" if use_importance else "plain")
        half_r2h = 0.5 * float((rates ** 2).sum()) * cfg.h
        expected = np.empty(n_samples)
        for k in range(n_samples):
            path = NoisePath.sample(rng, grid_n, cfg.h, drift_rate=rates)
            logw = -float((rates * path.increments).sum()) + half_r2h
            expected[k] = hill.linear_statistic(sao_spectrum(cfg, path), z, t) + logw
        assert np.array_equal(seen[0], expected)

    def test_sandwich_estimates_independent_of_cpu_count(self, monkeypatch):
        params = DiscretizationParams(t=1.0, a=0.0, n=2)

        def run():
            return sandwich_check(-1.0, 1.0, 2.0, params, 60, seed=75,
                                  hill_grid_n=POOL_CELLS, sao_grid_n=POOL_CELLS)

        pooled = run()
        _serial(monkeypatch)
        serial = run()
        assert [(e.mean, e.stderr) for e in pooled] == [(e.mean, e.stderr) for e in serial]


def test_worker_error_reaches_the_caller_with_its_type():
    # the patched solver raises on the pool's threads
    code = """
import airylab.hill as hill
from airylab.errors import DomainError
from airylab.fredholm import sample_sao2_spectra
from airylab.sao import SaoConfig

def broken(diag, off, cap):
    raise DomainError("raised by the solver")

hill.tridiagonal_eigenvalues = broken
try:
    sample_sao2_spectra(SaoConfig(beta=2.0, domain_l=20.0, grid_n=2 ** 14, lambda_cap=5.0), 6, 1)
except DomainError as exc:
    print(type(exc).__name__, exc, hill._worker_pool.cache_info().currsize == 1)
"""
    done = _python(code)
    pooled = hill._usable_cpus() > 1
    assert done.stdout.strip() == f"DomainError raised by the solver {pooled}", done.stderr


@pytest.mark.skipif(hill._usable_cpus() < 2, reason="one usable CPU solves in place")
def test_two_solves_on_the_pool_overlap_in_time():
    # dstebz runs without the interpreter lock: two solves on two pool threads
    # take about the wall time of one.  With a solver that holds the lock the
    # two run one after the other, and the wall covers both CPU times.
    cfg = SaoConfig(beta=2.0, domain_l=40.0, grid_n=2 ** 14, lambda_cap=36.0)
    diag, off = cfg.operator(NoisePath.zeros(cfg.grid_n, cfg.h)).dirichlet()

    def timed_solve(_):
        wall, cpu = time.perf_counter(), time.thread_time()
        ev = hill.tridiagonal_eigenvalues(diag, off, cfg.lambda_cap)
        return ev, wall, time.perf_counter(), time.thread_time() - cpu

    ratios = []
    for _ in range(3):  # another load on the machine may keep a CPU busy for a while
        (ev_a, start_a, end_a, cpu_a), (ev_b, start_b, end_b, cpu_b) = hill._pool_map(
            timed_solve, [0, 1])
        assert np.array_equal(ev_a, ev_b) and ev_a.size > 0
        ratios.append((max(end_a, end_b) - min(start_a, start_b)) / (cpu_a + cpu_b))
    assert min(ratios) < 0.75, ratios


@pytest.mark.skipif(hill._usable_cpus() < 2, reason="one usable CPU solves in place")
def test_shared_kernels_on_a_pool_thread_run_in_place():
    # every pool thread runs the kernels at once, so a pool thread that waited
    # on the pool would wait for ever and the run would hit its timeout
    code = """
import numpy as np
import airylab.hill as hill
from airylab.airy import ai_values
from airylab.fredholm import sample_sao2_spectra
from airylab.mc import spawn_rng
from airylab.sao import SaoConfig
from airylab.wkb import periodic_hill_pair, random_profile

def kernels(_):
    xs = np.linspace(-40.0, 40.0, 2 ** 16)
    pair = periodic_hill_pair(random_profile(spawn_rng(3, "worker-pair"), grid_n=512))
    spectra = sample_sao2_spectra(SaoConfig(beta=2.0, domain_l=20.0, grid_n=2 ** 12,
                                            lambda_cap=5.0), 12, 1)
    config = hill.HillConfig(j=1, xi=1.0, beta=2.0, grid_n=2 ** 14, lambda_cap=160.0)
    lone = hill.hill_spectrum(config, hill.NoisePath.sample(spawn_rng(3, "worker-lone"),
                                                            config.grid_n, config.h))
    return (hill._shares_here(), ai_values(xs), [s.eigenvalues for s in pair],
            [s.eigenvalues for s in spectra] + [lone.eigenvalues])

executor, workers = hill._worker_pool()
futures = [executor.submit(kernels, None) for _ in range(workers)]
results = [future.result(timeout=60) for future in futures]
here = kernels(None)
print(*[result[0] for result in results], hill._shares_here(),
      all(np.array_equal(result[1], here[1])
          and all(np.array_equal(a, b) for k in (2, 3) for a, b in zip(result[k], here[k]))
          for result in results))
"""
    done = _python(code)
    workers = hill._usable_cpus()
    assert done.stdout.split() == ["False"] * workers + ["True", "True"], done.stderr


@pytest.mark.skipif(hill._usable_cpus() < 2, reason="one usable CPU solves in place")
def test_a_lone_large_solve_shares_its_bisection_on_the_pool(monkeypatch):
    shared = []
    pool_map = hill._pool_map

    def spy(fn, tasks):
        shared.append((fn.__name__, [int((nab[1] - nab[0]).sum()) for _, _, nab, _ in tasks]))
        return pool_map(fn, tasks)

    monkeypatch.setattr(hill, "_pool_map", spy)
    cfg = SaoConfig(beta=2.0, domain_l=15.0, grid_n=2 ** 14, lambda_cap=9.0)
    spectrum = sao_spectrum(cfg, NoisePath.sample(spawn_rng(76, "lone"), cfg.grid_n, cfg.h))
    assert spectrum.eigenvalues.size >= 2
    [(name, counts)] = shared
    # one task per open interval, the most eigenvalues first, none with more than half
    assert name == "_finish" and len(counts) >= 2 and sum(counts) == spectrum.eigenvalues.size
    assert counts == sorted(counts, reverse=True) and 2 * counts[0] <= sum(counts) + 1


def _submitted(monkeypatch):
    """The functions submitted to the pool's executor from now on."""
    executor, _ = hill._worker_pool()
    submit, calls = executor.submit, []

    def counted(fn, *args):
        calls.append(fn)
        return submit(fn, *args)

    monkeypatch.setattr(executor, "submit", counted)
    return calls


def _thread(task):
    return task, threading.current_thread()


class TestPoolMap:
    """hill._pool_map sends two or more tasks to the pool, where it may, and runs the rest here."""

    def test_a_lone_task_runs_in_the_caller(self, monkeypatch):
        submitted = _submitted(monkeypatch)
        assert list(hill._pool_map(_thread, [7])) == [(7, threading.current_thread())]
        assert submitted == []

    @pytest.mark.skipif(hill._usable_cpus() < 2, reason="one usable CPU solves in place")
    def test_two_tasks_run_on_the_pool(self, monkeypatch):
        submitted = _submitted(monkeypatch)
        ran = list(hill._pool_map(_thread, [1, 2]))
        assert [task for task, _ in ran] == [1, 2] and submitted == [_thread, _thread]
        assert all(thread.name.startswith("airylab") for _, thread in ran)

    def test_one_usable_cpu_runs_in_place(self, monkeypatch):
        submitted = _submitted(monkeypatch)
        monkeypatch.setattr(hill, "_usable_cpus", lambda: 1)
        here = threading.current_thread()
        assert list(hill._pool_map(_thread, range(5))) == [(k, here) for k in range(5)]
        assert submitted == []
        drawn = []
        ran = hill._pool_map(_thread, (drawn.append(k) or k for k in range(5)))
        assert next(ran) == (0, here) and drawn == [0]  # no task is read ahead

    def test_a_pool_thread_runs_in_place(self, monkeypatch):
        executor, _ = hill._worker_pool()
        submit = executor.submit
        submitted = _submitted(monkeypatch)
        ran, thread = submit(lambda: (list(hill._pool_map(_thread, range(5))),
                                      threading.current_thread())).result(timeout=60)
        assert ran == [(k, thread) for k in range(5)] and thread.name.startswith("airylab")
        assert submitted == []

    def test_src_submits_to_the_pool_only_in_pool_map(self):
        sources = "".join(path.read_text() for path in sorted((SRC / "airylab").glob("*.py")))
        assert sources.count("submit(") == inspect.getsource(hill._pool_map).count("submit(") == 1


@pytest.mark.skipif(hill._usable_cpus() < 2, reason="one usable CPU solves in place")
def test_the_interpreter_exits_promptly_after_using_the_pool():
    code = """
import threading, time
from airylab.fredholm import sample_sao2_spectra
from airylab.sao import SaoConfig

sample_sao2_spectra(SaoConfig(beta=2.0, domain_l=20.0, grid_n=2 ** 12, lambda_cap=5.0), 12, 1)
print(sum(t.name.startswith("airylab") for t in threading.enumerate()), time.time())
"""
    done = _python(code)
    exited = time.time()
    assert done.returncode == 0, done.stderr
    threads, last_line = done.stdout.split()
    assert int(threads) == hill._usable_cpus()
    assert exited - float(last_line) < 5.0


def test_import_loads_neither_the_process_pool_nor_scipy_special():
    code = """
import sys
import airylab
print(*sorted({"multiprocessing", "concurrent.futures", "scipy.linalg", "scipy.special"}
              & set(sys.modules)))
"""
    done = _python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


# digests of every command of scripts/output_digests.py but `report --fast`
# (about 90 s), from the table in CHANGES.md
RECORDED = {
    "rate-fn --z-min -2 --z-max 0 --steps 21 --beta 2": "ecf057e335847e98",
    "variational --z -1 --beta 2": "36323814f2e12c45",
    "hill --j 1 --xi 1 --beta 2 --grid-n 4096 --seed 7": "69b273806e6bd11a",
    "hill --j 1 --xi 1 --beta 2 --grid-n 512 --boundary periodic --seed 7": "b070c001611d8c4e",
    "hill --j 1 --lambda 30 --seed 7": "d965b904e30fe17f",
    "hill --j 1 --xi 1 --grid-n 16 --lambda 10000 --seed 7": "2b24696ce6f8c5aa",
    "hill --grid-n 8 (exit 1)": "cf205dbb8cea8489",
    "sao spectrum --domain-l 20 --grid-n 8192 --lambda-cap 5 --seed 7": "94b007caf42fb9ea",
    "sao count --grid-n 1024 --domain-l 12 --lambda-cap 5 --lambda 3 --seed 7": "dd1bc666ff837966",
    "sao sandwich --z -1 --t 1 --n-levels 2 --samples 400 --seed 7": "d07713d5cbbfe5f5",
    "sao ldp --z -1 --t 16 --samples 400 --importance --seed 7": "c69f5b74c0fbf58c",
    "sao ldp --z -1 --t 4 --samples 400 --seed 7": "7753dc7e0317c2bb",
    "sao ldp --z -1 --t 16 --samples 200 --seed 7": "d007bbd66894af64",
    "fredholm --s 1 --t 1": "86d86bdf291c585d",
    "fredholm compare --s 1 --t 1 --samples 100 --sao-grid-n 4096 --seed 7": "3345054969476ed3",
    "wkb --trials 40 --grid-n 128 --seed 7": "90d7aa37624949a3",
    "scripts/ldp_trend.py --t 2 4 --samples 200": "6e042d45ac26f191",
    "scripts/fredholm_sweep.py --s 0.5 1 2 --samples 100 --grid-n 2048": "3c3aeac05ab3f51b",
    "scripts/fredholm_sweep.py --s 0.25 4 64 --t 2 --samples 50 --grid-n 2048": "8512dfd067536006",
    "scripts/sandwich_scan.py --n 1 2 --samples 300": "45a1b6f06d5239fc",
    "report --skip mc --fast, runtime_s stripped": "36ba57c1e90d71f4",
}


def test_every_reference_command_is_recorded():
    digests = _digests()
    assert set(RECORDED) == {label for label, _ in digests.COMMANDS} - {digests.REPORT_FAST}


# the name predates the deterministic commands in RECORDED; it stays so that
# the earlier test ids stay valid
@pytest.mark.parametrize("label", sorted(RECORDED))
def test_monte_carlo_outputs_keep_their_digests(label):
    digests = _digests()
    assert digests.label_digest(label, dict(digests.COMMANDS)[label]) == RECORDED[label]


def _digest_on_one_cpu(label):
    return _digests().label_digest(label, one_cpu=True)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_fredholm_compare_on_one_cpu_prints_the_same_bytes():
    label = "fredholm compare --s 1 --t 1 --samples 100 --sao-grid-n 4096 --seed 7"
    assert _digest_on_one_cpu(label) == RECORDED[label]


# Airy tables, WKB pairs and lone Dirichlet solves above a size go to
# hill._pool_map (the two hill and sao spectra here share their bisection),
# smaller ones never; on one CPU _pool_map runs every call in place.  Tier 1
# runs these four on one CPU; `scripts/output_digests.py --one-cpu` runs
# every reference command that way.
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.parametrize("label", [
    "hill --j 1 --xi 1 --beta 2 --grid-n 4096 --seed 7",
    "sao spectrum --domain-l 20 --grid-n 8192 --lambda-cap 5 --seed 7",
    "fredholm --s 1 --t 1",
    "wkb --trials 40 --grid-n 128 --seed 7",
])
def test_shared_kernels_on_one_cpu_print_the_same_bytes(label):
    assert _digest_on_one_cpu(label) == RECORDED[label]
