"""Batch spectrum solves: the same bits as serial loops, for any CPU count."""
import importlib.util
import os
import subprocess
import sys
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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker error is staged in a forked pool")
def test_worker_error_reaches_the_caller_with_its_type():
    # the patched solver raises; forked workers inherit the patch
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
def test_pool_with_a_killed_worker_is_replaced():
    code = """
import os, signal
import numpy as np
import airylab.hill as hill
from concurrent.futures.process import BrokenProcessPool
from airylab.fredholm import sample_sao2_spectra
from airylab.sao import SaoConfig

cfg = SaoConfig(beta=2.0, domain_l=20.0, grid_n=2 ** 12, lambda_cap=5.0)
first = sample_sao2_spectra(cfg, 12, 1)
executor, _ = hill._worker_pool()
for pid in list(executor._processes):
    os.kill(pid, signal.SIGKILL)
try:
    sample_sao2_spectra(cfg, 12, 1)
except BrokenProcessPool:
    print("broken", hill._worker_pool.cache_info().currsize == 0)
again = sample_sao2_spectra(cfg, 12, 1)
print(all(np.array_equal(a.eigenvalues, b.eigenvalues) for a, b in zip(first, again)))
"""
    done = _python(code)
    assert done.stdout.split() == ["broken", "True", "True"], done.stderr


@pytest.mark.skipif(hill._usable_cpus() < 2, reason="one usable CPU solves in place")
def test_no_worker_outlives_the_interpreter():
    code = """
import airylab.hill as hill
from airylab.fredholm import sample_sao2_spectra
from airylab.sao import SaoConfig

sample_sao2_spectra(SaoConfig(beta=2.0, domain_l=20.0, grid_n=2 ** 12, lambda_cap=5.0), 12, 1)
executor, _ = hill._worker_pool()
print(*executor._processes)
"""
    done = _python(code)
    pids = [int(pid) for pid in done.stdout.split()]
    assert done.returncode == 0 and pids, done.stderr
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_import_loads_neither_the_process_pool_nor_scipy_special():
    code = """
import sys
import airylab
print(*sorted({"multiprocessing", "concurrent.futures.process", "scipy.special"}
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


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_fredholm_compare_on_one_cpu_prints_the_same_bytes():
    cpu = min(os.sched_getaffinity(0))
    code = (f"import os, sys; os.sched_setaffinity(0, {{{cpu}}}); "
            "from airylab.cli import main; sys.exit(main(sys.argv[1:]))")
    label = "fredholm compare --s 1 --t 1 --samples 100 --sao-grid-n 4096 --seed 7"
    digests = _digests()
    assert digests.digest(["-c", code, *label.split()]) == RECORDED[label]
