"""Hill operators: exact discrete spectra, Riccati counting, linear statistics."""
import collections
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cython_lapack, eigvalsh_tridiagonal

from airylab import hill
from airylab.errors import (ConfigurationError, DomainError, IncompleteSpectrumError,
                            ResolutionError)
from airylab.hill import (Boundary, HillConfig, NoisePath, SpectrumSample,
                          counting_integral, dirichlet_spectra, hill_spectrum, linear_statistic,
                          riccati_cell_counts, riccati_count_hill, tridiagonal_eigenvalues)
from airylab.mc import spawn_rng
from airylab.sao import SaoConfig, ldp_estimate


def dirichlet_fd_eigenvalues(grid_n, xi, shift=0.0):
    h = xi / grid_n
    k = np.arange(1, grid_n)
    return np.sort(2.0 / h ** 2 * (1.0 - np.cos(math.pi * k * h / xi))) + shift


def periodic_fd_eigenvalues(grid_n, xi, shift=0.0):
    h = xi / grid_n
    k = np.arange(grid_n)
    return np.sort(2.0 / h ** 2 * (1.0 - np.cos(2.0 * math.pi * k * h / xi))) + shift


class TestSpectrumZeroNoise:
    def test_dirichlet_matches_exact_discrete(self):
        cfg = HillConfig(j=0, xi=1.0, beta=2.0, grid_n=128, lambda_cap=1e6)
        spec = hill_spectrum(cfg, NoisePath.zeros(128, 1.0 / 128))
        exact = dirichlet_fd_eigenvalues(128, 1.0)
        np.testing.assert_allclose(spec.eigenvalues, exact, atol=1e-10 * exact.max())

    def test_periodic_matches_exact_discrete(self):
        cfg = HillConfig(j=0, xi=1.0, beta=2.0, boundary=Boundary.PERIODIC,
                         grid_n=128, lambda_cap=1e6)
        spec = hill_spectrum(cfg, NoisePath.zeros(128, 1.0 / 128))
        exact = periodic_fd_eigenvalues(128, 1.0)
        np.testing.assert_allclose(spec.eigenvalues, exact, atol=1e-10 * exact.max())

    def test_periodic_double_multiplicity(self):
        cfg = HillConfig(j=0, xi=1.0, beta=2.0, boundary=Boundary.PERIODIC,
                         grid_n=64, lambda_cap=1e6)
        ev = hill_spectrum(cfg, NoisePath.zeros(64, 1.0 / 64)).eigenvalues
        # modes k >= 1 pair up (k and N-k); check the first few pairs
        for pair in range(1, 6):
            lo, hi = ev[2 * pair - 1], ev[2 * pair]
            assert hi - lo <= 1e-9 * max(1.0, abs(hi))

    def test_level_shift_is_exact(self):
        base = HillConfig(j=0, xi=1.0, beta=2.0, grid_n=128, lambda_cap=1e6)
        lifted = HillConfig(j=3, xi=1.0, beta=2.0, grid_n=128, lambda_cap=1e6 + 3.0)
        path = NoisePath.zeros(128, 1.0 / 128)
        ev0 = hill_spectrum(base, path).eigenvalues
        ev3 = hill_spectrum(lifted, path).eigenvalues
        np.testing.assert_allclose(ev3, ev0 + 3.0, atol=1e-8)

    def test_cap_filters(self):
        cfg = HillConfig(j=0, xi=1.0, beta=2.0, grid_n=128, lambda_cap=500.0)
        spec = hill_spectrum(cfg, NoisePath.zeros(128, 1.0 / 128))
        exact = dirichlet_fd_eigenvalues(128, 1.0)
        assert spec.eigenvalues.size == int((exact <= 500.0).sum())

    def test_count_at_nan_is_a_domain_error(self):
        # NaN sorts after every eigenvalue, so searchsorted alone would count them all
        cfg = HillConfig(j=0, xi=1.0, beta=2.0, grid_n=128, lambda_cap=500.0)
        spec = hill_spectrum(cfg, NoisePath.zeros(128, 1.0 / 128))
        with pytest.raises(DomainError):
            spec.count_below(math.nan)
        with pytest.raises(DomainError):
            riccati_count_hill(math.nan, cfg, NoisePath.zeros(128, 1.0 / 128))

    @pytest.mark.parametrize("xi, grid_n", [(1e-300, 16), (1e300, 16), (math.inf, 16)])
    def test_cell_width_needs_finite_inverse_square(self, xi, grid_n):
        with pytest.raises(DomainError):
            HillConfig(j=0, xi=xi, beta=2.0, grid_n=grid_n)

    def test_mismatched_path_rejected(self):
        cfg = HillConfig(j=0, xi=1.0, beta=2.0, grid_n=128, lambda_cap=10.0)
        with pytest.raises(ConfigurationError):
            hill_spectrum(cfg, NoisePath.zeros(64, 1.0 / 64))
        with pytest.raises(ConfigurationError):
            hill_spectrum(cfg, NoisePath.zeros(128, 1.0 / 64))


class TestRiccatiCount:
    def test_below_spectrum_bottom(self):
        cfg = HillConfig(j=2, xi=1.0, beta=2.0, grid_n=512, lambda_cap=10.0)
        assert riccati_count_hill(1.5, cfg, NoisePath.zeros(512, 1.0 / 512)) == 0

    def test_noiseless_cotangent_counts(self):
        xi = 1.0
        for m in [0, 1, 2, 5, 9]:
            lam = (math.pi / xi) ** 2 * (m + 0.5) ** 2
            cfg = HillConfig(j=0, xi=xi, beta=2.0, grid_n=4096, lambda_cap=lam + 1)
            got = riccati_count_hill(lam, cfg, NoisePath.zeros(4096, xi / 4096))
            assert got == m

    def test_agrees_with_matrix_on_random_paths(self):
        rng = spawn_rng(11, "hill-riccati")
        agree = 0
        draws = 60
        for _ in range(draws):
            cfg = HillConfig(j=int(rng.integers(0, 3)), xi=1.0,
                             beta=float(rng.choice([1.0, 2.0, 4.0])),
                             grid_n=2 ** 12, lambda_cap=200.0)
            path = NoisePath.sample(rng, cfg.grid_n, cfg.h)
            lam = float(rng.uniform(0.0, 180.0))
            rc = riccati_count_hill(lam, cfg, path)
            mc = hill_spectrum(cfg, path).count_below(lam)
            agree += abs(rc - mc) <= 1
        assert agree >= math.ceil(0.95 * draws)

    def test_periodic_rejected(self):
        cfg = HillConfig(j=0, xi=1.0, beta=2.0, boundary=Boundary.PERIODIC,
                         grid_n=64, lambda_cap=10.0)
        with pytest.raises(DomainError):
            riccati_count_hill(1.0, cfg, NoisePath.zeros(64, 1.0 / 64))

    def test_count_exceeds_matrix_order_when_lambda_h2_is_large(self):
        # the flow counts the continuum operator with cell-constant rates:
        # at lambda h^2 ~ 39 it finds more eigenvalues than the matrix has rows
        cfg = HillConfig(j=1, xi=1.0, beta=2.0, grid_n=16)
        count = riccati_count_hill(1e4, cfg, NoisePath.zeros(16, 1.0 / 16))
        assert count == 31 > cfg.grid_n - 1

    def test_double_well_pair_moves_across_lambda_together(self):
        # two equal wells give a near-degenerate pair that the matrix puts
        # below the continuum pair, so the counts differ by 2 at max|q| h^2 = 0.002
        n = 1000
        h = 1.0 / n
        mid = (np.arange(n) + 0.5) * h
        q = np.where(((mid > 0.2) & (mid < 0.3)) | ((mid > 0.7) & (mid < 0.8)), -2000.0, 0.0)
        ev = tridiagonal_eigenvalues(2.0 / h ** 2 + q[1:], np.full(n - 2, -1.0 / h ** 2), 0.0)
        lam = ev[1] + 5e-4
        sturm = int(np.searchsorted(ev, lam, side="right"))
        assert ev[1] - ev[0] < 1e-4
        assert (sturm, int(riccati_cell_counts(q - lam, h).sum())) == (2, 0)

    def test_matrix_count_monotone_in_lambda(self):
        rng = spawn_rng(12, "monotone")
        cfg = HillConfig(j=0, xi=1.0, beta=2.0, grid_n=1024, lambda_cap=400.0)
        path = NoisePath.sample(rng, cfg.grid_n, cfg.h)
        spec = hill_spectrum(cfg, path)
        counts = [spec.count_below(lam) for lam in np.linspace(-5.0, 390.0, 50)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


_finite = st.floats(allow_nan=False, allow_infinity=False)
_q_arrays = st.one_of(
    st.lists(_finite, min_size=1, max_size=40),
    st.tuples(_finite, st.integers(1, 40)).map(lambda pair: [pair[0]] * pair[1]))


class TestRiccatiTotality:
    def test_saturated_cells_in_a_row(self):
        # k h >= 20 on consecutive cells with equal k puts atanh at its pole 1
        cfg = HillConfig(j=1, xi=1.0, beta=2.0, grid_n=16)
        assert riccati_count_hill(-1e4, cfg, NoisePath.zeros(16, 1.0 / 16)) == 0

    def test_count_beyond_int64_is_a_domain_error(self):
        with pytest.raises(DomainError):
            riccati_cell_counts(np.array([-1e300]), 1.0)

    @settings(max_examples=400, deadline=None)
    @given(_q_arrays, st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_total_on_finite_input(self, q, h):
        q = np.asarray(q, dtype=float)
        if q.min() >= 0.0:
            assert not riccati_cell_counts(q, h).any()
            return
        try:
            counts = riccati_cell_counts(q, h)
        except DomainError:
            return
        assert counts.dtype == np.int64
        assert np.all(counts >= 0)


class TestReferenceAssembly:
    """Spectra and rates equal, bit for bit, those of a hand-written assembly:
    2/h^2 + j xi + noise and j xi + noise, summed left to right, so a seed
    keeps its output bytes."""

    @pytest.mark.parametrize("grid_n, xi", [(16, 10.0), (64, 7.3)])
    def test_hill_bits(self, grid_n, xi):
        cfg = HillConfig(j=2, xi=xi, beta=2.0, grid_n=grid_n, lambda_cap=1e9)
        path = NoisePath.sample(spawn_rng(17, "reference-assembly", grid_n), grid_n, cfg.h)
        h = cfg.h
        noise = 2.0 / math.sqrt(cfg.beta) * path.increments / h
        diag = 2.0 / h ** 2 + cfg.j * cfg.xi + noise[1:]
        # the guard has teeth: grouping V with the noise moves some entries
        assert not np.array_equal(diag, 2.0 / h ** 2 + (cfg.j * cfg.xi + noise[1:]))
        off = np.full(grid_n - 2, -1.0 / h ** 2)
        assert np.array_equal(cfg.operator(path).dirichlet()[0], diag)
        assert np.array_equal(hill_spectrum(cfg, path).eigenvalues,
                              tridiagonal_eigenvalues(diag, off, cfg.lambda_cap))

        m = np.zeros((grid_n, grid_n))
        idx = np.arange(grid_n)
        m[idx, idx] = 2.0 / h ** 2 + cfg.j * cfg.xi + noise
        m[idx[:-1], idx[:-1] + 1] = -1.0 / h ** 2
        m[idx[:-1] + 1, idx[:-1]] = -1.0 / h ** 2
        m[0, grid_n - 1] = m[grid_n - 1, 0] = m[0, grid_n - 1] - 1.0 / h ** 2
        periodic = hill_spectrum(dataclasses.replace(cfg, boundary=Boundary.PERIODIC), path)
        assert np.array_equal(periodic.eigenvalues, np.linalg.eigvalsh(m))

        rates = cfg.j * cfg.xi + 2.0 / math.sqrt(cfg.beta) * path.increments / cfg.h
        assert np.array_equal(cfg.operator(path).riccati_rates(), rates)
        for lam in np.linspace(cfg.j * cfg.xi, 4.0 / h ** 2, 7):
            assert riccati_count_hill(lam, cfg, path) == int(
                riccati_cell_counts(rates - lam, h).sum())


def _scipy_stebz(diag, off, cap):
    """scipy's stebz wrapper on (lower, cap], lower as tridiagonal_eigenvalues chooses it."""
    lower = float(diag.min() - 2.0 * np.abs(off).max() - 1.0) if off.size else float(diag.min() - 1.0)
    return eigvalsh_tridiagonal(diag, off, select="v", select_range=(lower, cap),
                                check_finite=False, lapack_driver="stebz")


def _routes(monkeypatch):
    """Counter of the dstebz calls and of the bisections shared on the pool, on any thread.

    routes.eigenvalues lists, per shared bisection, the eigenvalues its tasks hold.
    """
    routes = collections.Counter()
    routes.eigenvalues = []
    stebz, pool_map = hill._stebz, hill._pool_map

    def counted_stebz(*args):
        routes["dstebz"] += 1
        return stebz(*args)

    def counted_map(fn, tasks):
        # a split bisection hands _pool_map one task per open interval, two or more
        if len(tasks) >= 2:
            routes[fn.__name__] += 1
            routes.eigenvalues.append(sum(int((nab[1] - nab[0]).sum()) for *_, nab, _ in tasks))
        return pool_map(fn, tasks)

    monkeypatch.setattr(hill, "_stebz", counted_stebz)
    monkeypatch.setattr(hill, "_pool_map", counted_map)
    return routes


def _matrices(config, seed, n):
    """(diag, off, cap) of n paths of config."""
    rng = spawn_rng(seed, "binding-lone", config.grid_n)
    return [(*config.operator(NoisePath.sample(rng, config.grid_n, config.h)).dirichlet(),
             config.lambda_cap) for _ in range(n)]


def _solved(monkeypatch, run):
    """(diag, off, cap) of every tridiagonal solve that run() makes, on any thread."""
    seen = []
    solve = hill.tridiagonal_eigenvalues

    def recording(diag, off, cap):
        seen.append((diag.copy(), off, cap))
        return solve(diag, off, cap)

    monkeypatch.setattr(hill, "tridiagonal_eigenvalues", recording)
    run()
    monkeypatch.setattr(hill, "tridiagonal_eigenvalues", solve)
    return seen


class TestLapackBinding:
    """tridiagonal_eigenvalues calls dstebz itself; scipy's wrapper is the oracle, bit for bit."""

    def _assert_same_bits(self, matrices, at_least):
        assert len(matrices) >= at_least
        found = 0
        for diag, off, cap in matrices:
            got = tridiagonal_eigenvalues(diag, off, cap)
            assert np.array_equal(got, _scipy_stebz(diag, off, cap))
            found += got.size
        return found

    def test_ldp_estimate_matrices(self, monkeypatch):
        # criterion 7's drifted SAO paths, 2^11 cells, caps t^{2/3}
        matrices = []
        for t in (4.0, 8.0, 16.0):
            matrices += _solved(monkeypatch, lambda: ldp_estimate(
                -1.0, t, 2.0, n_samples=100, seed=91, use_importance=True))
        assert {cap for _, _, cap in matrices} == {t ** (2.0 / 3.0) for t in (4.0, 8.0, 16.0)}
        assert self._assert_same_bits(matrices, 300) > 0

    @pytest.mark.parametrize("domain_l, cap", [(40.0, 36.0), (15.0, 9.0)])
    def test_sao_matrices_at_two_to_the_fourteen(self, monkeypatch, domain_l, cap):
        cfg = SaoConfig(beta=2.0, domain_l=domain_l, grid_n=2 ** 14, lambda_cap=cap)
        rng = spawn_rng(92, "binding-sao", int(cap))
        paths = [NoisePath.sample(rng, cfg.grid_n, cfg.h) for _ in range(8)]
        matrices = _solved(monkeypatch, lambda: list(dirichlet_spectra(cfg, paths)))
        assert self._assert_same_bits(matrices, 8) > 8

    def test_hill_matrices_over_beta_and_level(self, monkeypatch):
        rng = spawn_rng(93, "binding-hill")
        matrices = []
        for beta in (0.5, 1.0, 2.0, 4.0):
            for j in range(4):
                cfg = HillConfig(j=j, xi=1.0, beta=beta, grid_n=2 ** 14, lambda_cap=160.0)
                paths = [NoisePath.sample(rng, cfg.grid_n, cfg.h) for _ in range(3)]
                matrices += _solved(monkeypatch, lambda: list(dirichlet_spectra(cfg, paths)))
        assert self._assert_same_bits(matrices, 48) > 48

    def test_matrices_that_split(self):
        # one zero off-diagonal: dstebz bisects two blocks and merges them in order
        rng = np.random.default_rng(94)
        matrices = []
        for _ in range(120):
            n = int(rng.integers(2, 200))
            diag = rng.normal(0.0, 3.0, n)
            off = rng.normal(0.0, 1.0, n - 1)
            off[rng.integers(0, n - 1)] = 0.0
            matrices.append((diag, off, float(rng.uniform(-3.0, 3.0))))
        assert self._assert_same_bits(matrices, 120) > 120

    def test_ranges_that_hold_no_eigenvalue(self):
        rng = spawn_rng(95, "binding-empty")
        cfg = SaoConfig(beta=2.0, domain_l=20.0, grid_n=2 ** 11, lambda_cap=5.0)
        matrices = []
        for _ in range(20):
            diag, off = cfg.operator(NoisePath.sample(rng, cfg.grid_n, cfg.h)).dirichlet()
            lowest = tridiagonal_eigenvalues(diag, off, cfg.lambda_cap)[0]
            matrices.append((diag, off, lowest - 1e-3))
        assert self._assert_same_bits(matrices, 20) == 0

    def test_concurrent_solves_keep_their_bits(self):
        # more threads than CPUs, switching often: each solve owns its workspace
        rng = spawn_rng(97, "binding-threads")
        cfg = SaoConfig(beta=2.0, domain_l=20.0, grid_n=2 ** 11, lambda_cap=5.0)
        matrices = [cfg.operator(NoisePath.sample(rng, cfg.grid_n, cfg.h)).dirichlet()
                    for _ in range(64)]
        serial = [tridiagonal_eigenvalues(diag, off, cfg.lambda_cap) for diag, off in matrices]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4 * hill._usable_cpus()) as executor:
                threaded = list(executor.map(
                    lambda m: tridiagonal_eigenvalues(*m, cfg.lambda_cap), matrices, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(threaded, serial))

    def test_failed_bisection_is_a_resolution_error(self):
        # 1/h^2 = 2.6e281 is finite, but dstebz cannot bisect down to a cap of 200
        cfg = HillConfig(j=0, xi=1e-140, beta=2.0, grid_n=16, lambda_cap=200.0)
        path = NoisePath.sample(spawn_rng(96, "binding-info"), cfg.grid_n, cfg.h)
        with pytest.raises(ResolutionError, match="INFO = 1"):
            hill_spectrum(cfg, path)

    def test_off_diagonal_of_the_wrong_length_is_rejected_before_lapack(self):
        with pytest.raises(ConfigurationError, match="off-diagonal"):
            tridiagonal_eigenvalues(np.full(8, 2.0), np.full(8, -1.0), 1.0)

    @pytest.mark.parametrize("name", ["dstebz", "dlaebz"])
    def test_a_capsule_of_another_signature_fails_at_binding(self, monkeypatch, name):
        monkeypatch.setitem(cython_lapack.__pyx_capi__, name,
                            cython_lapack.__pyx_capi__["dsterf"])
        with pytest.raises(RuntimeError, match="signature"):
            hill._lapack.__wrapped__(name)

    # A lone solve of at least _SHARE_MIN_ROWS rows outside the pool shares
    # dstebz's bisection between two pool threads when it holds 2 or more
    # eigenvalues; _shares_here is forced true so that one usable CPU takes
    # that path too.
    def _assert_shared_bits(self, monkeypatch, matrices):
        monkeypatch.setattr(hill, "_shares_here", lambda: True)
        routes = _routes(monkeypatch)
        found = []
        for diag, off, cap in matrices:
            expected = _scipy_stebz(diag, off, cap)
            assert np.array_equal(tridiagonal_eigenvalues(diag, off, cap), expected)
            found.append(expected.size)
        shared = sum(size >= 2 for size in found)
        assert shared > len(matrices) // 2
        assert routes == collections.Counter(_finish=shared, dstebz=len(matrices) - shared)
        assert routes.eigenvalues == [size for size in found if size >= 2]
        return sum(found)

    @pytest.mark.parametrize("config", [
        # kernel_sweep's SAO paths and fredholm_identity's
        SaoConfig(beta=2.0, domain_l=15.0, grid_n=2 ** 14, lambda_cap=9.0),
        SaoConfig(beta=2.0, domain_l=40.0, grid_n=2 ** 14, lambda_cap=36.0),
        # hill --grid-n 4096 and sao spectrum --grid-n 8192
        HillConfig(j=1, xi=1.0, beta=2.0, grid_n=4096, lambda_cap=200.0),
        SaoConfig(beta=2.0, domain_l=20.0, grid_n=8192, lambda_cap=5.0),
    ], ids=["sao-cap-9", "sao-cap-36", "hill-4096", "sao-8192"])
    def test_lone_solves_shared_on_the_pool(self, monkeypatch, config):
        assert self._assert_shared_bits(monkeypatch, _matrices(config, 98, 6)) > 6

    def test_lone_hill_solves_shared_on_the_pool_over_beta_and_level(self, monkeypatch):
        # kernel_sweep's Hill configs
        matrices = []
        for beta in (0.5, 1.0, 2.0, 4.0):
            for j in range(4):
                matrices += _matrices(HillConfig(j=j, xi=1.0, beta=beta, grid_n=2 ** 14,
                                                 lambda_cap=160.0), 99 + j, 2)
        assert self._assert_shared_bits(monkeypatch, matrices) > 32

    @pytest.mark.parametrize("config", [
        SaoConfig(beta=2.0, domain_l=15.0, grid_n=2 ** 14, lambda_cap=9.0),
        SaoConfig(beta=2.0, domain_l=40.0, grid_n=2 ** 14, lambda_cap=36.0),
        HillConfig(j=1, xi=1.0, beta=2.0, grid_n=2 ** 14, lambda_cap=160.0),
        None,
    ], ids=["sao-cap-9", "sao-cap-36", "hill-cap-160", "two-eigenvalues"])
    def test_lone_solve_bits_hold_for_any_task_order(self, monkeypatch, config):
        # each open interval is bisected on its own, so the order in which the
        # pool takes the tasks cannot move a bit
        monkeypatch.setattr(hill, "_shares_here", lambda: True)
        pool_map, rng, sizes = hill._pool_map, np.random.default_rng(102), []
        order = None

        def reordered(fn, tasks):
            sizes.append(len(tasks))
            return pool_map(fn, [tasks[k] for k in order(len(tasks))])

        monkeypatch.setattr(hill, "_pool_map", reordered)
        if config is None:
            sao = SaoConfig(beta=2.0, domain_l=15.0, grid_n=2 ** 14, lambda_cap=9.0)
            diag, off, cap = _matrices(sao, 102, 1)[0]
            ev = _scipy_stebz(diag, off, cap)
            matrices = [(diag, off, (ev[1] + ev[2]) / 2.0)]
        else:
            matrices = _matrices(config, 102, 2)
        orders = [range, lambda n: range(n - 1, -1, -1), rng.permutation, rng.permutation]
        for diag, off, cap in matrices:
            expected = _scipy_stebz(diag, off, cap)
            assert expected.size >= 2
            for order in orders:
                assert np.array_equal(tridiagonal_eigenvalues(diag, off, cap), expected)
        assert len(sizes) == len(orders) * len(matrices) and min(sizes) >= 2
        assert config is not None or sizes == [2] * len(orders)

    def test_halving_may_stop_at_intervals_two_threads_share_two_to_one(self, monkeypatch):
        # two eigenvalues near each of 0, 0.6 and 1: two halvings leave open
        # intervals of 2, 2 and 2, none with more than half of 6, so the
        # halving stops there though two threads then bisect 4 against 2
        diag, off, cap = np.array([0.0, 0.0, 0.6, 0.6, 1.0, 1.0]), np.full(5, 1e-3), 10.0
        pool_map, counts = hill._pool_map, []

        def spy(fn, tasks):
            counts.append([int(nab[1, 0] - nab[0, 0]) for _, _, nab, _ in tasks])
            return pool_map(fn, tasks)

        monkeypatch.setattr(hill, "_pool_map", spy)
        lower = float(diag.min() - 2.0 * np.abs(off).max() - 1.0)
        w, info = hill._shared_stebz(diag, off, lower, cap)
        assert counts == [[2, 2, 2]] and info == 0
        assert np.array_equal(w, _scipy_stebz(diag, off, cap))

    def test_solves_that_keep_one_dstebz_call(self, monkeypatch):
        monkeypatch.setattr(hill, "_shares_here", lambda: True)
        routes = _routes(monkeypatch)
        rows = hill._SHARE_MIN_ROWS
        below = SaoConfig(beta=2.0, domain_l=20.0, grid_n=rows, lambda_cap=5.0)
        at = dataclasses.replace(below, grid_n=rows + 1)
        diag, off, cap = _matrices(at, 100, 1)[0]
        ev = tridiagonal_eigenvalues(diag, off, cap)
        assert diag.size == rows and ev.size >= 2 and routes == {"_finish": 1}
        routes.clear()
        split = diag.copy(), off.copy()
        split[1][rows // 3] = 0.0
        matrices = [*_matrices(below, 100, 4),
                    (diag, off, (ev[0] + ev[1]) / 2.0),  # one eigenvalue
                    (diag, off, ev[0] - 1.0),  # none
                    (*split, cap)]
        assert self._assert_same_bits(matrices, 7) > 0
        assert routes == {"dstebz": 7}

    def test_a_solve_on_a_pool_thread_keeps_one_dstebz_call(self, monkeypatch):
        routes = _routes(monkeypatch)
        matrices = _matrices(SaoConfig(beta=2.0, domain_l=15.0, grid_n=2 ** 14,
                                       lambda_cap=9.0), 101, 2)
        executor, _ = hill._worker_pool()
        solved = [executor.submit(tridiagonal_eigenvalues, *m).result(timeout=60)
                  for m in matrices]
        assert routes == {"dstebz": 2}
        for ev, (diag, off, cap) in zip(solved, matrices):
            assert ev.size > 1 and np.array_equal(ev, _scipy_stebz(diag, off, cap))


class TestInterlacing:
    def test_periodic_below_next_dirichlet(self):
        # periodic matrix contains the Dirichlet one as a principal block,
        # so Cauchy interlacing gives P_k <= D_k <= P_{k+1}
        rng = spawn_rng(13, "interlace")
        for _ in range(100):
            n = 96
            path = NoisePath.sample(rng, n, 1.0 / n)
            dirichlet = hill_spectrum(
                HillConfig(j=0, xi=1.0, beta=2.0, grid_n=n, lambda_cap=1e8), path)
            periodic = hill_spectrum(
                HillConfig(j=0, xi=1.0, beta=2.0, boundary=Boundary.PERIODIC,
                           grid_n=n, lambda_cap=1e8), path)
            p = periodic.eigenvalues
            d = dirichlet.eigenvalues
            k = min(p.size - 1, d.size - 1)
            assert np.all(p[:k] <= d[1:k + 1] + 1e-7)


class TestLinearStatistic:
    def _spec(self, eigenvalues, cap):
        return SpectrumSample(eigenvalues=np.asarray(eigenvalues, dtype=float), cap=cap)

    def test_empty_below_threshold(self):
        spec = self._spec([5.0, 7.0], cap=10.0)
        assert linear_statistic(spec, -1.0, 1.0) == 0.0

    def test_boundary_eigenvalue_contributes_zero(self):
        t, z = 4.0, -1.0
        lam = -z * t ** (2.0 / 3.0)
        spec = self._spec([lam], cap=lam + 1.0)
        assert linear_statistic(spec, z, t) == 0.0

    def test_incomplete_spectrum_rejected(self):
        spec = self._spec([0.5], cap=1.0)
        with pytest.raises(IncompleteSpectrumError):
            linear_statistic(spec, -2.0, 1.0)

    def test_nonpositive_and_zero_iff_no_eigenvalue_below(self):
        rng = spawn_rng(14, "nonpos")
        for _ in range(200):
            ev = np.sort(rng.uniform(-4.0, 8.0, rng.integers(1, 20)))
            t = float(rng.uniform(0.5, 5.0))
            z = float(rng.uniform(-2.0, -0.1))
            cap = max(float(ev[-1]), -z * t ** (2.0 / 3.0)) + 1.0
            spec = self._spec(ev, cap)
            val = linear_statistic(spec, z, t)
            assert val <= 0.0
            below = (ev < -z * t ** (2.0 / 3.0)).any()
            assert (val < 0.0) == bool(below)

    def test_dual_representation_random_spectra(self):
        rng = spawn_rng(15, "dual")
        for _ in range(100):
            ev = np.sort(rng.uniform(-5.0, 10.0, rng.integers(2, 40)))
            t = float(rng.uniform(0.5, 8.0))
            z = float(rng.uniform(-3.0, -0.1))
            cap = max(float(ev[-1]), -z * t ** (2.0 / 3.0)) + 1.0
            spec = self._spec(ev, cap)
            direct = linear_statistic(spec, z, t)
            dual = counting_integral(spec, z, t)
            assert dual == pytest.approx(direct, rel=1e-6, abs=1e-12)


class TestNoisePath:
    def test_increment_variance(self):
        rng = spawn_rng(16, "variance")
        n = 10 ** 4
        path = NoisePath.sample(rng, n, 0.01)
        scaled = path.increments / math.sqrt(0.01)
        # empirical variance within 5 sigma of 1 (var of sample var ~ 2/n)
        assert abs(scaled.var() - 1.0) <= 5.0 * math.sqrt(2.0 / n)

    def test_zero_step_rejected(self):
        with pytest.raises(ConfigurationError):
            NoisePath(step=0.0, increments=np.zeros(4), seed=0)
