"""Min-partial-sum identity, periodic pair spectra, WKB inequality."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airylab.errors import DomainError
from airylab.mc import spawn_rng
from airylab.wkb import (PotentialProfile, min_partial_sum, periodic_hill_pair,
                         periodic_matrices, random_profile, wkb_compare)


def linear_profile(c: float, xi: float = 1.0, grid_n: int = 64) -> PotentialProfile:
    grid = np.linspace(0.0, xi, grid_n + 1)
    return PotentialProfile(xi=xi, samples=c * grid, grid_n=grid_n)


def eigensums(prof: PotentialProfile, n: int) -> tuple[float, float]:
    """Sums of the n smallest eigenvalues of H and of H~."""
    rough, flat = periodic_hill_pair(prof)
    return float(rough.eigenvalues[:n].sum()), float(flat.eigenvalues[:n].sum())


class TestMinPartialSum:
    def test_bruteforce_example(self):
        # partial sums over N = 0..3: 0, -2, -3, 0
        assert min_partial_sum([-2.0, -1.0, 3.0], 0.0) == -3.0

    def test_all_nonnegative_gives_zero(self):
        assert min_partial_sum([1.0, 2.0, 3.0], 0.5) == 0.0
        assert min_partial_sum([], 1.0) == 0.0

    def test_unsorted_rejected(self):
        with pytest.raises(DomainError):
            min_partial_sum([2.0, 1.0], 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-50, max_value=50), max_size=30),
           st.floats(min_value=-50, max_value=50))
    def test_equals_negative_part_sum(self, values, r):
        a = np.sort(np.asarray(values, dtype=float))
        direct = -float(np.maximum(-(a + r), 0.0).sum())
        assert min_partial_sum(a, r) == pytest.approx(direct, rel=1e-12, abs=1e-9)

    def test_negative_part_sum_thousand_random_lists(self):
        rng = spawn_rng(70, "partial-sums")
        for _ in range(1000):
            a = np.sort(rng.uniform(-50.0, 50.0, rng.integers(0, 25)))
            r = float(rng.uniform(-50.0, 50.0))
            direct = -float(np.maximum(-(a + r), 0.0).sum())
            assert min_partial_sum(a, r) == pytest.approx(direct, rel=1e-12, abs=1e-9)


class TestPeriodicPair:
    def test_constant_profile_operators_coincide(self):
        prof = linear_profile(0.0)
        rough, flat = periodic_hill_pair(prof)
        np.testing.assert_allclose(rough.eigenvalues, flat.eigenvalues, atol=1e-9)

    def test_linear_profile_operators_coincide(self):
        prof = linear_profile(2.7)
        rough, flat = periodic_hill_pair(prof)
        np.testing.assert_allclose(rough.eigenvalues, flat.eigenvalues,
                                   atol=1e-9 * (1 + np.abs(flat.eigenvalues).max()))

    def test_flat_operator_is_shifted_laplacian(self):
        prof = linear_profile(3.0, grid_n=64)
        _, flat = periodic_hill_pair(prof)
        h = prof.h
        lap = np.sort(2.0 / h ** 2 * (1.0 - np.cos(2.0 * math.pi * np.arange(64) / 64)))
        np.testing.assert_allclose(flat.eigenvalues, lap + 3.0, atol=1e-8)

    def test_trace_identity_exact(self):
        rng = spawn_rng(72, "trace")
        for _ in range(10):
            prof = random_profile(rng, grid_n=64)
            rough, flat = periodic_matrices(prof)
            assert np.trace(rough) == pytest.approx(np.trace(flat), rel=1e-13)


class TestReferenceAssembly:
    def test_pair_bits(self):
        # the dense periodic matrices written out by hand
        prof = random_profile(spawn_rng(80, "reference-assembly"), grid_n=64)
        h = prof.h
        n = prof.grid_n
        idx = np.arange(n)

        def periodic(diag_potential):
            m = np.zeros((n, n))
            m[idx, idx] = 2.0 / h ** 2 + diag_potential
            m[idx[:-1], idx[:-1] + 1] = -1.0 / h ** 2
            m[idx[:-1] + 1, idx[:-1]] = -1.0 / h ** 2
            m[0, n - 1] -= 1.0 / h ** 2
            m[n - 1, 0] -= 1.0 / h ** 2
            return m

        rough, flat = periodic_hill_pair(prof)
        assert np.array_equal(rough.eigenvalues,
                              np.linalg.eigvalsh(periodic(np.diff(prof.samples) / h)))
        assert np.array_equal(flat.eigenvalues,
                              np.linalg.eigvalsh(periodic(np.full(n, prof.mean_slope))))


class TestWkbInequality:
    def test_linear_profile_equality(self):
        prof = linear_profile(-1.8)
        lhs, rhs, holds = wkb_compare(prof, -15.0)
        assert holds
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_r_below_both_spectra_full_sums(self):
        rng = spawn_rng(79, "fullsums")
        prof = random_profile(rng, grid_n=32)
        # discrete spectra live below 4/h^2 + max|f'| ~ 4x10^3; r below all
        r = -3.0e4
        lhs, rhs, holds = wkb_compare(prof, r)
        assert holds
        rough, _ = periodic_hill_pair(prof)
        full_rough = float((rough.eigenvalues + r).sum())
        assert lhs == pytest.approx(full_rough, rel=1e-12)
        # equal traces make the full partial sums coincide
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_randomized_no_violations(self):
        rng = spawn_rng(73, "wkb-random")
        for _ in range(60):
            prof = random_profile(rng, grid_n=256)
            r = float(rng.uniform(-20.0, 20.0))
            lhs, rhs, holds = wkb_compare(prof, r)
            assert holds

    def test_proof_chain_consistency(self):
        # lhs/rhs are exactly min_partial_sum applied to the two spectra
        rng = spawn_rng(74, "chain")
        prof = random_profile(rng, grid_n=128)
        r = 1.3
        lhs, rhs, _ = wkb_compare(prof, r)
        rough, flat = periodic_hill_pair(prof)
        assert lhs == min_partial_sum(rough.eigenvalues, r)
        assert rhs == min_partial_sum(flat.eigenvalues, r)


class TestEigensumCompare:
    def test_full_dimension_traces_equal(self):
        rng = spawn_rng(75, "fullsum")
        prof = random_profile(rng, grid_n=64)
        lo, hi = eigensums(prof, 64)
        assert lo == pytest.approx(hi, rel=1e-12)

    def test_inequality_all_orders(self):
        rng = spawn_rng(76, "orders")
        for _ in range(10):
            prof = random_profile(rng, grid_n=64)
            for n in range(0, 65, 8):
                lo, hi = eigensums(prof, n)
                assert lo <= hi + 1e-8 * (1.0 + abs(lo))


class TestProfileValidation:
    def test_sample_count_enforced(self):
        with pytest.raises(Exception):
            PotentialProfile(xi=1.0, samples=np.zeros(10), grid_n=32)

    def test_random_profile_shape(self):
        rng = spawn_rng(78, "profiles")
        prof = random_profile(rng, xi=2.0, grid_n=128)
        assert prof.samples.size == 129
        assert prof.xi == 2.0
        assert np.abs(prof.samples).max() <= 5.0
