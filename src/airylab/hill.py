"""Finite Hill operators: -d^2/dy^2 + j*xi + (2/sqrt(beta)) W' on [0, xi].

White noise enters as cell-averaged Brownian increments dW_i/h on the
finite-difference diagonal; the Riccati counter consumes the same
increments as piecewise-constant rates, so the matrix count and the
Riccati count are coupled path by path (they agree while lambda h^2 is
small; see riccati_cell_counts).  CellOperator is the one assembly of that
operator: Hill levels (V = j xi), the stochastic Airy operator (V = x) and
the WKB comparison operators (V = 0, f the drift profile) all build on it.

Eigenvalues of the Dirichlet (tridiagonal) matrix come from LAPACK Sturm
bisection (stebz); the periodic matrix carries two corner entries and is
solved densely, which restricts periodic grids to <= 4096 cells.
dirichlet_spectra solves a batch of paths on every usable CPU.
"""
from __future__ import annotations

import atexit
import collections
import enum
import functools
import itertools
import math
import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import ConfigurationError, DomainError, IncompleteSpectrumError

_DENSE_MAX = 4096
# a batch travels to the workers in groups of about this many matrix rows,
# at most this many groups per worker in flight
_GROUP_ROWS = 2 ** 14
_GROUPS_PER_WORKER = 2
# below this many cells drawing and assembling a path costs about as much
# as solving it, and the pool is no faster than solving in place
_POOL_MIN_CELLS = 2048
_INF = math.inf
_BELOW_ONE = math.nextafter(1.0, 0.0)


class Boundary(enum.Enum):
    DIRICHLET = "dirichlet"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class NoisePath:
    """Discretized Brownian path: per-cell increments ~ Normal(0, step)."""

    step: float
    increments: np.ndarray
    seed: int

    def __post_init__(self):
        if not self.step > 0.0:
            raise ConfigurationError("NoisePath requires step > 0")
        object.__setattr__(self, "increments", np.asarray(self.increments, dtype=float))

    @classmethod
    def sample(cls, rng: np.random.Generator, grid_n: int, step: float,
               drift_rate: float | np.ndarray = 0.0) -> "NoisePath":
        """Draw the increments; drift_rate is one rate or one per cell."""
        inc = rng.standard_normal(grid_n) * math.sqrt(step) + drift_rate * step
        return cls(step=step, increments=inc, seed=-1)

    @classmethod
    def zeros(cls, grid_n: int, step: float) -> "NoisePath":
        return cls(step=step, increments=np.zeros(grid_n), seed=-1)

    @property
    def grid_n(self) -> int:
        return int(self.increments.size)


@dataclass(frozen=True)
class SpectrumSample:
    """Sorted eigenvalues <= cap from one realization of a random operator."""

    eigenvalues: np.ndarray
    cap: float

    def __post_init__(self):
        ev = np.sort(np.asarray(self.eigenvalues, dtype=float))
        object.__setattr__(self, "eigenvalues", ev)
        if not math.isfinite(self.cap):
            raise ConfigurationError("spectrum cap must be finite")
        if ev.size and ev[-1] > self.cap + 1e-9 * max(1.0, abs(self.cap)):
            raise ConfigurationError("eigenvalues exceed the stated cap")

    def shifted(self, offset: float) -> "SpectrumSample":
        return SpectrumSample(eigenvalues=self.eigenvalues + offset, cap=self.cap + offset)

    def count_below(self, lam: float) -> int:
        if lam > self.cap:
            raise IncompleteSpectrumError("count requested above the spectrum cap")
        return int(np.searchsorted(self.eigenvalues, lam, side="right"))


@dataclass(frozen=True)
class CellOperator:
    """-d^2/dx^2 + V(x) + f'(x) on the cells [i h, (i+1) h), i < grid_n.

    f' enters cell-averaged, slopes[i] = (f((i+1) h) - f(i h)) / h.  Matrix
    row i sits on node i h and carries slopes[i], so the Dirichlet matrix
    (nodes 1 .. grid_n-1) is the periodic one with node 0 removed and Cauchy
    interlacing holds verbatim.  The Riccati flow sees V at cell midpoints.
    Diagonals add 2/h^2 + V + f' and rates V + f' in that order; every
    output bit for a given seed depends on it.
    """

    h: float
    potential: Callable[[np.ndarray], np.ndarray | float]
    slopes: np.ndarray

    @classmethod
    def on_path(cls, potential, beta: float, length: float, grid_n: int,
                path: NoisePath) -> "CellOperator":
        """V + (2/sqrt(beta)) W' on [0, length], W the Brownian path."""
        if path.grid_n != grid_n:
            raise ConfigurationError(f"path has {path.grid_n} cells, config expects {grid_n}")
        if abs(path.step * grid_n - length) > 1e-12 * length:
            raise ConfigurationError("path.step * grid_n must equal the domain length")
        h = length / grid_n
        return cls(h, potential, 2.0 / math.sqrt(beta) * path.increments / h)

    def dirichlet(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, off-diagonal) with walls at nodes 0 and grid_n."""
        h, n = self.h, self.slopes.size
        diag = 2.0 / h ** 2 + self.potential(np.arange(1, n) * h) + self.slopes[1:]
        return diag, np.full(n - 2, -1.0 / h ** 2)

    def periodic(self) -> np.ndarray:
        """Dense matrix with node grid_n identified with node 0."""
        h, n = self.h, self.slopes.size
        if n > _DENSE_MAX:
            raise ConfigurationError(f"dense periodic solve limited to grid_n <= {_DENSE_MAX}")
        m = np.zeros((n, n))
        idx = np.arange(n)
        m[idx, idx] = 2.0 / h ** 2 + self.potential(idx * h) + self.slopes
        m[idx[:-1], idx[:-1] + 1] = -1.0 / h ** 2
        m[idx[:-1] + 1, idx[:-1]] = -1.0 / h ** 2
        m[0, n - 1] = m[n - 1, 0] = -1.0 / h ** 2
        return m

    def riccati_rates(self) -> np.ndarray:
        """Constant coefficient V(midpoint) + f' of the Riccati flow per cell."""
        return self.potential((np.arange(self.slopes.size) + 0.5) * self.h) + self.slopes


@dataclass(frozen=True)
class HillConfig:
    """Level j Hill operator on [0, xi] with grid_n cells."""

    j: int
    xi: float
    beta: float
    boundary: Boundary = Boundary.DIRICHLET
    grid_n: int = 1024
    lambda_cap: float = 50.0

    def __post_init__(self):
        if self.j < 0:
            raise DomainError("level index j must be a natural number")
        if not self.xi > 0.0:
            raise DomainError("HillConfig requires xi > 0")
        if not self.beta > 0.0:
            raise DomainError("HillConfig requires beta > 0")
        if self.grid_n < 16:
            raise ConfigurationError("grid_n must be at least 16")
        if not math.isfinite(self.lambda_cap):
            raise ConfigurationError("lambda_cap must be finite")

    @property
    def h(self) -> float:
        return self.xi / self.grid_n

    def operator(self, path: NoisePath) -> CellOperator:
        level = self.j * self.xi
        return CellOperator.on_path(lambda y: level, self.beta, self.xi, self.grid_n, path)


def tridiagonal_eigenvalues(diag: np.ndarray, off: np.ndarray, cap: float) -> np.ndarray:
    """All eigenvalues <= cap of a symmetric tridiagonal matrix (Sturm bisection)."""
    lower = float(diag.min() - 2.0 * np.abs(off).max() - 1.0) if off.size else float(diag.min() - 1.0)
    if lower > cap:
        return np.empty(0)
    return eigvalsh_tridiagonal(diag, off, select="v", select_range=(lower, cap),
                                check_finite=False, lapack_driver="stebz")


def hill_spectrum(config, path: NoisePath) -> SpectrumSample:
    """Eigenvalues <= lambda_cap under the configured boundary condition.

    config is a HillConfig or a SaoConfig (whose boundary is Dirichlet).
    """
    op = config.operator(path)
    if config.boundary is Boundary.DIRICHLET:
        ev = tridiagonal_eigenvalues(*op.dirichlet(), config.lambda_cap)
    else:
        all_ev = np.linalg.eigvalsh(op.periodic())
        ev = all_ev[all_ev <= config.lambda_cap]
    return SpectrumSample(eigenvalues=ev, cap=config.lambda_cap)


def _solve_group(task: tuple[np.ndarray, np.ndarray, float]) -> list[np.ndarray]:
    """Eigenvalues <= cap of each row of diags with the shared off-diagonal."""
    diags, off, cap = task
    return [tridiagonal_eigenvalues(diag, off, cap) for diag in diags]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _worker_pool():
    """(executor, workers): the process pool, made by the first batch that needs it.

    Workers are forked where the platform allows it, so they start at once
    and see the modules as they were at that moment.  The pool is shut down
    at exit, while the interpreter is still whole.  A batch that finds it
    broken clears this cache, so the next batch starts a new pool.
    """
    import concurrent.futures  # deferred: importing airylab stays as fast
    import multiprocessing
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    workers = _usable_cpus()
    executor = concurrent.futures.ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context(method))
    atexit.register(executor.shutdown)
    return executor, workers


def _in_order(tasks: Iterable) -> Iterator[list[np.ndarray]]:
    """_solve_group over tasks on the pool, yielded in submission order.

    At most _GROUPS_PER_WORKER tasks per worker are pending, so tasks are
    drawn from the iterable only as fast as the workers take them.
    """
    from concurrent.futures.process import BrokenProcessPool
    executor, workers = _worker_pool()
    pending = collections.deque()
    try:
        for task in tasks:
            pending.append(executor.submit(_solve_group, task))
            if len(pending) == _GROUPS_PER_WORKER * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    except BrokenProcessPool:
        _worker_pool.cache_clear()  # a worker died; the next batch starts a new pool
        raise
    finally:
        for future in pending:
            future.cancel()


def _dirichlet_groups(config, paths: Iterator[NoisePath]):
    """(diags, off, cap) for successive groups of up to _GROUP_ROWS rows.

    Every path of one config has the same h, hence the same off-diagonal.
    """
    size = max(1, _GROUP_ROWS // config.grid_n)
    while True:
        diags = np.empty((size, config.grid_n - 1))
        rows = 0
        for path in itertools.islice(paths, size):
            diags[rows], off = config.operator(path).dirichlet()
            rows += 1
        if rows == 0:
            return
        yield diags[:rows], off, config.lambda_cap


def dirichlet_spectra(config, paths: Iterable[NoisePath]) -> Iterator[SpectrumSample]:
    """Eigenvalues <= config.lambda_cap of config.operator(path).dirichlet(), per path.

    config is a HillConfig with the Dirichlet boundary or a SaoConfig.  The
    spectra are yielded in path order.  Paths are taken and assembled here,
    a group of about _GROUP_ROWS rows at a time, and only as fast as the
    solves consume them; the solves run on a process pool with one worker
    per usable CPU.  Each solve is a pure function of its matrix, so the
    spectra are the same, bit for bit, for any number of CPUs.  With one
    usable CPU, a batch of one group or fewer than _POOL_MIN_CELLS cells the
    solves run here.
    """
    if config.boundary is not Boundary.DIRICHLET:
        raise DomainError("dirichlet_spectra requires the Dirichlet boundary")
    tasks = _dirichlet_groups(config, iter(paths))
    solved = map(_solve_group, tasks)
    if config.grid_n >= _POOL_MIN_CELLS and _usable_cpus() > 1:
        head = list(itertools.islice(tasks, 2))
        if len(head) == 2:
            solved = _in_order(itertools.chain(head, tasks))
        else:
            solved = map(_solve_group, head)
    return (SpectrumSample(eigenvalues=ev, cap=config.lambda_cap)
            for group in solved for ev in group)


def riccati_cell_counts(q: np.ndarray, h: float) -> np.ndarray:
    """Explosions per cell of g' = q_i - g^2, g(0) = +inf, restart at +inf.

    Each cell has a constant coefficient, so the flow is advanced by the
    exact cot/tanh/coth solution; counting needs no blow-up thresholds.
    The total counts the eigenvalues <= 0 of the continuum operator
    -d^2/dx^2 + q on [0, q.size h] with Dirichlet walls and q constant on
    each cell, not those of the finite-difference matrix: the two agree
    only while |q| h^2 is small, and where it is large the count can exceed
    the matrix order.
    Total on finite q and h > 0: raises DomainError only when a cell's
    count does not fit in int64.
    """
    g = _INF
    counts = []
    sqrt = math.sqrt
    tanh = math.tanh
    atanh = math.atanh
    atan = math.atan
    tan = math.tan
    floor = math.floor
    half_pi = 0.5 * math.pi
    pi = math.pi
    try:
        # Python floats: the scalar math below is faster on them than on numpy scalars
        for qi in q.tolist():
            c = 0
            if qi > 0.0:
                k = sqrt(qi)
                if g == _INF:
                    u = k * h
                    g = k if u >= 20.0 else k / tanh(u) if u > 0.0 else _INF
                elif g >= k:
                    r = k / g
                    u = atanh(r if r < 1.0 else _BELOW_ONE) + k * h
                    g = k if u >= 20.0 else k / tanh(u) if u > 0.0 else _INF
                elif g > -k:
                    g = k * tanh(atanh(g / k) + k * h)
                else:
                    r = k / g  # in (-1, 0]
                    u0 = atanh(r if r > -1.0 else -_BELOW_ONE)
                    ystar = -u0 / k
                    if ystar <= h:
                        c = 1
                        rem = h - ystar
                        if rem > 0.0:
                            u = k * rem
                            g = k if u >= 20.0 else k / tanh(u) if u > 0.0 else _INF
                        else:
                            g = _INF
                    else:
                        u = u0 + k * h
                        g = k / tanh(u) if u != 0.0 else -_INF
            elif qi == 0.0:
                if g == _INF:
                    g = 1.0 / h
                elif g > 0.0:
                    g = g / (1.0 + g * h)
                elif g == 0.0:
                    pass
                else:
                    ystar = -1.0 / g
                    if ystar <= h:
                        c = 1
                        rem = h - ystar
                        g = 1.0 / rem if rem > 0.0 else _INF
                    else:
                        g = g / (1.0 + g * h)
            else:
                k = sqrt(-qi)
                phi0 = -half_pi if g == _INF else atan(-g / k)
                phi_end = phi0 + k * h
                if phi_end >= half_pi:
                    c = int(floor((phi_end - half_pi) / pi)) + 1
                phi_exit = phi_end - c * pi
                g = _INF if phi_exit <= -half_pi else -k * tan(phi_exit)
            counts.append(c)
        return np.array(counts, dtype=np.int64)
    except OverflowError as exc:  # k h so large that the count leaves int64
        raise DomainError("explosion count of one cell overflows int64") from exc


def riccati_count_hill(lam: float, config, path: NoisePath) -> int:
    """Number of Riccati explosions on the domain of config at level lam.

    config is a HillConfig or a SaoConfig (whose boundary is Dirichlet).
    This is the count of eigenvalues <= lam of the continuum operator with
    the cell-constant rates, which tracks the Dirichlet matrix count only
    while lam h^2 is small: for the Hill operator at xi = 1, grid_n = 16 and
    lam = 1e4 it is 31, while the matrix has 15 rows.
    """
    if config.boundary is not Boundary.DIRICHLET:
        raise DomainError("Riccati counting applies to the Dirichlet boundary")
    q = config.operator(path).riccati_rates() - lam
    return int(riccati_cell_counts(q, config.h).sum())


def linear_statistic(spectrum: SpectrumSample, z: float, t: float) -> float:
    """-sum_i (lambda_i t^{1/3} + z t)_-; needs the spectrum up to -z t^{2/3}."""
    threshold = -z * t ** (2.0 / 3.0)
    if spectrum.cap < threshold - 1e-9 * (1.0 + abs(threshold)):
        raise IncompleteSpectrumError(
            f"spectrum cap {spectrum.cap} below threshold {threshold}: sum would be wrong")
    ev = spectrum.eigenvalues
    contrib = ev * t ** (1.0 / 3.0) + z * t
    return float(np.minimum(contrib, 0.0).sum())


def counting_integral(spectrum: SpectrumSample, z: float, t: float) -> float:
    """-t^{1/3} * integral of N(lambda) over (-inf, -z t^{2/3}].

    Integrates the counting step function exactly on the partition induced
    by the eigenvalues; dual representation of linear_statistic.
    """
    threshold = -z * t ** (2.0 / 3.0)
    if spectrum.cap < threshold - 1e-9 * (1.0 + abs(threshold)):
        raise IncompleteSpectrumError("spectrum cap below threshold")
    ev = spectrum.eigenvalues[spectrum.eigenvalues <= threshold]
    if ev.size == 0:
        return 0.0
    edges = np.append(ev, threshold)
    widths = np.diff(edges)
    counts = np.arange(1, ev.size + 1, dtype=float)
    return -t ** (1.0 / 3.0) * float(np.dot(counts, widths))
