"""Finite Hill operators: -d^2/dy^2 + j*xi + (2/sqrt(beta)) W' on [0, xi].

White noise enters as cell-averaged Brownian increments dW_i/h on the
finite-difference diagonal; the Riccati counter consumes the same
increments as piecewise-constant rates, so the matrix count and the
Riccati count are coupled path by path (they agree while lambda h^2 is
small; see riccati_cell_counts).  CellOperator is the one assembly of that
operator: Hill levels (V = j xi), the stochastic Airy operator (V = x) and
the WKB comparison operators (V = 0, f the drift profile) all build on it.

Eigenvalues of the Dirichlet (tridiagonal) matrix come from LAPACK Sturm
bisection (dstebz, called through ctypes so that it runs without the
interpreter lock); the periodic matrix carries two corner entries and is
solved densely, which restricts periodic grids to <= 4096 cells.
_pool_map is the one way onto a pool of threads, for the groups of a batch
of paths (dirichlet_spectra) and the parts of one large call (an Airy
table, a pair of periodic WKB solves, the bisection of a lone Dirichlet
solve through LAPACK's dlaebz).  The work on the pool (dstebz, dlaebz,
numpy's array loops and LAPACK) releases the lock, so the threads compute
in parallel and share the caller's arrays without copies.
"""
from __future__ import annotations

import collections
import ctypes
import enum
import functools
import itertools
import math
import os
import sys
import threading
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, IncompleteSpectrumError, ResolutionError

_DENSE_MAX = 4096
# a batch goes to the pool's threads in groups of about this many matrix rows,
# at most this many groups per pool thread in flight
_GROUP_ROWS = 2 ** 14
_GROUPS_PER_WORKER = 2
# below this many cells drawing and assembling a path costs about as much
# as solving it, and the pool is no faster than solving in place
_POOL_MIN_CELLS = 2048
# a lone Dirichlet solve of at least this many rows, made outside the pool,
# shares its bisection among the pool's threads.  On 2 Xeon CPUs (medians
# of 9 x 20 solves, dstebz -> shared) a Hill cap-160 and an SAO cap-5 solve
# took 2.33 -> 2.47 and 1.71 -> 2.20 ms at 2047 rows, 4.38 -> 3.74 and
# 3.18 -> 3.20 ms at 4095, 8.14 -> 6.12 and 6.35 -> 5.64 ms at 8191
_SHARE_MIN_ROWS = 4095
_INF = math.inf
_BELOW_ONE = math.nextafter(1.0, 0.0)
# the pointer arguments of the LAPACK routines called through ctypes, c for
# char *, i for int *, d for double *:
# dstebz(RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W, IBLOCK,
#        ISPLIT, WORK, IWORK, INFO)
# dlaebz(IJOB, NITMAX, N, MMAX, MINP, NBMIN, ABSTOL, RELTOL, PIVMIN, D, E, E2,
#        NVAL, AB, C, MOUT, NAB, WORK, IWORK, INFO)
_LAPACK_ARGS = {"dstebz": "cciddiidddiidiidii", "dlaebz": "iiiiiiddddddiddiidii"}
# dstebz's constants: DLAMCH('P') and DLAMCH('S'), the widening of the
# Gershgorin interval and the relative tolerance RELFAC * ULP
_ULP = 2.0 ** -52
_SAFEMN = sys.float_info.min
_FUDGE = 2.1
_RTOLI = 2.0 * _ULP


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
        if math.isnan(lam):
            raise DomainError("count requested at a NaN level")
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


def check_grid(beta: float, length: float, grid_n: int, lambda_cap: float) -> None:
    """The checks HillConfig and SaoConfig share, in this order.

    DomainError unless beta > 0; ConfigurationError for fewer than 16
    cells; DomainError unless h^2 and 1/h^2 are finite and positive,
    h = length / grid_n (the operators' off-diagonal is -1/h^2);
    ConfigurationError for a cap that is not finite.  The configs check
    their grid before any path is drawn.
    """
    if not beta > 0.0:
        raise DomainError(f"the operator requires beta > 0, got {beta}")
    if grid_n < 16:
        raise ConfigurationError("grid_n must be at least 16")
    h = length / grid_n
    h2 = h * h
    if not (0.0 < h2 < _INF and 1.0 / h2 < _INF):
        raise DomainError(f"cell width {h} gives h^2 = {h2}; "
                          "the operator needs finite h^2 and 1/h^2")
    if not math.isfinite(lambda_cap):
        raise ConfigurationError("lambda_cap must be finite")


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
        check_grid(self.beta, self.xi, self.grid_n, self.lambda_cap)

    @property
    def h(self) -> float:
        return self.xi / self.grid_n

    def operator(self, path: NoisePath) -> CellOperator:
        level = self.j * self.xi
        return CellOperator.on_path(lambda y: level, self.beta, self.xi, self.grid_n, path)


@functools.cache
def _lapack(name: str):
    """LAPACK's routine name as a ctypes function, which runs without the interpreter lock.

    The pointer comes from scipy's cython_lapack, the LAPACK that scipy's own
    wrappers call; they hold the lock.  The capsule's signature is checked
    argument by argument against _LAPACK_ARGS, and a mismatch fails here,
    at first use.
    """
    from scipy.linalg import cython_lapack  # deferred: importing airylab loads no scipy
    capsule = cython_lapack.__pyx_capi__[name]
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)
    signature = capsule_name(("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    text = signature.decode()
    args = text[text.find("(") + 1:text.rfind(")")].split(", ")
    kinds = "".join("c" if a == "char *" else "i" if a == "int *"
                    else "d" if a == "double *" or a.endswith("_lapack_d *") else "?"
                    for a in args)
    if not text.startswith("void (") or kinds != _LAPACK_ARGS[name]:
        raise RuntimeError(f"scipy's {name} has the signature {text!r}; "
                           f"expected pointer arguments {_LAPACK_ARGS[name]}")
    address = capsule_pointer(("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, signature)
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * len(kinds))(address)


def _int(value: int):
    return ctypes.byref(ctypes.c_int(value))


def _double(value: float):
    return ctypes.byref(ctypes.c_double(value))


def _stebz(d: np.ndarray, e: np.ndarray, lower: float, cap: float) -> tuple[np.ndarray, int]:
    """(eigenvalues in (lower, cap], INFO) from one dstebz call, as scipy's wrapper makes it."""
    n = d.size
    w, work = np.empty(n), np.empty(4 * n)
    iblock, isplit, iwork = (np.empty(k, dtype=np.intc) for k in (n, n, 3 * n))
    m, nsplit, info = ctypes.c_int(), ctypes.c_int(), ctypes.c_int()
    _lapack("dstebz")(b"V", b"E", _int(n), _double(lower), _double(cap), _int(1), _int(1),
                      _double(0.0), d.ctypes.data, e.ctypes.data, ctypes.byref(m),
                      ctypes.byref(nsplit), w.ctypes.data, iblock.ctypes.data,
                      isplit.ctypes.data, work.ctypes.data, iwork.ctypes.data,
                      ctypes.byref(info))
    return w[:m.value], info.value


def _dlaebz(sturm: tuple, ijob: int, nitmax: int, ab: np.ndarray, nab: np.ndarray,
            count: int) -> tuple[int, int]:
    """(MOUT, INFO) of dlaebz on the first count intervals of ab and nab, both (2, mmax).

    sturm is (d, e, e2, ATOLI, PIVMIN): the matrix and dstebz's tolerances.
    IJOB = 1 counts the eigenvalues at both ends of each interval into nab,
    and MOUT is how many lie inside.  IJOB = 2 halves every open interval up
    to nitmax times, keeping each half that holds an eigenvalue: rows
    [0, MOUT - INFO) are then closed, rows [MOUT - INFO, MOUT) still open.
    """
    d, e, e2, atoli, pivmin = sturm
    mmax = ab.shape[1]
    c, work = np.empty(mmax), np.empty(mmax)
    iwork = np.empty(mmax, dtype=np.intc)
    mout, info = ctypes.c_int(), ctypes.c_int()
    _lapack("dlaebz")(_int(ijob), _int(nitmax), _int(d.size), _int(mmax), _int(count), _int(0),
                      _double(atoli), _double(_RTOLI), _double(pivmin), d.ctypes.data,
                      e.ctypes.data, e2.ctypes.data, iwork.ctypes.data, ab.ctypes.data,
                      c.ctypes.data, ctypes.byref(mout), nab.ctypes.data, work.ctypes.data,
                      iwork.ctypes.data, ctypes.byref(info))
    return mout.value, info.value


def _finish(task: tuple) -> tuple[np.ndarray, np.ndarray, int]:
    """Bisect a task's open interval to the end: (ab, nab, INFO) of all it becomes."""
    sturm, ab, nab, nitmax = task
    # room for every interval the task can become: each holds an eigenvalue
    room = int((nab[1] - nab[0]).sum())
    ab_all, nab_all = np.empty((2, room)), np.empty((2, room), dtype=np.intc)
    ab_all[:, :ab.shape[1]], nab_all[:, :nab.shape[1]] = ab, nab
    mout, info = _dlaebz(sturm, 2, nitmax, ab_all, nab_all, ab.shape[1])
    return ab_all[:, :mout], nab_all[:, :mout], info


def _shared_stebz(d: np.ndarray, e: np.ndarray, lower: float,
                  cap: float) -> tuple[np.ndarray, int] | None:
    """What _stebz returns, from dstebz's algorithm run on the pool's threads; None to call dstebz.

    The setup is dstebz's, step for step: the split test and PIVMIN, the
    Gershgorin interval widened by FUDGE, ATOLI from its wider end, the
    clip to (lower, cap] and ITMAX.  dlaebz, the routine dstebz calls,
    counts the eigenvalues in the interval and halves it here, one
    iteration at a time, until two or more intervals are open and none
    holds more than half the eigenvalues, rounded up.  Each open interval
    is then one pool task, bisected to the end, the most eigenvalues first.
    No task holds more than half the eigenvalues, but the threads' loads
    can still differ: intervals of 2, 2 and 2 stop the halving and go 4
    against 2 on two threads, and as _pool_map yields in order with few
    tasks pending, a thread may wait for the first task to return before
    it is handed more.  An interval's halvings depend on it alone, and each
    eigenvalue is the midpoint of its closed interval, so the values are
    dstebz's bit for bit in any task order.
    None when the matrix splits into blocks or (lower, cap] holds fewer
    than 2 eigenvalues.
    """
    n = d.size
    e2 = np.append(e * e, 0.0)
    if (np.abs(d[1:] * d[:-1]) * _ULP ** 2 + _SAFEMN > e2[:-1]).any():
        return None
    pivmin = max(1.0, float(e2.max())) * _SAFEMN
    ae = np.abs(e)
    before, after = np.append(0.0, ae), np.append(ae, 0.0)
    gu = max(float(d[0]), float((d + before + after).max()))
    gl = min(float(d[0]), float((d - before - after).min()))
    widen = max(abs(gl), abs(gu)) * _FUDGE * _ULP * n
    gl, gu = gl - widen - _FUDGE * pivmin, gu + widen + _FUDGE * pivmin
    sturm = d, e, e2, _ULP * max(abs(gl), abs(gu)), pivmin
    gl, gu = max(gl, lower), min(gu, cap)
    if gl >= gu:
        return None
    root, root_counts = np.array([[gl], [gu]]), np.zeros((2, 1), dtype=np.intc)
    found, _ = _dlaebz(sturm, 1, 0, root, root_counts, 1)
    if found < 2:
        return None
    # room for every interval the bisection can make: each holds an eigenvalue
    ab, nab = np.empty((2, found)), np.empty((2, found), dtype=np.intc)
    ab[:, :1], nab[:, :1] = root, root_counts
    itmax = int((math.log(gu - gl + pivmin) - math.log(pivmin)) / math.log(2.0)) + 2
    first = int(root_counts[0, 0])
    w = np.empty(found)

    def place(ab, nab):
        for lo, hi, k_lo, k_hi in zip(ab[0], ab[1], nab[0].tolist(), nab[1].tolist()):
            w[k_lo - first:k_hi - first] = 0.5 * (lo + hi)

    opened, done = 1, 0
    while True:
        counts = (nab[1, :opened] - nab[0, :opened]).tolist()
        total = sum(counts)
        if total < 2 or done == itmax or (opened >= 2 and 2 * max(counts) <= total + 1):
            break
        mout, opened = _dlaebz(sturm, 2, 1, ab, nab, opened)
        done += 1
        place(ab[:, :mout - opened], nab[:, :mout - opened])
        ab[:, :opened], nab[:, :opened] = ab[:, mout - opened:mout], nab[:, mout - opened:mout]
    largest_first = sorted(range(opened), key=counts.__getitem__, reverse=True)
    tasks = [(sturm, ab[:, [i]], nab[:, [i]], itmax - done) for i in largest_first]
    info = 0
    for ab_done, nab_done, left in _pool_map(_finish, tasks):
        place(ab_done, nab_done)
        info |= left
    return w, int(info > 0)


def tridiagonal_eigenvalues(diag: np.ndarray, off: np.ndarray, cap: float) -> np.ndarray:
    """All eigenvalues <= cap of a symmetric tridiagonal matrix (Sturm bisection).

    LAPACK dstebz bisects (lower, cap] to full precision (ABSTOL 0) and
    returns the eigenvalues in ascending order, with the arguments and
    workspace of scipy's eigvalsh_tridiagonal(select="v",
    lapack_driver="stebz"), bit for bit.  Unlike that wrapper it releases
    the interpreter lock, so the pool's threads solve in parallel.
    A call made outside the pool's threads with more than one usable CPU,
    on a matrix of at least _SHARE_MIN_ROWS rows that does not split and
    holds at least 2 eigenvalues in range, shares its bisection among the
    pool's threads (_shared_stebz): dstebz's setup is repeated in Python
    and LAPACK's dlaebz, the routine dstebz calls, bisects; each interval
    is halved as in one dstebz call, so the eigenvalues are the same bits.
    Every other call, a batch solve on a pool thread among them, makes one
    dstebz call.  A bisection that fails (LAPACK INFO != 0) is a
    ResolutionError.
    """
    lower = float(diag.min() - 2.0 * np.abs(off).max() - 1.0) if off.size else float(diag.min() - 1.0)
    if lower >= cap:
        return np.empty(0)
    d = np.ascontiguousarray(diag, dtype=float)
    e = np.ascontiguousarray(off, dtype=float)
    n = d.size
    if e.size != n - 1:
        raise ConfigurationError(f"off-diagonal of {e.size} entries for {n} diagonal entries")
    solved = None
    if n >= _SHARE_MIN_ROWS and _shares_here():
        solved = _shared_stebz(d, e, lower, cap)
    w, info = solved or _stebz(d, e, lower, cap)
    if info != 0:
        raise ResolutionError(f"Sturm bisection failed on an order-{n} matrix below {cap} "
                              f"(LAPACK dstebz INFO = {info})")
    return w


def hill_spectrum(config, path: NoisePath) -> SpectrumSample:
    """Eigenvalues <= lambda_cap under the configured boundary condition.

    config is a HillConfig or a SaoConfig (whose boundary is Dirichlet).
    A Dirichlet solve of at least _SHARE_MIN_ROWS rows, called outside the
    pool, shares its bisection among the pool's threads, bit for bit (see
    tridiagonal_eigenvalues).
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


_pool_thread = threading.local()


@functools.cache
def _worker_pool():
    """(executor, workers): one thread per usable CPU, made by the first call that needs it.

    Each thread marks itself when it starts, so _pool_map keeps a pool
    thread's work in place and a pool thread never waits on the pool.  Idle
    threads are joined at exit by concurrent.futures itself.
    """
    from concurrent.futures import ThreadPoolExecutor  # deferred: importing airylab stays as fast
    workers = _usable_cpus()
    mark = functools.partial(setattr, _pool_thread, "inside", True)
    executor = ThreadPoolExecutor(workers, thread_name_prefix="airylab", initializer=mark)
    return executor, workers


def _shares_here() -> bool:
    """Whether work may go to the pool: more than one usable CPU, outside the pool's threads."""
    return _usable_cpus() > 1 and not getattr(_pool_thread, "inside", False)


def _pool_map(fn: Callable, tasks: Iterable) -> Iterator:
    """fn(task) for each task, yielded in order, on the pool's threads where they may go.

    With at least two tasks, where _shares_here holds, every call runs on a
    pool thread and the caller computes none itself, so no more calls run
    at once than there are usable CPUs.  At most _GROUPS_PER_WORKER tasks
    per thread are pending, so tasks are drawn from the iterable only as
    fast as the threads take them.  Otherwise (a lone task, one usable CPU
    or a pool thread) the calls run here, in order: a lone Dirichlet solve
    may then share its own bisection.  fn must be pure for the results not
    to depend on where they ran.
    """
    tasks = iter(tasks)
    head = list(itertools.islice(tasks, 2)) if _shares_here() else []
    tasks = itertools.chain(head, tasks)
    if len(head) < 2:
        yield from map(fn, tasks)
        return
    executor, workers = _worker_pool()
    pending = collections.deque()
    try:
        for task in tasks:
            pending.append(executor.submit(fn, task))
            if len(pending) == _GROUPS_PER_WORKER * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
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
    solves consume them; the solves run on a pool with one thread per
    usable CPU, through _pool_map.  Each solve is a pure function of its
    matrix, so the spectra are the same, bit for bit, for any number of
    CPUs.  Below _POOL_MIN_CELLS cells, and wherever _pool_map runs in
    place (one group, one usable CPU, a pool thread), the solves run here.
    """
    if config.boundary is not Boundary.DIRICHLET:
        raise DomainError("dirichlet_spectra requires the Dirichlet boundary")
    run = _pool_map if config.grid_n >= _POOL_MIN_CELLS else map
    solved = run(_solve_group, _dirichlet_groups(config, iter(paths)))
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
    lam = 1e4 it is 31, while the matrix has 15 rows.  A lam that is not
    finite is a DomainError.
    """
    if config.boundary is not Boundary.DIRICHLET:
        raise DomainError("Riccati counting applies to the Dirichlet boundary")
    if not math.isfinite(lam):
        raise DomainError(f"the count needs a finite level, got {lam}")
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
