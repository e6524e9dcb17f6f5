"""The three benchmark workloads, each a repeated round of fixed input size.

Every round draws its inputs from (seed, workload, round index) and calls
airylab only through module attributes (``fredholm.fredholm_det``, ...), so
a Tracer that swaps those bindings sees every call.  Each workload pools its
rounds into one Monte-Carlo estimate or count and checks it when the run ends.
"""
from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.special

from airylab import fredholm, hill, rate, sao, wkb
from airylab.variational import DiscretizationParams


@dataclass
class Tally:
    """Operations attempted and failed; a raised call or a failed check fails."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what}")
        return ok

    def call(self, what: str, fn, *args, ops: int = 1, **kwargs):
        """fn(*args, **kwargs), counted as ops operations; None if it raised."""
        self.attempted += ops
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # every raise is a failed operation, never fatal
            self.failed += ops
            self.notes.append(f"{what} raised {type(exc).__name__}: {exc}")
            return None


# Comparing two commits takes some twenty runs of each workload, so about 66
# det-vs-MC checks.  At 3 sigma a correct program would fail one of them
# about one time in six; at 4 sigma about one time in 200.
N_SIGMA = 4.0


def round_seed_sequence(seed: int, workload: str, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, zlib.crc32(workload.encode()), index])


def round_seed(seed: int, workload: str, index: int) -> int:
    """Seed handed to airylab for one round; the same triple gives the same seed."""
    return int(round_seed_sequence(seed, workload, index).generate_state(1)[0])


def pool_linear(means: list[float], stderrs: list[float]) -> tuple[float, float]:
    """Mean of equal-size independent estimates and its standard error."""
    k = len(means)
    return sum(means) / k, math.sqrt(sum(se * se for se in stderrs)) / k


def plain_tridiagonal_ms(domain_l: float, grid_n: int, cap: float, rng, repeats: int) -> float:
    """Median ms of a plain single-threaded scipy stebz solve of one SAO matrix."""
    h = domain_l / grid_n
    times = []
    for _ in range(repeats):
        noise = 2.0 / math.sqrt(2.0) * rng.standard_normal(grid_n - 1) * math.sqrt(h) / h
        diag = 2.0 / h ** 2 + np.arange(1, grid_n) * h + noise
        off = np.full(grid_n - 2, -1.0 / h ** 2)
        t0 = time.perf_counter()
        scipy.linalg.eigvalsh_tridiagonal(diag, off, select="v",
                                          select_range=(diag.min() - 2.0 / h ** 2 - 1.0, cap),
                                          check_finite=False, lapack_driver="stebz")
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def plain_airy_ns_per_point(repeats: int = 5) -> float:
    """Median ns per point of scipy.special.airy over the (s, t) = (1, 1) kernel's argument range."""
    params = fredholm.KernelParams(s=1.0, t=1.0)
    grid = fredholm.kernel_grid(params, n_nodes=96)
    # fredholm_det's inner rule puts 16 nodes on each length-2 panel of r
    n_r = 16 * math.ceil((grid.r_cut_high - grid.r_cut_low) / 2.0)
    xs = grid.nodes[:, None] + np.linspace(grid.r_cut_low, grid.r_cut_high, n_r)[None, :]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        scipy.special.airy(xs)
        times.append(time.perf_counter() - t0)
    return 1e9 * float(np.median(times)) / xs.size


class FredholmIdentity:
    """Criterion 3's shape: three determinants, once per run, checked against
    point-process means pooled over rounds of beta = 2 SAO spectrum batches,
    each batch shared by all three (s, t) cases.

    The suite's hotspot: large selective solves (~46 eigenvalues of an order
    2^14 matrix) do nearly all the work and Airy a few percent.
    """

    name = "fredholm_identity"
    cases = ((1.0, 1.0, 1e-15), (0.5, 1.0, 1e-15), (2.0, 0.5, 1e-12))
    # (2, 0.5) has the lowest-kurtosis product factors, so its standard error
    # is the steadiest; 3.3e-3 is what criterion 3's 2000 samples reach.
    target_case = 2
    target_stderr = 3.3e-3

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.batch = 4 if smoke else 12
        self.config = sao.SaoConfig(beta=2.0, domain_l=40.0,
                                    grid_n=2 ** 10 if smoke else 2 ** 14, lambda_cap=36.0)
        self.params = [fredholm.KernelParams(s=s, t=t) for s, t, _ in self.cases]
        self.grids = [fredholm.kernel_grid(p, n_nodes=96) for p in self.params]
        self.rounds: list[dict] = []
        self.dets: list = []

    def warm_up(self) -> None:
        fredholm.sample_sao2_spectra(self.config, 1, round_seed(self.seed, "warm-up", 0))
        fredholm.fredholm_det(self.params[0], self.grids[0])

    def prologue(self, tally: Tally) -> dict:
        """The three determinants, once per run as in criterion 3."""
        self.dets = []
        for (s, t, _), params, grid in zip(self.cases, self.params, self.grids):
            det = tally.call(f"fredholm_det(s={s}, t={t})", fredholm.fredholm_det, params, grid)
            tally.check(det is not None and 0.0 < det <= 1.0, f"0 < det <= 1 at s={s}, t={t}")
            self.dets.append(det)
        return {"det": self.dets}

    def round(self, index: int, tally: Tally) -> dict:
        seed = round_seed(self.seed, self.name, index)
        spectra = tally.call("sample_sao2_spectra", fredholm.sample_sao2_spectra,
                             self.config, self.batch, seed, ops=self.batch)
        out = {"mean": [], "stderr": [], "samples": self.batch}
        for (s, t, factor_tol), params in zip(self.cases, self.params):
            est = tally.call(f"airy_product_estimate(s={s}, t={t})",
                             fredholm.airy_product_estimate, spectra, params, factor_tol, seed)
            tally.check(est is not None and math.isfinite(est.mean) and math.isfinite(est.stderr),
                        f"finite estimate at s={s}, t={t}")
            out["mean"].append(None if est is None else est.mean)
            out["stderr"].append(None if est is None else est.stderr)
        return out

    def absorb(self, out: dict) -> None:
        self.rounds.append(out)

    def finish(self, tally: Tally) -> dict:
        """Each determinant within N_SIGMA of the pooled point-process mean."""
        pooled = []
        for i, (s, t, _) in enumerate(self.cases):
            det = self.dets[i]
            ok = [r for r in self.rounds if r["mean"][i] is not None]
            if not ok or det is None:
                tally.check(False, f"no determinant or estimate at s={s}, t={t}")
                pooled.append((math.nan, math.nan))
                continue
            mean, se = pool_linear([r["mean"][i] for r in ok], [r["stderr"][i] for r in ok])
            tally.check(abs(det - mean) <= N_SIGMA * se,
                        f"|det - mc| <= {N_SIGMA} sigma at s={s}, t={t}: det={det}, mc={mean}+-{se}")
            pooled.append((mean, se))
        return {"samples": sum(r["samples"] for r in self.rounds),
                "stderr": pooled[self.target_case][1], "target_stderr": self.target_stderr,
                "estimates": pooled}

    def plain_solve_ms(self, rng) -> float:
        c = self.config
        return plain_tridiagonal_ms(c.domain_l, c.grid_n, c.lambda_cap, rng, repeats=5)


class LdpImportance:
    """Criterion 7's shape: importance-sampled ldp_estimate at t = 4, 8, 16.

    Thousands of small (order 2047) solves, so per-call overhead, sampling and
    the Girsanov bookkeeping are a real share of the work.
    """

    name = "ldp_importance"
    z, beta, grid_n = -1.0, 2.0, 2048
    # the largest t: criterion 7's 35% band, the warm-up and the plain baseline
    top_t = 16.0
    # time_to_accuracy_s is taken at t = 4: at t = 16 the variance estimate
    # itself is heavy-tailed (rare large weights), its interquartile spread
    # over seeds is ~22% against ~6% at t = 4.  2e-4 is what criterion 7's
    # 60 000 samples at t = 4 reach.
    accuracy_t = 4.0
    target_stderr = 2e-4

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.schedule = ((4.0, 20), (8.0, 20), (16.0, 40)) if smoke else \
                        ((4.0, 250), (8.0, 250), (16.0, 1000))
        self.rounds: list[dict] = []

    def warm_up(self) -> None:
        # ldp_estimate builds its drift profile itself; this call builds t = 16's
        sao.ldp_estimate(self.z, self.top_t, self.beta, n_samples=4,
                         seed=round_seed(self.seed, "warm-up", 0), grid_n=self.grid_n,
                         use_importance=True)

    def prologue(self, tally: Tally) -> dict:
        return {}

    def round(self, index: int, tally: Tally) -> dict:
        seed = round_seed(self.seed, self.name, index)
        out = {"mean": [], "stderr": [], "samples": 0}
        for t, n in self.schedule:
            est = tally.call(f"ldp_estimate(t={t})", sao.ldp_estimate, self.z, t, self.beta,
                             a=0.0, n_samples=n, seed=seed, grid_n=self.grid_n,
                             use_importance=True, ops=n)
            tally.check(est is not None and math.isfinite(est.mean) and math.isfinite(est.stderr),
                        f"finite ldp estimate at t={t}")
            out["mean"].append(None if est is None else est.mean)
            out["stderr"].append(None if est is None else est.stderr)
            out["samples"] += n
        return out

    def absorb(self, out: dict) -> None:
        self.rounds.append(out)

    def _pooled(self, i: int, t: float) -> tuple[float, float]:
        """Pool the rounds' (1/t^2) log E estimates through their linear means."""
        ok = [r for r in self.rounds if r["mean"][i] is not None]
        if not ok:
            return math.nan, math.nan
        t2 = t * t
        logs = [t2 * r["mean"][i] for r in ok]
        top = max(logs)
        lin = [math.exp(v - top) for v in logs]
        mean, se = pool_linear(lin, [t2 * r["stderr"][i] * e for r, e in zip(ok, lin)])
        return (top + math.log(mean)) / t2, se / mean / t2

    def finish(self, tally: Tally) -> dict:
        """Magnitudes fall in t within N_SIGMA combined; t = 16 within 35% of the limit."""
        est = {t: self._pooled(i, t) for i, (t, _) in enumerate(self.schedule)}
        ts = [t for t, _ in self.schedule]
        for lo, hi in zip(ts, ts[1:]):
            (m_lo, s_lo), (m_hi, s_hi) = est[lo], est[hi]
            tally.check(abs(m_lo) >= abs(m_hi) - N_SIGMA * math.hypot(s_lo, s_hi),
                        f"|estimate| at t={lo} >= at t={hi} within {N_SIGMA} sigma: {m_lo}, {m_hi}")
        limit = -rate.phi_minus(-1.0)
        m16 = est[self.top_t][0]
        tally.check(abs(m16 - limit) <= 0.35 * abs(limit),
                    f"t=16 estimate {m16} within 35% of {limit}")
        return {"samples": sum(r["samples"] for r in self.rounds),
                "stderr": est[self.accuracy_t][1], "target_stderr": self.target_stderr,
                "estimates": [est[t] for t in ts]}

    def plain_solve_ms(self, rng) -> float:
        """Undrifted paths, so a few more eigenvalues fall below the cap than in ldp_estimate."""
        params = DiscretizationParams.from_deviation(self.z, self.top_t, 0.0)
        threshold = -self.z * self.top_t ** (2.0 / 3.0)
        domain_l = max(threshold, params.n * params.xi) + 8.0
        return plain_tridiagonal_ms(domain_l, self.grid_n, threshold, rng, repeats=50)


class KernelSweep:
    """Determinants over an (s, t) grid, Riccati-vs-Sturm counts and WKB checks.

    No Monte-Carlo estimate: Airy, the Riccati flow and the dense periodic solve
    do most of their work here and almost none in the other workloads.  s = 1e3
    stays in the grid although the determinant's fixed truncation is least
    accurate there.
    """

    name = "kernel_sweep"
    t_values = (0.5, 1.0, 2.0)

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        grid_n = 2 ** 10 if smoke else 2 ** 14
        self.paths = 2 if smoke else 8
        self.profiles = 2 if smoke else 8
        self.sao_config = sao.SaoConfig(beta=2.0, domain_l=15.0, grid_n=grid_n, lambda_cap=9.0)
        self.hill_configs = {(beta, j): hill.HillConfig(j=j, xi=1.0, beta=beta, grid_n=grid_n,
                                                        lambda_cap=160.0)
                             for beta in (0.5, 1.0, 2.0, 4.0) for j in range(4)}
        self.agree = {"sao": [0, 0], "hill": [0, 0]}
        self.samples = 0

    def warm_up(self) -> None:
        rng = round_seed_sequence(self.seed, "warm-up", 0)
        self._det(fredholm.KernelParams(s=1.0, t=1.0))
        self._riccati_pair(np.random.default_rng(rng), "sao", Tally())
        wkb.wkb_compare(wkb.random_profile(np.random.default_rng(rng), grid_n=512), 0.0)

    def _det(self, params):
        return fredholm.fredholm_det(params, fredholm.kernel_grid(params, n_nodes=96))

    def _path(self, rng, grid_n: int, h: float) -> hill.NoisePath:
        return hill.NoisePath(step=h, increments=rng.standard_normal(grid_n) * math.sqrt(h),
                              seed=self.seed)

    def _riccati_pair(self, rng, kind: str, tally: Tally):
        if kind == "sao":
            cfg = self.sao_config
            path = self._path(rng, cfg.grid_n, cfg.h)
            lam = float(rng.uniform(-2.0, 8.0))
            count = tally.call("riccati_count_sao", sao.riccati_count_sao, lam, cfg, path)
            spectrum = tally.call("sao_spectrum", sao.sao_spectrum, cfg, path)
        else:
            cfg = self.hill_configs[(float(rng.choice([0.5, 1.0, 2.0, 4.0])),
                                     int(rng.integers(0, 4)))]
            path = self._path(rng, cfg.grid_n, cfg.h)
            lam = float(rng.uniform(0.0, 150.0))
            count = tally.call("riccati_count_hill", hill.riccati_count_hill, lam, cfg, path)
            spectrum = tally.call("hill_spectrum", hill.hill_spectrum, cfg, path)
        sturm = None if spectrum is None else tally.call("count_below", spectrum.count_below, lam)
        return count, sturm

    def prologue(self, tally: Tally) -> dict:
        return {}

    def round(self, index: int, tally: Tally) -> dict:
        rng = np.random.default_rng(round_seed_sequence(self.seed, self.name, index))
        s_mid = float(np.exp(rng.uniform(math.log(0.5), math.log(500.0))))
        out = {"det": [], "sao": [], "hill": [], "wkb": []}
        for t in self.t_values:
            row = []
            for s in (0.25, s_mid, 1e3):
                det = tally.call(f"fredholm_det(s={s}, t={t})", self._det,
                                 fredholm.KernelParams(s=s, t=t))
                tally.check(det is not None and 0.0 < det <= 1.0, f"0 < det <= 1 at s={s}, t={t}")
                row.append(det)
            tally.check(None not in row and row[0] >= row[1] >= row[2],
                        f"det decreasing in s at t={t}: {row}")
            out["det"].append(row)
        for kind in ("sao", "hill"):
            out[kind] = [self._riccati_pair(rng, kind, tally) for _ in range(self.paths)]
        for _ in range(self.profiles):
            profile = wkb.random_profile(rng, grid_n=512)
            r = float(rng.uniform(-20.0, 20.0))
            res = tally.call("wkb_compare", wkb.wkb_compare, profile, r)
            tally.check(res is not None and bool(res[2]), f"WKB inequality at r={r}")
            out["wkb"].append(None if res is None else [res[0], res[1]])
        out["samples"] = 2 * self.paths + self.profiles
        return out

    def absorb(self, out: dict) -> None:
        self.samples += out["samples"]
        for kind in ("sao", "hill"):
            for count, sturm in out[kind]:
                self.agree[kind][1] += 1
                self.agree[kind][0] += (count is not None and sturm is not None
                                        and abs(count - sturm) <= 1)

    def finish(self, tally: Tally) -> dict:
        """Riccati counts within +-1 of Sturm counts on at least 95% of paths."""
        for kind, (agree, total) in self.agree.items():
            tally.check(total > 0 and agree >= 0.95 * total,
                        f"{kind} Riccati/Sturm agreement {agree}/{total} >= 95%")
        return {"samples": self.samples, "stderr": None, "target_stderr": None,
                "estimates": self.agree}

    def plain_solve_ms(self, rng) -> float:
        c = self.sao_config
        return plain_tridiagonal_ms(c.domain_l, c.grid_n, c.lambda_cap, rng, repeats=10)


WORKLOADS = {cls.name: cls for cls in (FredholmIdentity, LdpImportance, KernelSweep)}
