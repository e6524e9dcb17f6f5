"""Acceptance suite: one callable per criterion, shared by pytest and the CLI.

Each criterion declares its id, label, group and runtime budget once, in
its _criterion decorator, and returns a CriterionResult with the measured
quantities.  Sampling-heavy criteria are in the group "mc" so the CLI can
skip them; everything is deterministic given the seed.
"""
from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .fredholm import KernelParams, _factor_logs, determinant_vs_point_process, proxy_f
from .hill import (HillConfig, NoisePath, SpectrumSample, counting_integral,
                   hill_spectrum, linear_statistic, riccati_count_hill)
from .mc import spawn_rng
from .rate import phi_minus, phi_minus_scaled
from .sao import SaoConfig, ldp_estimate, sandwich_check
from .variational import DiscretizationParams, variational_value
from .wkb import wkb_trials

DEFAULT_SEED = 20260808
SCHEMA_VERSION = 1  # of the report and of every JSON output of the CLI


@dataclass
class CriterionResult:
    cid: int
    label: str
    group: str
    passed: bool
    runtime_s: float = 0.0
    measured: dict = field(default_factory=dict)

    def line(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return f"[criterion {self.cid}] {state} {self.label} ({self.runtime_s:.1f}s)"


ALL_CRITERIA: list = []  # (criterion, group) in definition order, filled by _criterion


def _criterion(cid: int, label: str, group: str, budget_s: float):
    """Register a body returning (passed, measured) as criterion cid.

    The registered callable times the body and fails a run that exceeds
    budget_s, marking it with measured["runtime_exceeded"].
    """
    def register(body):
        def criterion(seed: int = DEFAULT_SEED, fast: bool = False) -> CriterionResult:
            t0 = time.perf_counter()
            passed, measured = body(seed, fast)
            runtime_s = time.perf_counter() - t0
            if runtime_s > budget_s:
                passed = False
                measured["runtime_exceeded"] = True
            return CriterionResult(cid, label, group, passed, runtime_s, measured)

        # the body's name and docstring, but not its signature
        criterion.__name__ = criterion.__qualname__ = body.__name__
        criterion.__doc__ = body.__doc__
        ALL_CRITERIA.append((criterion, group))
        return criterion
    return register


@_criterion(1, "variational identity on 20 (beta, z) pairs", "deterministic", budget_s=5.0)
def criterion_1_variational_identity(seed: int, fast: bool) -> tuple[bool, dict]:
    """Optimal-drift integral equals the beta-scaled rate function."""
    betas = [0.5, 1.0, 2.0, 4.0]
    zs = [-0.25, -1.0, -2.0, -5.0, -10.0]
    worst = 0.0
    for beta in betas:
        for z in zs:
            val = variational_value(z, beta)
            target = phi_minus_scaled(beta, z)
            worst = max(worst, abs(val - target) / target)
    return worst <= 1e-6, {"max_rel_err": worst, "tolerance": 1e-6}


@_criterion(2, "rate-function asymptotics (cubic origin, 5/2 tail)", "deterministic", budget_s=5.0)
def criterion_2_rate_asymptotics(seed: int, fast: bool) -> tuple[bool, dict]:
    """Cubic behaviour at 0 and the 5/2-power tail of the rate function."""
    z_small = -1e-3
    cubic_ratio = phi_minus(z_small) / abs(z_small) ** 3
    cubic_ok = (1.0 / 12.0) * 0.99 <= cubic_ratio <= (1.0 / 12.0) * 1.01
    z_big = -1e3
    tail_ratio = phi_minus(z_big) * abs(z_big) ** -2.5
    tail_target = 4.0 / (15.0 * math.pi)
    tail_ok = abs(tail_ratio - tail_target) <= 0.05 * tail_target
    return cubic_ok and tail_ok, {"cubic_ratio": cubic_ratio, "cubic_target": 1.0 / 12.0,
                                  "tail_ratio": tail_ratio, "tail_target": tail_target}


@_criterion(3, "Fredholm determinant = point-process expectation", "mc", budget_s=600.0)
def criterion_3_fredholm_identity(seed: int, fast: bool) -> tuple[bool, dict]:
    """det(I - K_{s,t}) equals the Airy-point-process product expectation.

    The three (s, t) points share one batch of spectrum samples; each
    estimate is an unbiased 2000-sample (400 with fast) second-order
    control-variate Monte Carlo with its own stderr, reported beside the
    plain mean and the variance ratio.  The control variates cancel the
    spectra's one- and two-point functions from the estimate, so the two
    checks mean(Y) - E[Y] and mean((Y - E[Y])^2) - Var(Y), which test those
    functions through Y = log P, are gated too: each of the three must lie
    within 3 sigma at every point.
    At (2, 0.5) the factor tolerance is 1e-12: the 1e-15 cutoff would sit
    above any cap reachable on a length-40 domain, and the tail bias at
    1e-12 is ~1e-11, far below the Monte-Carlo error.
    """
    n_samples = 400 if fast else 2000
    cases = [(1.0, 1.0, 1e-15), (0.5, 1.0, 1e-15), (2.0, 0.5, 1e-12)]
    config = SaoConfig(beta=2.0, domain_l=40.0, grid_n=2 ** 14, lambda_cap=36.0)
    rows = determinant_vs_point_process(cases, config, n_samples, seed)
    measured = {}
    passed = True
    for (s, t, _), (det, est, sigma) in zip(cases, rows):
        measured[f"s={s},t={t}"] = {"det": det, "mc": est.mean, "stderr": est.stderr,
                                    "sigma_distance": sigma, **est.diagnostics()}
        passed &= sigma <= 3.0 and all(abs(gap.mean) <= 3.0 * gap.stderr
                                       for gap in (est.linear_gap, est.quadratic_gap))
    return passed, measured


@_criterion(4, "Riccati explosion counts vs matrix counts (+-1)", "mc", budget_s=300.0)
def criterion_4_riccati_matrix(seed: int, fast: bool) -> tuple[bool, dict]:
    """Explosion counts track matrix eigenvalue counts within +-1."""
    draws = 40 if fast else 200
    rng = spawn_rng(seed, "acceptance-riccati")
    sao_cfg = SaoConfig(beta=2.0, domain_l=15.0, grid_n=2 ** 14, lambda_cap=9.0)

    def hill_cfg():
        beta = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        j = int(rng.integers(0, 4))
        return HillConfig(j=j, xi=1.0, beta=beta, grid_n=2 ** 14, lambda_cap=160.0)

    measured = {"draws": draws}
    # every output depends on the draw order: the SAO half, then the Hill half,
    # each draw taking its config, its path and then lambda from one stream
    for name, config_of_draw, lam_range in [("sao", lambda: sao_cfg, (-2.0, 8.0)),
                                            ("hill", hill_cfg, (0.0, 150.0))]:
        agree = 0
        for _ in range(draws):
            cfg = config_of_draw()
            path = NoisePath.sample(rng, cfg.grid_n, cfg.h)
            lam = float(rng.uniform(*lam_range))
            rc = riccati_count_hill(lam, cfg, path)
            mc = hill_spectrum(cfg, path).count_below(lam)
            agree += abs(rc - mc) <= 1
        measured[f"{name}_agreement"] = agree / draws
    passed = measured["sao_agreement"] >= 0.95 and measured["hill_agreement"] >= 0.95
    return passed, measured


@_criterion(5, "periodic WKB inequality over random rough drifts", "deterministic", budget_s=120.0)
def criterion_5_wkb(seed: int, fast: bool) -> tuple[bool, dict]:
    """No violations of the constant-drift spectral inequality."""
    trials = 40 if fast else 200
    violations, max_gap = wkb_trials(spawn_rng(seed, "acceptance-wkb"), trials, grid_n=512)
    return violations == 0, {"trials": trials, "violations": violations, "max_gap": max_gap}


@_criterion(6, "localization sandwich (t=1, z=-1, beta=2, n=2)", "mc", budget_s=600.0)
def criterion_6_sandwich(seed: int, fast: bool) -> tuple[bool, dict]:
    """Localization sandwich at desk scale: lower <= middle <= upper."""
    n_samples = 2000 if fast else 10 ** 4
    params = DiscretizationParams(t=1.0, a=0.0, n=2)
    lower, middle, upper = sandwich_check(-1.0, 1.0, 2.0, params, n_samples, seed=seed)
    lo_ok = lower.mean <= middle.mean + 3.0 * math.hypot(lower.stderr, middle.stderr)
    up_ok = middle.mean <= upper.mean + 3.0 * math.hypot(middle.stderr, upper.stderr)
    return lo_ok and up_ok, {"lower": lower.mean, "lower_stderr": lower.stderr,
                             "middle": middle.mean, "middle_stderr": middle.stderr,
                             "upper": upper.mean, "upper_stderr": upper.stderr}


@_criterion(7, "LDP trend under importance sampling (t = 4, 8, 16)", "mc", budget_s=1800.0)
def criterion_7_ldp_trend(seed: int, fast: bool) -> tuple[bool, dict]:
    """Importance-sampled estimates approach -phi_minus(-1) as t grows.

    The exponent (1/t^2) log E rises toward its limit from below (Jensen
    pins the small-t value near the annealed constant -4/(15 pi), which
    lies below -phi_minus(-1)), so the trend is tested on the magnitudes:
    |estimate| must decrease toward phi_minus(-1) within combined errors,
    and the t=16 value must land within the 35% engineering band.
    """
    schedule = [(4.0, 4000), (8.0, 4000), (16.0, 6000)] if fast else \
               [(4.0, 60000), (8.0, 60000), (16.0, 60000)]
    target = -phi_minus(-1.0)
    ests = {}
    for t, n in schedule:
        ests[t] = ldp_estimate(-1.0, t, 2.0, a=0.0, n_samples=n, seed=seed,
                               grid_n=2048, use_importance=True)
    finite = all(math.isfinite(e.mean) for e in ests.values())
    e4, e8, e16 = ests[4.0], ests[8.0], ests[16.0]
    dec_48 = abs(e4.mean) > abs(e8.mean)
    dec_816 = abs(e8.mean) > abs(e16.mean)
    band = abs(e16.mean - target) <= 0.35 * abs(target)
    return finite and dec_48 and dec_816 and band, {
        "target": target,
        **{f"t={t}": {"mean": e.mean, "stderr": e.stderr} for t, e in ests.items()},
        "t16_rel_gap": abs(e16.mean - target) / abs(target)}


@_criterion(8, "linear statistic dual representation", "deterministic", budget_s=10.0)
def criterion_8_dual_representation(seed: int, fast: bool) -> tuple[bool, dict]:
    """Negative-part sum equals the integrated counting function."""
    rng = spawn_rng(seed, "acceptance-dual")
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(3, 40))
        ev = np.sort(rng.uniform(-5.0, 10.0, size))
        t = float(rng.uniform(0.5, 8.0))
        z = float(rng.uniform(-3.0, -0.1))
        cap = max(float(ev[-1]), -z * t ** (2.0 / 3.0)) + 1.0
        spec = SpectrumSample(eigenvalues=ev, cap=cap)
        direct = linear_statistic(spec, z, t)
        dual = counting_integral(spec, z, t)
        if direct != 0.0:
            worst = max(worst, abs(direct - dual) / abs(direct))
        else:
            worst = max(worst, abs(dual))
    return worst <= 1e-6, {"max_rel_err": worst}


@_criterion(9, "proxy function bounds and limits", "deterministic", budget_s=5.0)
def criterion_9_proxy_bounds(seed: int, fast: bool) -> tuple[bool, dict]:
    """Soft indicator and softplus proxies obey their elementary bounds."""
    rng = spawn_rng(seed, "acceptance-proxy")
    ok = True
    worst = 0.0
    eps = np.finfo(float).eps
    for _ in range(1000):
        a = float(rng.uniform(-5.0, 5.0))
        t = float(rng.uniform(0.1, 30.0))
        z = float(rng.uniform(-5.0, 5.0))
        # psi at s = e^{-tz}, lam = a t^{2/3}; the bound takes u as _factor_logs forms
        # it, since -t(z+a) differs from it by rounding the slack does not cover
        params = KernelParams(s=math.exp(-t * z), t=t)
        lam = a * t ** (2.0 / 3.0)
        psi = -float(_factor_logs(params, np.array([lam]))[0][0])
        u = math.log(params.s) - params.t13 * lam
        gap = abs(psi - max(u, 0.0))
        bound = math.exp(-abs(u))
        # subtracting u_+ from psi loses ~eps * |u| absolutely
        slack = 8.0 * eps * (1.0 + abs(u))
        worst = max(worst, gap - bound)
        ok &= gap <= bound + slack
    xs = np.linspace(-40.0, 6.0, 200)
    fs = np.array([proxy_f(float(x)) for x in xs])
    ok &= bool(np.all(np.diff(fs) <= 0.0))
    ok &= bool(abs(fs[0] - 1.0) <= 1e-15)
    ok &= bool(fs[-1] <= math.exp(-math.exp(5.0)))
    return ok, {"max_bound_excess": worst, "f_at_-40": float(fs[0]), "f_at_6": float(fs[-1])}


def run_report(seed: int = DEFAULT_SEED, skip: tuple = (), fast: bool = False) -> dict:
    """Run the full suite; returns a JSON-ready report."""
    results = []
    for fn, group in ALL_CRITERIA:
        if group in skip:
            continue
        result = fn(seed=seed, fast=fast)
        print(result.line(), file=sys.stderr, flush=True)
        results.append(result)
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "fast": fast,
        "all_passed": all(r.passed for r in results),
        "criteria": [
            {"id": r.cid, "label": r.label, "group": r.group, "passed": r.passed,
             "runtime_s": round(r.runtime_s, 2), "measured": r.measured}
            for r in results
        ],
    }
