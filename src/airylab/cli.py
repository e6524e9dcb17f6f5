"""Command-line entry point wiring the modules into reproducible runs.

Every command records its seed in the output; identical (command, params,
seed) produce byte-identical files.  Exit codes: 0 success, 1 DomainError or
ConfigurationError, 2 resolution/convergence error, 64 usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import acceptance
from .errors import ConfigurationError, DomainError, ResolutionError
from .fredholm import KernelParams, determinant_vs_point_process, fredholm_det, kernel_grid
from .hill import Boundary, HillConfig, NoisePath, hill_spectrum, riccati_count_hill
from .mc import spawn_rng
from .rate import phi_minus, phi_minus_scaled
from .sao import (SaoConfig, ldp_estimate, riccati_count_sao, sample_path,
                  sandwich_check, sao_spectrum)
from .variational import DiscretizationParams, riemann_sum_value, variational_report
from .wkb import wkb_trials

SCHEMA_VERSION = 1

_EXIT_OK = 0
_EXIT_DOMAIN = 1
_EXIT_RESOLUTION = 2
_EXIT_USAGE = 64


@dataclass
class RunConfig:
    command: str
    params: dict
    seed: int = 0
    out_path: str | None = None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _json_dump(payload: dict) -> str:
    def default(obj):
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.bool_):
            return bool(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        raise TypeError(f"not serializable: {type(obj)!r}")
    return json.dumps(payload, sort_keys=True, indent=2, default=default) + "\n"


def _csv_dump(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(config: RunConfig, text: str) -> None:
    if config.out_path:
        with open(config.out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_rate_fn(config: RunConfig) -> tuple[int, str]:
    p = config.params
    zs = np.linspace(p["z_min"], p["z_max"], p["steps"])
    rows = [[float(z) + 0.0, phi_minus(float(z)), phi_minus_scaled(p["beta"], float(z))]
            for z in zs]  # + 0.0 normalizes the signed zero at the endpoint
    return _EXIT_OK, _csv_dump(["z", "phi", "phi_scaled"], rows)


def _cmd_variational(config: RunConfig) -> tuple[int, str]:
    p = config.params
    report = variational_report(p["z"], p["beta"])
    payload = {"schema_version": SCHEMA_VERSION, "seed": config.seed, **report}
    if p.get("t") is not None:
        params = DiscretizationParams.from_deviation(p["z"], p["t"], p.get("a", 0.0))
        payload["riemann_sum"] = riemann_sum_value(p["z"], p["beta"], params)
        payload["n_levels"] = params.n
    return _EXIT_OK, _json_dump(payload)


def _cmd_hill(config: RunConfig) -> tuple[int, str]:
    p = config.params
    boundary = Boundary(p["boundary"])
    cfg = HillConfig(j=p["j"], xi=p["xi"], beta=p["beta"], boundary=boundary,
                     grid_n=p["grid_n"], lambda_cap=p["lambda_cap"])
    rng = spawn_rng(config.seed, "hill")
    path = NoisePath.sample(rng, cfg.grid_n, cfg.h, seed=config.seed)
    if p.get("lam") is not None:
        count = riccati_count_hill(p["lam"], cfg, path)
        payload = {"schema_version": SCHEMA_VERSION, "seed": config.seed,
                   "lambda": p["lam"], "riccati_count": count}
        return _EXIT_OK, _json_dump(payload)
    spec = hill_spectrum(cfg, path)
    rows = [[i, float(ev)] for i, ev in enumerate(spec.eigenvalues, start=1)]
    return _EXIT_OK, _csv_dump(["index", "eigenvalue"], rows)


def _cmd_sao(config: RunConfig) -> tuple[int, str]:
    p = config.params
    sub = p["subcommand"]
    if sub == "spectrum":
        cfg = SaoConfig(beta=p["beta"], domain_l=p["domain_l"], grid_n=p["grid_n"],
                        lambda_cap=p["lambda_cap"])
        path = sample_path(cfg, spawn_rng(config.seed, "sao-spectrum"))
        spec = sao_spectrum(cfg, path)
        rows = [[i, float(ev)] for i, ev in enumerate(spec.eigenvalues, start=1)]
        return _EXIT_OK, _csv_dump(["index", "eigenvalue"], rows)
    if sub == "count":
        cfg = SaoConfig(beta=p["beta"], domain_l=p["domain_l"], grid_n=p["grid_n"],
                        lambda_cap=p["lambda_cap"])
        path = sample_path(cfg, spawn_rng(config.seed, "sao-count"))
        payload = {"schema_version": SCHEMA_VERSION, "seed": config.seed,
                   "lambda": p["lam"],
                   "riccati_count": riccati_count_sao(p["lam"], cfg, path)}
        return _EXIT_OK, _json_dump(payload)
    if sub == "sandwich":
        params = DiscretizationParams(t=p["t"], a=p["a"], n=p["n_levels"]) \
            if p.get("n_levels") else DiscretizationParams.from_deviation(p["z"], p["t"], p["a"])
        lower, middle, upper = sandwich_check(p["z"], p["t"], p["beta"], params,
                                              p["samples"], seed=config.seed)
        payload = {"schema_version": SCHEMA_VERSION, "seed": config.seed,
                   "n_levels": params.n}
        for name, est in [("lower", lower), ("middle", middle), ("upper", upper)]:
            payload[name] = {"mean": est.mean, "stderr": est.stderr,
                             "samples": est.n_samples, "seed": int(est.seed)}
        return _EXIT_OK, _json_dump(payload)
    if sub == "ldp":
        est = ldp_estimate(p["z"], p["t"], p["beta"], a=p["a"], n_samples=p["samples"],
                           seed=config.seed, grid_n=p["grid_n"],
                           use_importance=p["importance"])
        payload = {"schema_version": SCHEMA_VERSION, "seed": config.seed,
                   "mean": est.mean, "stderr": est.stderr, "samples": est.n_samples,
                   "target": -phi_minus_scaled(p["beta"], p["z"]),
                   "importance": p["importance"]}
        return _EXIT_OK, _json_dump(payload)
    raise DomainError(f"unknown sao subcommand {sub!r}")


def _cmd_fredholm(config: RunConfig) -> tuple[int, str]:
    p = config.params
    payload = {"schema_version": SCHEMA_VERSION, "seed": config.seed, "s": p["s"], "t": p["t"]}
    if p.get("compare"):
        cfg = SaoConfig(beta=2.0, domain_l=p["domain_l"], grid_n=p["sao_grid_n"],
                        lambda_cap=p["lambda_cap"])
        [(det, est, sigma)] = determinant_vs_point_process(
            [(p["s"], p["t"], p["factor_tol"])], cfg, p["samples"], config.seed,
            n_nodes=p["grid_nodes"], x_max=p["x_max"])
        payload.update({"mc_mean": est.mean, "mc_stderr": est.stderr,
                        "mc_samples": est.n_samples, "sigma_distance": sigma})
    else:
        params = KernelParams(s=p["s"], t=p["t"])
        det = fredholm_det(params, kernel_grid(params, n_nodes=p["grid_nodes"], x_max=p["x_max"]))
    payload.update({"det": det, "log_det": math.log(det)})
    return _EXIT_OK, _json_dump(payload)


def _cmd_wkb(config: RunConfig) -> tuple[int, str]:
    p = config.params
    violations, max_gap = wkb_trials(spawn_rng(config.seed, "wkb"), p["trials"], p["grid_n"])
    payload = {"schema_version": SCHEMA_VERSION, "seed": config.seed,
               "trials": p["trials"], "violations": violations, "max_gap": max_gap}
    return _EXIT_OK, _json_dump(payload)


def _cmd_report(config: RunConfig) -> tuple[int, str]:
    p = config.params
    report = acceptance.run_report(seed=config.seed, skip=p.get("skip") or (),
                                   fast=p.get("fast", False))
    code = _EXIT_OK if report["all_passed"] else _EXIT_RESOLUTION
    return code, _json_dump(report)


_DISPATCH = {
    "rate-fn": _cmd_rate_fn,
    "variational": _cmd_variational,
    "hill": _cmd_hill,
    "sao": _cmd_sao,
    "fredholm": _cmd_fredholm,
    "wkb": _cmd_wkb,
    "report": _cmd_report,
}


def run(config: RunConfig) -> tuple[int, str]:
    """Dispatch a RunConfig; returns (exit code, serialized report)."""
    handler = _DISPATCH.get(config.command)
    if handler is None:
        raise DomainError(f"unknown command {config.command!r}")
    return handler(config)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="airylab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", dest="out_path", default=None)

    sp = sub.add_parser("rate-fn", help="rate function sweep (CSV)")
    sp.add_argument("--z-min", type=float, required=True)
    sp.add_argument("--z-max", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--beta", type=float, default=2.0)
    add_common(sp)

    sp = sub.add_parser("variational", help="drift variational identity (JSON)")
    sp.add_argument("--z", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--t", type=float, default=None)
    sp.add_argument("--a", type=float, default=0.0)
    add_common(sp)

    sp = sub.add_parser("hill", help="Hill spectrum (CSV) or Riccati count (JSON)")
    sp.add_argument("--j", type=int, default=0)
    sp.add_argument("--xi", type=float, default=1.0)
    sp.add_argument("--beta", type=float, default=2.0)
    sp.add_argument("--boundary", choices=["dirichlet", "periodic"], default="dirichlet")
    sp.add_argument("--grid-n", type=int, default=1024)
    sp.add_argument("--lambda-cap", type=float, default=200.0)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    add_common(sp)

    sp = sub.add_parser("sao", help="stochastic Airy operator experiments")
    sp.add_argument("subcommand", choices=["spectrum", "count", "sandwich", "ldp"])
    sp.add_argument("--beta", type=float, default=2.0)
    sp.add_argument("--z", type=float, default=-1.0)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--a", type=float, default=0.0)
    sp.add_argument("--grid-n", type=int, default=2048)
    sp.add_argument("--domain-l", type=float, default=12.0)
    sp.add_argument("--lambda-cap", type=float, default=5.0)
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--n-levels", type=int, default=None)
    sp.add_argument("--importance", action="store_true")
    add_common(sp)

    sp = sub.add_parser("fredholm", help="Fredholm determinant, optional MC cross-check")
    sp.add_argument("compare", nargs="?", choices=["compare"], default=None)
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--grid-n", dest="grid_nodes", type=int, default=96,
                    help="Nystrom node count")
    sp.add_argument("--xmax", dest="x_max", type=float, default=16.0)
    sp.add_argument("--samples", type=int, default=2000)
    sp.add_argument("--sao-grid-n", dest="sao_grid_n", type=int, default=2 ** 14)
    sp.add_argument("--domain-l", type=float, default=40.0)
    sp.add_argument("--lambda-cap", type=float, default=36.0)
    sp.add_argument("--factor-tol", type=float, default=1e-12)
    add_common(sp)

    sp = sub.add_parser("wkb", help="randomized WKB inequality report (JSON)")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--grid-n", type=int, default=512)
    add_common(sp)

    sp = sub.add_parser("report", help="run the acceptance suite")
    sp.add_argument("--skip", action="append", default=None,
                    help="skip a criterion group (e.g. 'mc')")
    sp.add_argument("--fast", action="store_true",
                    help="reduced sample counts for a quick look")
    sp.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    sp.add_argument("--out", dest="out_path", default=None)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    params = {k: v for k, v in vars(args).items()
              if k not in {"command", "seed", "out_path"}}
    if args.command == "fredholm":
        params["compare"] = params.get("compare") == "compare"
    return RunConfig(command=args.command, params=params,
                     seed=args.seed, out_path=args.out_path)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(args)
    try:
        code, text = run(config)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except ConfigurationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except ResolutionError as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        return _EXIT_RESOLUTION
    _emit(config, text)
    return code


if __name__ == "__main__":
    sys.exit(main())
