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

import numpy as np

from . import acceptance
from .acceptance import SCHEMA_VERSION
from .errors import ConfigurationError, DomainError, ResolutionError
from .fredholm import KernelParams, determinant_vs_point_process, fredholm_det, kernel_grid
from .hill import Boundary, HillConfig, NoisePath, hill_spectrum, riccati_count_hill
from .mc import spawn_rng
from .rate import phi_minus, phi_minus_scaled
from .sao import SaoConfig, ldp_estimate, sandwich_check
from .variational import DiscretizationParams, riemann_sum_value, variational_report
from .wkb import wkb_trials

_EXIT_OK = 0
_EXIT_DOMAIN = 1
_EXIT_RESOLUTION = 2
_EXIT_USAGE = 64


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


def _header(args: argparse.Namespace) -> dict:
    return {"schema_version": SCHEMA_VERSION, "seed": args.seed}


def _cmd_rate_fn(args: argparse.Namespace) -> tuple[int, str]:
    if args.steps < 0:
        raise DomainError(f"--steps must be at least 0, got {args.steps}")
    zs = np.linspace(args.z_min, args.z_max, args.steps)
    rows = [[float(z) + 0.0, phi_minus(float(z)), phi_minus_scaled(args.beta, float(z))]
            for z in zs]  # + 0.0 normalizes the signed zero at the endpoint
    return _EXIT_OK, _csv_dump(["z", "phi", "phi_scaled"], rows)


def _cmd_variational(args: argparse.Namespace) -> tuple[int, str]:
    payload = {**_header(args), **variational_report(args.z, args.beta)}
    if args.t is not None:
        params = DiscretizationParams.from_deviation(args.z, args.t, args.a)
        payload["riemann_sum"] = riemann_sum_value(args.z, args.beta, params)
        payload["n_levels"] = params.n
    return _EXIT_OK, _json_dump(payload)


def _spectrum_or_count(args: argparse.Namespace, config: HillConfig | SaoConfig,
                       stream: str, lam: float | None) -> tuple[int, str]:
    """Spectrum CSV of one path from the stream, or with lam its Riccati count JSON."""
    path = NoisePath.sample(spawn_rng(args.seed, stream), config.grid_n, config.h)
    if lam is None:
        spectrum = hill_spectrum(config, path)
        rows = [[i, float(ev)] for i, ev in enumerate(spectrum.eigenvalues, start=1)]
        return _EXIT_OK, _csv_dump(["index", "eigenvalue"], rows)
    payload = {**_header(args), "lambda": lam,
               "riccati_count": riccati_count_hill(lam, config, path)}
    return _EXIT_OK, _json_dump(payload)


def _cmd_hill(args: argparse.Namespace) -> tuple[int, str]:
    config = HillConfig(j=args.j, xi=args.xi, beta=args.beta, boundary=Boundary(args.boundary),
                        grid_n=args.grid_n, lambda_cap=args.lambda_cap)
    return _spectrum_or_count(args, config, "hill", args.lam)


def _cmd_sao(args: argparse.Namespace) -> tuple[int, str]:
    sub = args.subcommand
    if sub in ("spectrum", "count"):
        config = SaoConfig(beta=args.beta, domain_l=args.domain_l, grid_n=args.grid_n,
                           lambda_cap=args.lambda_cap)
        lam = args.lam if sub == "count" else None
        return _spectrum_or_count(args, config, f"sao-{sub}", lam)
    if sub == "sandwich":
        params = (DiscretizationParams(t=args.t, a=args.a, n=args.n_levels)
                  if args.n_levels is not None
                  else DiscretizationParams.from_deviation(args.z, args.t, args.a))
        lower, middle, upper = sandwich_check(args.z, args.t, args.beta, params,
                                              args.samples, seed=args.seed)
        payload = {**_header(args), "n_levels": params.n}
        for name, est in [("lower", lower), ("middle", middle), ("upper", upper)]:
            payload[name] = {"mean": est.mean, "stderr": est.stderr,
                             "samples": est.n_samples, "seed": int(est.seed)}
        return _EXIT_OK, _json_dump(payload)
    est = ldp_estimate(args.z, args.t, args.beta, a=args.a, n_samples=args.samples,
                       seed=args.seed, grid_n=args.grid_n, use_importance=args.importance)
    if est.ess < 0.05 * est.n_samples:  # a few samples carry the mean and its stderr
        print(f"warning: effective sample size {est.ess:.3g} of {est.n_samples} samples, "
              f"largest weight share {est.max_weight_share:.2g}", file=sys.stderr)
    payload = {**_header(args), "mean": est.mean, "stderr": est.stderr,
               "samples": est.n_samples, "target": -phi_minus_scaled(args.beta, args.z),
               "importance": args.importance}
    return _EXIT_OK, _json_dump(payload)


def _cmd_fredholm(args: argparse.Namespace) -> tuple[int, str]:
    payload = {**_header(args), "s": args.s, "t": args.t}
    if args.compare:
        cfg = SaoConfig(beta=2.0, domain_l=args.domain_l, grid_n=args.sao_grid_n,
                        lambda_cap=args.lambda_cap)
        [(det, est, sigma)] = determinant_vs_point_process(
            [(args.s, args.t, args.factor_tol)], cfg, args.samples, args.seed,
            n_nodes=args.grid_nodes, x_max=args.x_max)
        payload.update({"mc_mean": est.mean, "mc_stderr": est.stderr,
                        "mc_samples": est.n_samples, "sigma_distance": sigma,
                        **est.diagnostics()})
    else:
        params = KernelParams(s=args.s, t=args.t)
        det = fredholm_det(params, kernel_grid(params, n_nodes=args.grid_nodes, x_max=args.x_max))
    payload.update({"det": det, "log_det": math.log(det)})
    return _EXIT_OK, _json_dump(payload)


def _cmd_wkb(args: argparse.Namespace) -> tuple[int, str]:
    violations, max_gap = wkb_trials(spawn_rng(args.seed, "wkb"), args.trials, args.grid_n)
    payload = {**_header(args), "trials": args.trials, "violations": violations,
               "max_gap": max_gap}
    return _EXIT_OK, _json_dump(payload)


def _cmd_report(args: argparse.Namespace) -> tuple[int, str]:
    report = acceptance.run_report(seed=args.seed, skip=args.skip or (), fast=args.fast)
    return _EXIT_OK if report["all_passed"] else _EXIT_RESOLUTION, _json_dump(report)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="airylab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, handler, seed=0):
        sp.add_argument("--seed", type=int, default=seed)
        sp.add_argument("--out", dest="out_path", default=None)
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("rate-fn", help="rate function sweep (CSV)")
    sp.add_argument("--z-min", type=float, required=True)
    sp.add_argument("--z-max", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--beta", type=float, default=2.0)
    add_common(sp, _cmd_rate_fn)

    sp = sub.add_parser("variational", help="drift variational identity (JSON)")
    sp.add_argument("--z", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--t", type=float, default=None)
    sp.add_argument("--a", type=float, default=0.0)
    add_common(sp, _cmd_variational)

    sp = sub.add_parser("hill", help="Hill spectrum (CSV) or Riccati count (JSON)")
    sp.add_argument("--j", type=int, default=0)
    sp.add_argument("--xi", type=float, default=1.0)
    sp.add_argument("--beta", type=float, default=2.0)
    sp.add_argument("--boundary", choices=["dirichlet", "periodic"], default="dirichlet")
    sp.add_argument("--grid-n", type=int, default=1024)
    sp.add_argument("--lambda-cap", type=float, default=200.0)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    add_common(sp, _cmd_hill)

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
    add_common(sp, _cmd_sao)

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
    add_common(sp, _cmd_fredholm)

    sp = sub.add_parser("wkb", help="randomized WKB inequality report (JSON)")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--grid-n", type=int, default=512)
    add_common(sp, _cmd_wkb)

    sp = sub.add_parser("report", help="run the acceptance suite")
    sp.add_argument("--skip", action="append", default=None,
                    help="skip a criterion group (e.g. 'mc')")
    sp.add_argument("--fast", action="store_true",
                    help="reduced sample counts for a quick look")
    add_common(sp, _cmd_report, seed=acceptance.DEFAULT_SEED)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, text = args.handler(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except ConfigurationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except ResolutionError as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        return _EXIT_RESOLUTION
    if args.out_path:
        with open(args.out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
