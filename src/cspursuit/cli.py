"""Command line front end.

Subcommands: sweep and mismatch run config-driven Monte-Carlo experiments
to CSV; rip evaluates isometry constants of a stored matrix; bounds prints
guarantee constants and bounds; recover runs one pursuit on stored Y and
Phi matrices. SNR is taken in dB here and converted once.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from .analysis import (RipQuery, block_rip_exact, block_rip_montecarlo,
                       channel_recovery_bound, cmsp_constants,
                       cmsp_convergence_bound, cmsp_distortion_bound,
                       msp_constants, msp_convergence_bound,
                       msp_distortion_bound)
from .core import ChunkSupport, read_matrix, write_matrix
from .errors import ConfigError, CsPursuitError
from .experiments import load_config, run_mismatch, run_sweep, write_csv
from .pursuit import (PursuitConfig, StopReason, cmsp_recover, mmv_sp_recover,
                      msp_recover)
from .sparsity import PriorSupportInfo


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    if args.trials is not None:
        config = replace(config, n_trials=args.trials)
    runner = run_mismatch if args.mismatch else run_sweep
    rows = runner(config)
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_rip(args) -> int:
    Phi = read_matrix(args.matrix)
    q = RipQuery(k=args.k, d=args.d)
    if args.montecarlo is not None:
        rng = np.random.default_rng(args.seed)
        delta = block_rip_montecarlo(Phi, q, args.montecarlo, rng)
        method = f"montecarlo:{args.montecarlo}"
    else:
        delta = block_rip_exact(Phi, q, cap=args.cap)
        method = "exact"
    print(f"k={args.k}")
    print(f"d={args.d}")
    print(f"method={method}")
    print(f"delta={delta:.12g}")
    return 0


# per pursuit variant: the --delta-* dests, one per isometry order; the
# orders; the constants; the keys printed before the deltas; the bounds
_VARIANTS = {
    False: (("delta_sbar", "delta_s1", "delta_s2"),
            lambda a: (a.s_bar, 2 * a.s_bar + min(0, a.t0_size - 2 * a.s_c),
                       3 * a.s_bar + min(0, a.t0_size - 3 * a.s_c)),
            lambda a, ds: msp_constants(*ds, a.s_bar, a.t0_size, a.s_c),
            ("c1", "c2", "c4", "s1", "s2", "valid"),
            msp_distortion_bound, msp_convergence_bound),
    True: (("delta_sbar", "delta_2sbar", "delta_2sbar_sc", "delta_3sbar_sc"),
           lambda a: (a.s_bar, 2 * a.s_bar, 2 * a.s_bar + a.s_c,
                      3 * a.s_bar + a.s_c),
           lambda a, ds: cmsp_constants(*ds, a.s_bar, a.s_c, a.t0_size,
                                        overlap=a.overlap),
           ("c5", "c6", "c7", "s3", "valid"),
           cmsp_distortion_bound, cmsp_convergence_bound),
}


def _cmd_bounds(args) -> int:
    flags, orders, make_constants, keys, distortion, convergence = \
        _VARIANTS[args.conservative]
    if args.matrix is not None:
        Phi = read_matrix(args.matrix)
        found = {k: block_rip_exact(Phi, RipQuery(k=k, d=args.d))
                 for k in sorted(set(orders(args)))}
        deltas = [found[k] for k in orders(args)]
    else:
        deltas = [getattr(args, flag) for flag in flags]
        if any(v is None for v in deltas):
            noun = "conservative bounds" if args.conservative else "bounds"
            names = " ".join("--" + f.replace("_", "-") for f in flags)
            raise ConfigError(f"{noun} need --matrix or all of {names}")
    constants = make_constants(args, deltas)
    out: list[tuple[str, object]] = [(key, getattr(constants, key))
                                     for key in keys]
    out += [(f"delta_{label}", v) for label, v in constants.delta.items()]
    if args.gamma is not None and args.eta is not None:
        out.append(("distortion_bound",
                    distortion(constants, args.gamma, args.eta)))
        if args.rho is not None:
            n_co = convergence(constants, args.gamma, args.eta, args.rho)
            out.append(("convergence_iterations", n_co))
            out.append(("convergence_iterations_ceil", math.ceil(n_co)))
    # the channel bound exists for the modified pursuit only
    if args.chan_m is not None and not args.conservative:
        missing = [name for name, v in (("--chan-n-ue", args.chan_n_ue),
                                        ("--chan-t", args.chan_t),
                                        ("--chan-p-db", args.chan_p_db))
                   if v is None]
        if missing:
            raise ConfigError(f"channel bound needs {' '.join(missing)}")
        bound = channel_recovery_bound(
            constants.delta["s2"], constants.c4,
            args.gamma if args.gamma is not None else 0.0,
            args.chan_m, args.chan_n_ue, args.chan_t,
            10.0 ** (args.chan_p_db / 10.0))
        out.append(("channel_bound", bound))

    for key, value in out:
        if isinstance(value, bool):
            print(f"{key}={int(value)}")
        elif isinstance(value, float):
            print(f"{key}={value:.12g}")
        else:
            print(f"{key}={value}")
    return 0


def _cmd_recover(args) -> int:
    Y = read_matrix(args.y)
    Phi = read_matrix(args.phi)
    if args.algorithm in ("sp", "mmv_sp"):
        d = 1 if args.algorithm == "sp" else args.d  # sp is mmv_sp at d=1
        result = mmv_sp_recover(Y, Phi, args.s_bar, args.gamma, d=d,
                                max_iter=args.max_iter)
    else:
        K = Phi.shape[1] // args.d
        t0_indices = []
        if args.t0:
            t0_indices = [int(s) for s in args.t0.split(",") if s.strip()]
        prior = PriorSupportInfo(ChunkSupport.of(t0_indices, K), args.s_c)
        cfg = PursuitConfig(s_bar=args.s_bar, prior=prior, gamma=args.gamma,
                            d=args.d, max_iter=args.max_iter)
        solver = cmsp_recover if args.algorithm == "cmsp" else msp_recover
        result = solver(Y, Phi, cfg)
    returned_residue = (result.residue_norms[-2]
                        if result.stop_reason is StopReason.RESIDUE_NON_DECREASING
                        else result.residue_norms[-1])
    print(f"support={','.join(str(k) for k in result.T_hat)}")
    print(f"iterations={result.iterations}")
    print(f"stop_reason={result.stop_reason.value}")
    print(f"residue={returned_residue:.12g}")
    print(f"rank_deficient_ls={int(result.rank_deficient_ls)}")
    if args.out:
        write_matrix(args.out, result.X_hat.data)
        print(f"wrote estimate to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cspursuit",
        description="Chunk-sparse recovery with prior support information")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, mismatch in (("sweep", False), ("mismatch", True)):
        p = sub.add_parser(name, help=f"run a {name} experiment to CSV")
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--seed", type=int, default=None,
                       help="override base_seed")
        p.add_argument("--trials", type=int, default=None,
                       help="override n_trials")
        p.set_defaults(func=_cmd_sweep, mismatch=mismatch)

    p = sub.add_parser("rip", help="isometry constant of a stored matrix")
    p.add_argument("--matrix", required=True, help="CSMAT1 matrix file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--montecarlo", type=int, default=None,
                   help="sample supports instead of enumerating")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=2_000_000)
    p.set_defaults(func=_cmd_rip)

    p = sub.add_parser("bounds", help="guarantee constants and bounds")
    p.add_argument("--s-bar", type=int, required=True)
    p.add_argument("--s-c", type=int, required=True)
    p.add_argument("--t0-size", type=int, required=True)
    p.add_argument("--conservative", action="store_true")
    p.add_argument("--matrix", default=None,
                   help="CSMAT1 matrix to enumerate deltas from")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--delta-sbar", type=float, default=None)
    p.add_argument("--delta-s1", type=float, default=None)
    p.add_argument("--delta-s2", type=float, default=None)
    p.add_argument("--delta-2sbar", type=float, default=None)
    p.add_argument("--delta-2sbar-sc", type=float, default=None)
    p.add_argument("--delta-3sbar-sc", type=float, default=None)
    p.add_argument("--overlap", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--chan-m", type=int, default=None)
    p.add_argument("--chan-n-ue", type=int, default=None)
    p.add_argument("--chan-t", type=int, default=None)
    p.add_argument("--chan-p-db", type=float, default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("recover", help="run one pursuit on stored matrices")
    p.add_argument("--y", required=True, help="CSMAT1 measurement matrix")
    p.add_argument("--phi", required=True, help="CSMAT1 sensing matrix")
    p.add_argument("--algorithm", required=True,
                   choices=("msp", "cmsp", "sp", "mmv_sp"))
    p.add_argument("--s-bar", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--s-c", type=int, default=0)
    p.add_argument("--t0", default="",
                   help="comma-separated prior chunk indices")
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--out", default=None, help="write X_hat here (CSMAT1)")
    p.set_defaults(func=_cmd_recover)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CsPursuitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
