"""Command line front end.

Subcommands: sweep runs the config's Monte-Carlo sweep to CSV; rip
evaluates isometry constants of a stored matrix; bounds prints guarantee
constants and bounds; recover runs msp, cmsp or mmv_sp on stored Y and Phi
as a batch of one problem through recover_batch. SNR is in dB, converted
once. Each parser's `least` default maps its integer flags to their least
values; main refuses a flag below its floor before any file is read. bounds
leaves --s-bar, --s-c and --t0-size to isometry_orders, which checks them
together.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from .analysis import (ENUMERATION_CAP, RipQuery, block_rip_exact,
                       block_rip_montecarlo, channel_recovery_bound,
                       cmsp_constants, isometry_orders, msp_constants,
                       msp_convergence_bound, msp_distortion_bound)
from .core import ChunkSupport, chunking, read_matrix, write_matrix
from .errors import ConfigError, CsPursuitError
from .experiments import _power, load_config, run_sweep, write_csv
from .pursuit import PRIOR_ALGORITHMS, PursuitConfig, StopReason, recover_batch
from .sparsity import PriorSupportInfo


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    if args.trials is not None:
        config = replace(config, n_trials=args.trials)
    rows = run_sweep(config)
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


_CHANNEL = ("chan_m", "chan_n_ue", "chan_t", "chan_p_db")

# per pursuit variant: the --delta-* dests, one per isometry_orders entry;
# the constants; the keys printed before the deltas; the dests it refuses
# (the channel bound exists for the modified pursuit only)
_VARIANTS = {
    False: (("delta_sbar", "delta_s1", "delta_s2"),
            lambda a, ds: msp_constants(*ds, a.s_bar, a.t0_size, a.s_c),
            ("c1", "c2", "c4", "s1", "s2", "valid"), ("overlap",)),
    True: (("delta_sbar", "delta_2sbar", "delta_2sbar_sc", "delta_3sbar_sc"),
           lambda a, ds: cmsp_constants(*ds, a.s_bar, a.s_c, a.t0_size,
                                        overlap=a.overlap),
           ("c5", "c6", "c7", "s3", "valid"), _CHANNEL),
}


def _require(args, bound: str, dests) -> None:
    """Raise ConfigError naming the flags of dests that bound needs and
    args leaves unset."""
    missing = [_flag(f) for f in dests if getattr(args, f) is None]
    if missing:
        raise ConfigError(f"{bound} needs {' '.join(missing)}")


def _cmd_bounds(args) -> int:
    flags, make_constants, keys, refused = _VARIANTS[args.conservative]
    noun = "conservative bounds" if args.conservative else "bounds"
    given = [_flag(f) for f in refused if getattr(args, f) is not None]
    if given:
        raise ConfigError(f"{noun} do not read {' '.join(given)}")
    # every bound flag given is read by a bound that has all it needs
    channel = any(getattr(args, f) is not None for f in _CHANNEL)
    if args.rho is not None:
        _require(args, "convergence bound", ("gamma", "eta"))
    elif args.eta is not None or (args.gamma is not None and not channel):
        _require(args, "distortion bound", ("gamma", "eta"))
    if channel:
        _require(args, "channel bound", _CHANNEL + ("gamma",))
    if args.matrix is not None:
        Phi = read_matrix(args.matrix)
        orders = isometry_orders(args.s_bar, args.s_c, args.t0_size,
                                 args.conservative)
        found = {k: block_rip_exact(Phi, RipQuery(k=k, d=args.d))
                 for k in sorted(set(orders))}
        deltas = [found[k] for k in orders]
    else:
        deltas = [getattr(args, flag) for flag in flags]
        if any(v is None for v in deltas):
            names = " ".join(map(_flag, flags))
            raise ConfigError(f"{noun} need --matrix or all of {names}")
    constants = make_constants(args, deltas)
    out: list[tuple[str, object]] = [(key, getattr(constants, key))
                                     for key in keys]
    out += [(f"delta_{label}", v) for label, v in constants.delta.items()]
    if args.eta is not None:
        out.append(("distortion_bound",
                    msp_distortion_bound(constants, args.gamma, args.eta)))
        if args.rho is not None:
            n_co = msp_convergence_bound(constants, args.gamma, args.eta,
                                         args.rho)
            out.append(("convergence_iterations", n_co))
            out.append(("convergence_iterations_ceil", math.ceil(n_co)))
    if channel:
        bound = channel_recovery_bound(
            constants.delta["s2"], constants.c4, args.gamma,
            args.chan_m, args.chan_n_ue, args.chan_t,
            _power("--chan-p-db", args.chan_p_db))
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
    try:
        t0_indices = [int(s) for s in args.t0.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--t0 takes chunk indices, got {args.t0!r}") from None
    if args.algorithm not in PRIOR_ALGORITHMS and (t0_indices or args.s_c):
        raise ConfigError(f"{args.algorithm} reads no prior: drop --t0 and --s-c")
    K = chunking(Phi, args.d).K
    prior = PriorSupportInfo(ChunkSupport.of(t0_indices, K), args.s_c)
    cfg = PursuitConfig(s_bar=args.s_bar, prior=prior, gamma=args.gamma,
                        d=args.d, max_iter=args.max_iter)
    (result,) = recover_batch(args.algorithm, [Y], [Phi], [cfg])
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

    p = sub.add_parser("sweep", help="run the config's sweep axis to CSV")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=None,
                   help="override base_seed")
    p.add_argument("--trials", type=int, default=None,
                   help="override n_trials")
    p.set_defaults(func=_cmd_sweep, least=dict(trials=1, seed=0))

    p = sub.add_parser("rip", help="isometry constant of a stored matrix")
    p.add_argument("--matrix", required=True, help="CSMAT1 matrix file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--montecarlo", type=int, default=None,
                   help="sample supports instead of enumerating")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    p.set_defaults(func=_cmd_rip,
                   least=dict(k=1, d=1, montecarlo=1, cap=1, seed=0))

    p = sub.add_parser("bounds", help="guarantee constants and bounds")
    p.add_argument("--s-bar", type=int, required=True)
    p.add_argument("--s-c", type=int, required=True)
    p.add_argument("--t0-size", type=int, required=True)
    p.add_argument("--conservative", action="store_true")
    p.add_argument("--matrix", default=None,
                   help="CSMAT1 matrix to enumerate deltas from")
    p.add_argument("--d", type=int, default=1)
    for dest in dict.fromkeys(f for flags, *_ in _VARIANTS.values() for f in flags):
        p.add_argument(_flag(dest), type=float, default=None)
    p.add_argument("--overlap", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--chan-m", type=int, default=None)
    p.add_argument("--chan-n-ue", type=int, default=None)
    p.add_argument("--chan-t", type=int, default=None)
    p.add_argument("--chan-p-db", type=float, default=None)
    p.set_defaults(func=_cmd_bounds, least=dict(d=1, overlap=0, chan_m=1,
                                                chan_n_ue=1, chan_t=1))

    p = sub.add_parser("recover", help="run one pursuit on stored matrices")
    p.add_argument("--y", required=True, help="CSMAT1 measurement matrix")
    p.add_argument("--phi", required=True, help="CSMAT1 sensing matrix")
    p.add_argument("--algorithm", required=True,
                   choices=PRIOR_ALGORITHMS + ("mmv_sp",))
    p.add_argument("--s-bar", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--s-c", type=int, default=0)
    p.add_argument("--t0", default="",
                   help="comma-separated prior chunk indices")
    p.add_argument("--max-iter", type=int, default=PursuitConfig.max_iter)
    p.add_argument("--out", default=None, help="write X_hat here (CSMAT1)")
    p.set_defaults(func=_cmd_recover,
                   least=dict(s_bar=1, s_c=0, max_iter=1, d=1))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest, least in args.least.items():
            value = getattr(args, dest)
            if value is not None and value < least:
                raise ConfigError(f"{_flag(dest)} must be at least {least}, got {value}")
        return args.func(args)
    except (CsPursuitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
