"""Command-line entry points.

Subcommands:
  order-exp     data-order experiment (|f(w) - f(v)| vs rate constant)
  strategy-cmp  five-strategy comparison over a noise sweep
  c2-sweep      final objective vs the second-phase rate
  select-rates  print the chosen order and rates as JSON
  noise-level   print the noise level for given epsilon/sigma/d/batch

Every subcommand takes ``--log-level``; without it logging is left unconfigured.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import sys
from typing import Optional

from . import experiments
from .experiments import ExperimentConfig
from .oracles import dp_noise_level, rcn_noise_level
from .rates import select_rates


# Subcommand -> its runner in hetsgd.experiments, looked up there at call time
# so that a wrapper set on that module (perfbench's tracer sets one) is called.
EXPERIMENTS = {"order-exp": "run_order_experiment",
               "strategy-cmp": "run_strategy_comparison",
               "c2-sweep": "run_c2_sweep"}


LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def _configure_logging(level: Optional[str]) -> None:
    """Log the package's records at ``level`` and above to stderr; None leaves logging as it is."""
    if level is not None:
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger("hetsgd").setLevel(level.upper())


def _add_experiment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    p.add_argument("--out-dir", default=None, help="override output directory")
    p.add_argument("--trials", type=int, default=None, help="override trial count")


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file with the command line's overrides, checked again as a whole."""
    overrides = {"master_seed": args.seed, "out_dir": args.out_dir, "trials": args.trials}
    return dataclasses.replace(ExperimentConfig.from_json(args.config),
                               **{k: v for k, v in overrides.items() if v is not None})


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process; each parse gets a fresh namespace."""
    parser = argparse.ArgumentParser(prog="hetsgd",
                                     description="SGD with heterogeneous-noise gradient oracles")
    sub = parser.add_subparsers(dest="command", required=True)
    # Every subcommand takes --log-level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-level", choices=LOG_LEVELS, default=None,
                        help="log the package's records at this level and above to stderr "
                             "(default: logging left unconfigured)")

    def add(name: str, **kw) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], **kw)

    for name in EXPERIMENTS:
        _add_experiment_args(add(name))

    p = add("select-rates", help="order and rate selection from noise levels")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--beta-c", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma-c-sq", type=float)
    group.add_argument("--epsilon-clean", type=float)
    p.add_argument("--gamma-n-sq", type=float)
    p.add_argument("--epsilon-noisy", type=float)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None, help="default 1")

    p = add("noise-level", help="second-moment bound for one oracle")
    p.add_argument("--kind", choices=("dp", "rcn"), required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None, help="default 1")
    return parser


def _unused(args: argparse.Namespace, mode: str, *names: str) -> None:
    """Exit naming the first flag of ``names`` (as attributes) given, which ``mode`` does not read."""
    for name in names:
        if getattr(args, name) is not None:
            raise SystemExit(f"--{name.replace('_', '-')} does not apply with {mode}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.log_level)

    if args.command in EXPERIMENTS:
        getattr(experiments, EXPERIMENTS[args.command])(_load_config(args))
        return 0

    batch_size = 1 if args.batch_size is None else args.batch_size
    if args.command == "select-rates":
        if args.gamma_c_sq is not None:
            _unused(args, "--gamma-c-sq", "epsilon_noisy", "dim", "batch_size")
            if args.gamma_n_sq is None:
                raise SystemExit("--gamma-n-sq required with --gamma-c-sq")
            gc, gn = args.gamma_c_sq, args.gamma_n_sq
        else:
            _unused(args, "--epsilon-clean", "gamma_n_sq")
            if args.epsilon_noisy is None or args.dim is None:
                raise SystemExit("--epsilon-noisy and --dim required with --epsilon-clean")
            gc = dp_noise_level(args.epsilon_clean, args.dim, batch_size).gamma_sq
            gn = dp_noise_level(args.epsilon_noisy, args.dim, batch_size).gamma_sq
        sel = select_rates(gc, gn, args.beta_c, args.lam)
        print(json.dumps(sel.to_dict(), indent=2, sort_keys=True))
        return 0

    if args.command == "noise-level":
        if args.kind == "dp":
            _unused(args, "--kind dp", "sigma")
            if args.epsilon is None or args.dim is None:
                raise SystemExit("--epsilon and --dim required for kind=dp")
            level = dp_noise_level(args.epsilon, args.dim, batch_size)
        else:
            _unused(args, "--kind rcn", "epsilon", "dim", "batch_size")
            if args.sigma is None:
                raise SystemExit("--sigma required for kind=rcn")
            level = rcn_noise_level(args.sigma)
        print(json.dumps({"gamma_sq": level.gamma_sq,
                          "gamma_sq_lower": level.gamma_sq_lower}, indent=2, sort_keys=True))
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
