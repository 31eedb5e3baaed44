"""Command-line entry point.

Subcommands: benchmark | sweep-sampling | fed-vs-central | gen-synthetic.
Exit codes: 0 ok, 1 config error, 2 data error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import experiments
from .data import PARTITION_SCHEMES
from .errors import ConfigError, DataError


class _Parser(argparse.ArgumentParser):
    """A bad flag is a config error (exit 1), as the same value in --config
    is; subparsers inherit this class. A flag must be spelled in full, so
    gen-synthetic's --output is not also reachable as --out. An unknown flag
    is refused by the parser that read it, so a subcommand's error prints
    that subcommand's usage line."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"config error: {message}", file=sys.stderr)
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fedfraud",
        description="Simulated federated training of fraud classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Every command takes --config and --seed; the three that train also
    # read --data and write their reports to --out.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--seed", type=int, help="master random seed")
    trains = argparse.ArgumentParser(add_help=False, parents=[common])
    trains.add_argument("--data", help="input CSV path (default: synthetic data)")
    trains.add_argument("--out", help="output directory for report files")

    p = sub.add_parser("benchmark", parents=[trains],
                       help="train LR, DT, centralized MLP, and federated MLP "
                            "on one shared split and report AUC/PR/RE/F1/ACC")
    p.add_argument("--ratio", help="fraud:legit resampling ratio, e.g. 1:1")

    p = sub.add_parser("sweep-sampling", parents=[trains],
                       help="AUC vs sample count for each resampling ratio")
    p.add_argument("--repeats", type=int, dest="sweep_repeats",
                   help="seed repetitions per grid cell")

    p = sub.add_parser("fed-vs-central", parents=[trains],
                       help="same MLP trained centrally and federatedly; "
                            "per-round series plus final metric deltas")
    p.add_argument("--scheme", choices=PARTITION_SCHEMES, dest="partition_scheme",
                   help="client partition scheme")

    p = sub.add_parser("gen-synthetic", parents=[common],
                       help="emit a synthetic imbalanced CSV in the ingestion schema")
    p.add_argument("--n", type=int, dest="synthetic_n", help="number of rows")
    p.add_argument("--fraud-fraction", type=float, dest="synthetic_fraud_fraction",
                   help="expected fraud fraction")
    p.add_argument("--separation", type=float, dest="synthetic_separation",
                   help="class cluster separation")
    p.add_argument("--features", type=int, dest="synthetic_features",
                   help="feature count")
    p.add_argument("--output", required=True, help="CSV file to write")

    return parser


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where processes cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def main(argv=None) -> int:
    """Run one command. Without argv this is the program (`fedfraud` or
    `python -m fedfraud.cli`), and the training commands train in one
    forked worker per usable CPU: sweep-sampling its grid points, benchmark
    and fed-vs-central their models. A call from Python with argv runs
    everything in the calling process: the package forks no process it
    does not own."""
    workers = _usable_cpus() if argv is None else 1
    args = build_parser().parse_args(argv)
    # Every other flag's dest is the config field it overrides.
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config", "output")}
    start = time.perf_counter()
    try:
        if overrides.get("ratio") is not None:
            overrides["ratio"] = experiments.parse_ratio(overrides["ratio"])
        cfg = experiments.load_config(args.config, overrides)
        if args.command == "benchmark":
            rows = experiments.run_benchmark(cfg, workers)
            for row in rows:
                print(f"{row['model']:>12}  auc={row['auc']:.4f}  f1={row['f1']:.4f}")
        elif args.command == "sweep-sampling":
            rows = experiments.run_sweep(cfg, workers)
            print(f"wrote {len(rows)} sweep rows to {cfg.out}/sweep.csv")
        elif args.command == "fed-vs-central":
            result = experiments.run_fed_vs_central(cfg, workers)
            print(f"central auc={result['central']['auc']:.4f}  "
                  f"federated auc={result['federated']['auc']:.4f}  "
                  f"|delta|={result['auc_delta']:.4f}")
        elif args.command == "gen-synthetic":
            ds = experiments.run_gen_synthetic(cfg, args.output)
            print(f"wrote {ds.n_samples} rows ({ds.fraud_count} fraud) to {args.output}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 3: a diverged fit, or any other fault
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3

    print(f"done in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
