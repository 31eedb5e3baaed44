"""Command-line entry point.

Subcommands: benchmark | sweep-sampling | fed-vs-central | gen-synthetic.
Exit codes: 0 ok, 1 config error, 2 data error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import experiments
from .data import PARTITION_SCHEMES
from .errors import ConfigError, DataError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--data", help="input CSV path (default: synthetic data)")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--out", help="output directory for report files")
    parser.add_argument("--threads", type=int, help="worker threads for clients")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedfraud",
        description="Simulated federated training of fraud classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("benchmark",
                       help="train LR, DT, centralized MLP, and federated MLP "
                            "on one shared split and report AUC/PR/RE/F1/ACC")
    _add_common(p)
    p.add_argument("--ratio", help="fraud:legit resampling ratio, e.g. 1:1")

    p = sub.add_parser("sweep-sampling",
                       help="AUC vs sample count for each resampling ratio")
    _add_common(p)
    p.add_argument("--repeats", type=int, help="seed repetitions per grid cell")

    p = sub.add_parser("fed-vs-central",
                       help="same MLP trained centrally and federatedly; "
                            "per-round series plus final metric deltas")
    _add_common(p)
    p.add_argument("--scheme", choices=PARTITION_SCHEMES,
                   help="client partition scheme")

    p = sub.add_parser("gen-synthetic",
                       help="emit a synthetic imbalanced CSV in the ingestion schema")
    _add_common(p)
    p.add_argument("--n", type=int, help="number of rows")
    p.add_argument("--fraud-fraction", type=float, help="expected fraud fraction")
    p.add_argument("--separation", type=float, help="class cluster separation")
    p.add_argument("--features", type=int, help="feature count")
    p.add_argument("--output", required=True, help="CSV file to write")

    return parser


def _overrides(args: argparse.Namespace) -> dict:
    mapping = {
        "data": args.data, "seed": args.seed, "out": args.out,
        "threads": args.threads,
    }
    if getattr(args, "ratio", None) is not None:
        mapping["ratio"] = experiments.parse_ratio(args.ratio)
    if getattr(args, "repeats", None) is not None:
        mapping["sweep_repeats"] = args.repeats
    if getattr(args, "scheme", None) is not None:
        mapping["partition_scheme"] = args.scheme
    if getattr(args, "n", None) is not None:
        mapping["synthetic_n"] = args.n
    if getattr(args, "fraud_fraction", None) is not None:
        mapping["synthetic_fraud_fraction"] = args.fraud_fraction
    if getattr(args, "separation", None) is not None:
        mapping["synthetic_separation"] = args.separation
    if getattr(args, "features", None) is not None:
        mapping["synthetic_features"] = args.features
    return mapping


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = experiments.load_config(args.config, _overrides(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    start = time.perf_counter()
    try:
        if args.command == "benchmark":
            rows = experiments.run_benchmark(cfg)
            for row in rows:
                print(f"{row['model']:>12}  auc={row['auc']:.4f}  f1={row['f1']:.4f}")
        elif args.command == "sweep-sampling":
            rows = experiments.run_sweep(cfg)
            print(f"wrote {len(rows)} sweep rows to {cfg.out}/sweep.csv")
        elif args.command == "fed-vs-central":
            result = experiments.run_fed_vs_central(cfg)
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
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3

    print(f"done in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
