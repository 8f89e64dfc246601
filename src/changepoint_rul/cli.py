"""Command-line entry points: detect | train | evaluate | monitor | sweep.

Exit codes: 0 success, 1 config error, 2 data integrity error, 3 numeric
failure, 141 (128 + SIGPIPE) when the reader of standard output went away.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from contextlib import nullcontext

from .config import PipelineConfig, default_config, load_config
from .errors import ConfigError, DataError, PipelineError
from .pipeline import run_detect, run_evaluate, run_sweep, run_train
from .streaming import run_monitor

log = logging.getLogger("cprul")


def _build_config(args):
    """The config file (or the dataset's defaults) with every flag that names a
    config field and was given on top."""
    fields = PipelineConfig.__dataclass_fields__
    overrides = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    if args.config:
        return load_config(args.config, **overrides)
    return default_config(**overrides)


def _candidates(text: str) -> list:
    """The comma-separated minimum lifespans of ``sweep --candidates``."""
    candidates = []
    for value in filter(None, (v.strip() for v in text.split(","))):
        try:
            candidates.append(int(value))
        except ValueError:
            raise ConfigError(f"sweep candidate {value!r} is not an integer") from None
    return candidates


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cprul",
        description=(
            "Change-point detection from sensor temporal dynamics and "
            "change-point-informed RUL estimation"
        ),
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags land on the PipelineConfig field their dest names; see _build_config.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--dataset", dest="dataset_id", help="dataset id (FD001..FD004)")
    common.add_argument("--data-dir", help="directory holding the C-MAPSS text files")
    common.add_argument("--out-dir", help="directory for reports and artifacts")
    common.add_argument("--subset", type=int, help="use only the first N engines")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, help="RNG seed for training and shuffling")

    p_detect = sub.add_parser(
        "detect", parents=[common], help="fit per-engine monitors and change points"
    )
    p_detect.add_argument(
        "--traces",
        dest="export_traces",
        action="store_const",
        const=True,
        help="export per-engine statistic traces",
    )

    p_train = sub.add_parser(
        "train", parents=[common, seeded], help="train the RUL regressor on piecewise labels"
    )
    p_train.add_argument("--epochs", type=int, help="override training epoch count")

    p_eval = sub.add_parser("evaluate", parents=[common], help="score a checkpoint on the test set")
    p_eval.add_argument("--checkpoint", help="checkpoint path (default: <out-dir>/checkpoint.npz)")

    p_mon = sub.add_parser("monitor", help="stream per-cycle records through fitted monitors")
    p_mon.add_argument("--monitors", required=True, help="monitors directory from a detect run")
    p_mon.add_argument("--checkpoint", help="regressor checkpoint for online RUL estimates")
    p_mon.add_argument(
        "--input", default="-", help="line-delimited JSON records file, or - for stdin"
    )

    p_sweep = sub.add_parser(
        "sweep",
        parents=[common, seeded],
        help="repeat the pipeline over minimum-lifespan candidates",
    )
    p_sweep.add_argument(
        "--candidates",
        required=True,
        help="comma-separated minimum lifespans, e.g. 100,125,150,175,200,225",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "monitor":  # reads only its monitor store and checkpoint
            # as on stdin, undecodable bytes reach process_line as surrogates
            source = nullcontext(sys.stdin) if args.input == "-" else open(
                args.input, encoding="utf-8", errors="surrogateescape"
            )
            with source as fh:
                n = run_monitor(args.monitors, fh, sys.stdout, checkpoint_path=args.checkpoint)
            log.info("emitted %d events", n)
            return 0
        config = _build_config(args)
        if args.command == "detect":
            _, summary = run_detect(config)
            print(
                f"{summary['dataset']}: {summary['n_detected']} detected, "
                f"{summary['n_fallback']} fallback of {summary['n_engines']} engines"
            )
        elif args.command == "train":
            _, history, meta = run_train(config)
            final = f"{history[-1]:.3f}" if history else "n/a"
            print(
                f"trained on {meta['n_windows']} windows, final epoch mse {final}; "
                f"artifacts in {config.out_dir}"
            )
        elif args.command == "evaluate":
            run_evaluate(config, checkpoint_path=args.checkpoint)
        elif args.command == "sweep":
            rows = run_sweep(config, _candidates(args.candidates))
            for row in rows:
                if row["applicable"]:
                    print(
                        f"min_lifespan={row['min_lifespan']:<4d} "
                        f"RMSE={row['rmse']:7.2f}  SF={row['sf']:10.2f}"
                    )
                else:
                    print(f"min_lifespan={row['min_lifespan']:<4d} NA ({row['reason']})")
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc}", file=sys.stderr)
        return DataError.exit_code
    except BrokenPipeError:  # stdout's reader went away, as under `cprul monitor ... | head -1`
        # stop quietly with 128 + SIGPIPE; the exit-time flush of stdout then goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:  # a directory where a file belongs, or the reverse
        print(f"error: {exc}", file=sys.stderr)
        return DataError.exit_code
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
