"""Command-line interface.

Verbs: run, ivs, eval. Exit codes: 0 on success, 1 for configuration
errors, 2 for data errors, 3 for anything that fails at runtime.

BLAS runs one thread: on more threads, whole-split products such as
(300x784)(784x100) sum in another order and change result bits, so the
pin is what makes a seed give the same bytes whatever thread count the
environment asks for. It takes effect because this module sets it before
its first import that loads numpy, and importing the package alone loads
none. Library callers choose their own thread count.
"""

from __future__ import annotations

import argparse
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from .config import load_config  # noqa: E402
from .errors import ConfigError, DataError  # noqa: E402
from .runner import cmd_eval, cmd_ivs, cmd_run  # noqa: E402

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdae-ivs",
        description="Variable-selecting stacked denoising auto-encoder experiments",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in (
        ("run", "pretrain, fine-tune, and evaluate per the config"),
        ("ivs", "run variable selection alone and export its artifacts"),
        ("eval", "re-evaluate serialized models from a previous run"),
    ):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--paper-grid", action="store_true",
                       help="reject hyper-parameters outside the benchmark grid")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed,
                          out_override=args.out, paper_grid=args.paper_grid)
        if args.verb == "run":
            cmd_run(cfg)
            print((cfg.out / "summary.txt").read_text(), end="")
            print(f"report: {cfg.out / 'report.json'}")
        elif args.verb == "ivs":
            result = cmd_ivs(cfg)
            final = result.history[-1]
            print(f"iterations: {len(result.history)}  "
                  f"kept: {result.mask.popcount}/{result.mask.m}  "
                  f"last validation error: {100 * final.validation_error:.2f}%")
            print(f"artifacts: {cfg.out}")
        elif args.verb == "eval":
            recomputed = cmd_eval(cfg)
            ok = True
            for variant, depths in sorted(recomputed.items()):
                for depth_key, entry in sorted(depths.items()):
                    ok &= entry["matches_report"]
                    print(f"{variant} {depth_key}: "
                          f"{100 * entry['test_error_rate']:.2f}% "
                          f"(matches report: {entry['matches_report']})")
            if not ok:
                print("serialized models disagree with report.json",
                      file=sys.stderr)
                return EXIT_RUNTIME
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
