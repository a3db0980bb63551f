"""Command line entry point.

Thin wrapper over :mod:`ambo.harness`: pick the experiment subcommand,
load the config (an explicit path, a shipped preset, or the default
preset of the subcommand), apply flag overrides, run, and translate
exceptions into exit codes —

* 0: success,
* 1: validation failure (bad config, inadmissible inputs),
* 2: numerical failure (non-convergence, violated invariant).

Environment: ``AMBO_OUT_DIR`` overrides the output directory (an
explicit ``--out`` still wins); ``AMBO_THREADS`` (a positive integer),
when set before the package is imported, caps the BLAS/OpenMP thread
pools that the box products use.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from .config import EXPERIMENTS, load_config
from .errors import NumericalError
from .harness import run_experiment

__all__ = ["main", "build_parser"]

_DEFAULT_PRESETS = {
    "validate": "validate",
    "run": "shrink_circle",
    "converge": "converge_disk",
    "monotonic": "monotonic_constant",
    "inequalities": "inequalities",
    "angle": "angle",
}


def list_presets() -> list[str]:
    root = resources.files("ambo") / "presets"
    return sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambo",
        description="Thresholding dynamics on a substrate: runs and verification suites.",
    )
    parser.add_argument(
        "--list-presets", action="store_true", help="list shipped preset configs and exit"
    )
    sub = parser.add_subparsers(dest="experiment")
    for name in EXPERIMENTS:
        # No abbreviations: --h elsewhere would read as --help.
        p = sub.add_parser(name, help=f"{name} experiment", allow_abbrev=False)
        p.add_argument("config", nargs="?", help="config file (default: shipped preset)")
        p.add_argument("--preset", help="use a shipped preset instead of a config file")
        p.add_argument("-o", "--out", help="output directory")
        p.add_argument("--seed", type=int, help="seed for randomized suites")
        p.add_argument("--n", type=int, help="grid cells per axis")
        # Only these experiments read scheme.h, and only the flows max_steps.
        if name in ("run", "angle", "validate"):
            p.add_argument("--h", type=float, help="scheme time step")
        if name in ("run", "angle"):
            p.add_argument("--max-steps", type=int, help="step limit")
        if name == "run":
            p.add_argument("--snapshot-every", type=int, help="snapshot cadence (0: none)")
        if name == "angle":
            p.add_argument(
                "--sigma-ratio",
                type=float,
                help="wetting contrast (gamma_sp - gamma_sv) / gamma_pv",
            )
    return parser


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides = {
        "experiment.kind": args.experiment,
        "output.dir": args.out or os.environ.get("AMBO_OUT_DIR"),
        "seed": args.seed,
        "grid.n": args.n,
        "scheme.h": getattr(args, "h", None),
        "scheme.max_steps": getattr(args, "max_steps", None),
        "output.snapshot_every": getattr(args, "snapshot_every", None),
    }
    if getattr(args, "sigma_ratio", None) is not None:
        overrides["experiment.sigma_ratio"] = args.sigma_ratio
    return overrides


def _load(args: argparse.Namespace):
    overrides = _collect_overrides(args)
    if args.config and args.preset:
        raise ValueError("give either a config path or --preset, not both")
    if args.config:
        return load_config(args.config, overrides)
    preset = args.preset or _DEFAULT_PRESETS[args.experiment]
    entry = resources.files("ambo") / "presets" / f"{preset}.yaml"
    if not entry.is_file():
        raise ValueError(
            f"unknown preset '{preset}' (have {', '.join(list_presets())})"
        )
    with resources.as_file(entry) as path:
        return load_config(path, overrides)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_presets:
        for name in list_presets():
            print(name)
        return 0
    if not args.experiment:
        parser.print_help()
        return 1
    try:
        config = _load(args)
        summary = run_experiment(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    print(f"{config.experiment}: wrote {os.path.join(config.output_dir, 'summary.json')}")
    print(json.dumps(summary["results"], indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
