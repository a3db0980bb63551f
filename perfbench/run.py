"""ambo benchmark: three workloads through ``ambo.harness.run_experiment``.

Usage, from the repository root:

    python3 perfbench/run.py --workload droplet|ball3d|lemmas --seed N \
        --seconds S --trace 0|1 [--smoke]

Each repetition of a workload is one fresh process (``worker.py``) that
imports ambo, loads the configs and runs them one after another; nothing
else generates load.  Repetitions follow each other until ``--seconds``
have passed, with at least three.  Further processes that stop after
set-up bring the set-up samples to at least nine.  End-to-end metrics
are medians, measured with tracing off.  With ``--trace 1`` one more
repetition runs with every layer wrapped (``tracer.py``) and the last
line carries the per-layer metrics instead.

The seed reaches ambo only through the generated inputs: the order of
the droplet's wetting contrasts, the position of the 3-d ball, and the
random ensembles of the lemma suites.  ``--smoke`` runs the same
workloads once at small sizes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, every repetition, output digests) goes to
``.perfbench_out/<workload>-seed<N>/results.json``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import METRICS as LAYER_METRICS  # noqa: E402

WORKLOADS = ("droplet", "ball3d", "lemmas")
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
MIN_REPS = 3
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 90
OUT_ROOT = Path(".perfbench_out")
BALL_RADIUS = 0.3


def write_ball(path: Path, n: int, shift: list) -> None:
    """Indicator of a ball of radius 0.3 on the 3-d torus, moved by whole cells."""
    import numpy as np

    from ambo import io

    x = (np.arange(n) + 0.5) / n
    r2 = sum((c - 0.5) ** 2 for c in np.meshgrid(x, x, x, indexing="ij"))
    ball = (r2 < BALL_RADIUS**2).astype(np.float64)
    io.write_field(path, np.roll(ball, shift, axis=(0, 1, 2)))


def make_plan(workload: str, seed: int, smoke: bool, inputs: Path) -> dict:
    """The runs of one repetition, generated from the seed alone."""
    rng = random.Random(seed)
    if workload == "droplet":
        # The shipped angle preset at the three wetting contrasts of the
        # paper's Young's-law check; smoke runs at n = 384, the smallest
        # size whose angle error stays inside the stated bound.
        rhos = [-0.5, 0.0, 0.5]
        rng.shuffle(rhos)
        size = {"grid.n": 384} if smoke else {}
        runs = [
            {
                "label": f"rho{rho:+.1f}",
                "preset": "angle",
                "overrides": {**size, "experiment.sigma_ratio": rho},
            }
            for rho in rhos
        ]
    elif workload == "ball3d":
        # Unconstrained collapse of a ball: R^2 = R0^2 - 4t vanishes after
        # about 22 steps of h = 1e-3; a whole-cell shift keeps the work fixed.
        n = 48 if smoke else 96
        shift = [rng.randrange(n) for _ in range(3)]
        write_ball(inputs / "ball.bin", n, shift)
        config = {
            "grid": {"d": 3, "n": n},
            "geometry": {"kind": "full"},
            "anisotropy": {"kind": "isotropic"},
            "kernel": {"kind": "gaussian"},
            "tensions": {"mode": "direct", "gamma_pv": "1", "gamma_sp": "1", "gamma_sv": "1"},
            "scheme": {
                "h": 1.0e-3,
                "preserve_volume": False,
                "max_steps": 80,
                "stationarity_window": 3,
            },
            "initial": {"kind": "field", "path": str(inputs / "ball.bin")},
            "experiment": {"kind": "run"},
            "seed": seed,
        }
        # JSON is valid YAML, so load_config reads it like any config file.
        (inputs / "ball3d.yaml").write_text(json.dumps(config, indent=1), encoding="utf-8")
        runs = [{"label": "ball", "config": str(inputs / "ball3d.yaml"), "overrides": {}}]
    else:
        n_fields = 1 if smoke else 8
        ensemble = {"seed": seed, "experiment.n_fields": n_fields}
        runs = [
            {"label": "converge", "preset": "converge_disk", "overrides": {}},
            {"label": "extend", "preset": "extend_disk", "overrides": {}},
            {"label": "monotonic", "preset": "monotonic_constant", "overrides": ensemble},
            {"label": "inequalities", "preset": "inequalities", "overrides": ensemble},
        ]
    return {"workload": workload, "seed": seed, "smoke": smoke, "runs": runs}


def run_rep(plan_path: Path, rep_dir: Path, env: dict, mode: str = "") -> dict | None:
    """One fresh worker process; None when it produced no result.

    ``mode`` is "" for a timed repetition, "--trace" or "--setup-only".
    """
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(rep_dir)]
    if mode:
        cmd.append(mode)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    wall = time.monotonic() - spawned
    result_path = rep_dir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        print(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    rep = json.loads(result_path.read_text(encoding="utf-8"))
    rep["setup_s"] = rep.pop("ready") - spawned
    rep["wall_s"] = wall
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, one repetition")
    args = parser.parse_args(argv)

    src = Path("src")
    if not (src / "ambo" / "__init__.py").is_file():
        print("error: run from the repository root (src/ambo not found)", file=sys.stderr)
        return 2
    os.environ["AMBO_THREADS"] = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src.resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    sys.path.insert(0, str(src.resolve()))
    compileall.compile_dir(str(src / "ambo"), quiet=1)

    name = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    work = OUT_ROOT / name
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    plan = make_plan(args.workload, args.seed, args.smoke, inputs)
    plan_path = inputs / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
    n_runs = len(plan["runs"])

    min_reps = 1 if args.smoke else MIN_REPS
    reps: list = []
    lost = 0
    start = time.monotonic()
    while True:
        rep = run_rep(plan_path, work / "rep", env)
        if rep is None:
            lost += 1
            break
        reps.append(rep)
        if len(reps) >= min_reps and time.monotonic() - start + rep["wall_s"] > args.seconds:
            break
    probes = [
        run_rep(plan_path, work / "rep", env, "--setup-only")
        for _ in range(SETUP_SAMPLES - len(reps) if reps else 0)
    ]
    setups = [r["setup_s"] for r in reps + probes if r is not None]
    traced = None
    if args.trace and reps:
        traced = run_rep(plan_path, work / "rep", env, "--trace")
        if traced is not None:
            shutil.move(str(work / "rep" / "spans.csv"), str(work / "spans.csv"))
    shutil.rmtree(work / "rep", ignore_errors=True)
    shutil.rmtree(inputs, ignore_errors=True)
    if not reps or (args.trace and traced is None):
        print("error: a repetition produced no result", file=sys.stderr)
        return 1

    # A run fails when it raised, when a check missed, or when its outputs
    # differ from the first repetition's (the workload must be deterministic).
    reference = {run["label"]: run["digest"] for run in reps[0]["runs"]}
    all_reps = reps + ([traced] if traced else [])
    attempted = (len(all_reps) + lost) * n_runs
    failed = lost * n_runs
    problems = []
    for i, rep in enumerate(all_reps):
        for run in rep["runs"]:
            issues = list(run["problems"])
            if run["digest"] != reference[run["label"]]:
                issues.append("output digest differs from repetition 0")
            if issues:
                failed += 1
                problems.append(f"rep {i} {run['label']}: " + "; ".join(issues))

    run_s = statistics.median(rep["run_s"] for rep in reps)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "steps_per_s": statistics.median(rep["steps"] / rep["run_s"] for rep in reps),
        "peak_rss_mib": statistics.median(rep["peak_rss_mib"] for rep in reps),
    }
    angle_errs = [run["angle_err_deg"] for run in reps[0]["runs"]]
    extra = {"fail_frac": (failed / attempted, "ratio")}
    if args.workload == "droplet":
        worst = None if None in angle_errs else max(angle_errs)
        extra["angle_err_deg"] = (worst, "deg")
    workload_digest = json.dumps(reference, sort_keys=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "env": reps[0]["env"],
        "digest": hashlib.sha256(workload_digest.encode()).hexdigest(),
        "run_digests": reference,
        "setup_samples": setups,
        "metrics": {
            **{k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()},
            **{k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "reps": [
            {k: rep[k] for k in ("setup_s", "run_s", "wall_s", "steps", "peak_rss_mib", "runs")}
            for rep in all_reps
        ],
    }
    if traced:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["run_s"] - run_s
        record["layers"] = {
            k: {"value": layers[k], "unit": LAYER_METRICS[k][0]} for k in LAYER_METRICS
        }
        record["untraced"] = traced["untraced"]
    (work / "results.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}"
          f"  (one fresh process each)")
    for key, entry in record["metrics"].items():
        value = entry["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:<16} {shown:>12} {entry['unit']}")
    print(f"  digest           {record['digest'][:16]}")
    if traced:
        print("  per layer (traced repetition):")
        for key, entry in record["layers"].items():
            print(f"    {key:<36} {entry['value']:>12.6g} {entry['unit']}")
        for target in record["untraced"]:
            print(f"    not found, reads 0: {target}")
    for line in problems:
        print(f"  FAILED {line}", file=sys.stderr)
    print(f"  results          {work / 'results.json'}")

    metrics = record["layers"] if args.trace else record["metrics"]
    names = LAYER_METRICS if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: metrics[k] for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
