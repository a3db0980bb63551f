"""One workload repetition in a fresh process.

Usage: python3 perfbench/worker.py PLAN REP_DIR [--trace | --setup-only]

``run.py`` starts this with PYTHONPATH pointing at ``src`` and
AMBO_THREADS set, so the thread caps apply before numpy loads.  The
process imports ambo, loads every config of the plan, notes the
monotonic clock (set-up ends here), then runs each config through
``ambo.harness.run_experiment`` in turn.  After the timed part it checks
the written outputs and hashes them.  It writes ``REP_DIR/result.json``
and, when traced, ``REP_DIR/spans.csv``.  With ``--setup-only`` it stops
once set-up is done, so set-up time can be sampled more often than the
workload runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

# Stated bound on |mean_angle - target_angle| per droplet run.  Measured
# errors at n = 512 are 1.85 / 0.72 / 0.14 deg for rho = -0.5 / 0 / +0.5.
ANGLE_BOUND_DEG = 2.5
DIGESTED = (".json", ".csv", ".bin")
THREAD_VARS = (
    "AMBO_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def check(summary: dict) -> tuple[list, int, float | None]:
    """Problems in one summary, the work it reports, and its angle error.

    The work is scheme steps for the flows and reported checks for the
    lemma suites.  Each experiment kind belongs to one workload.
    """
    kind = summary["experiment"]
    r = summary["results"]
    problems = []
    angle_err = None
    if kind == "angle":
        steps = sum(stage["steps"] for stage in r["stages"])
        problems += [
            f"{stage['label']} stage not stationary"
            for stage in r["stages"]
            if not stage["stationary"]
        ]
        if r["mean_angle"] is None:
            problems.append("no contact angle measured")
        else:
            angle_err = abs(r["mean_angle"] - r["target_angle"])
            if angle_err > ANGLE_BOUND_DEG:
                problems.append(f"angle error {angle_err:.3f} > {ANGLE_BOUND_DEG} deg")
    elif kind == "run":
        steps = r["steps"]
        if not r["stationary"] or r["final_volume"] != 0.0:
            problems.append(
                f"ball did not vanish (stationary={r['stationary']}, "
                f"final_volume={r['final_volume']})"
            )
    elif kind == "converge":
        errs = r["rel_errs"]
        steps = len(errs)
        if any(b >= a for a, b in zip(errs, errs[1:])):
            problems.append(f"convergence errors not strictly decreasing: {errs}")
    elif kind == "validate":
        steps = 1
        if not r["all_ok"]:
            problems.append("validation not all_ok")
    elif kind == "monotonic":
        steps = r["n_fields"] * len(r["combos"])
        if r["c_overall_max"] != 0.0:
            problems.append(f"c_overall_max = {r['c_overall_max']} != 0")
    elif kind == "inequalities":
        steps = r["checks"]
        if not r["all_ok"]:
            problems.append("inequalities not all_ok")
    else:
        raise ValueError(f"no check for experiment kind {kind!r}")
    return problems, steps, angle_err


def digest(run_dir: Path) -> str:
    """sha256 over the summary, CSV and field files of one run."""
    h = hashlib.sha256()
    for path in sorted(run_dir.rglob("*")):
        if path.suffix not in DIGESTED:
            continue
        h.update(path.relative_to(run_dir).as_posix().encode() + b"\0")
        with open(path, "rb") as src:
            for block in iter(lambda: src.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as src:
            for line in src:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main() -> int:
    plan_path, rep_dir = Path(sys.argv[1]), Path(sys.argv[2])
    mode = sys.argv[3] if len(sys.argv) > 3 else ""
    plan = json.loads(plan_path.read_text(encoding="utf-8"))

    from importlib import resources

    from ambo import io
    from ambo.config import load_config
    from ambo.harness import run_experiment

    configs = []
    for entry in plan["runs"]:
        overrides = {**entry["overrides"], "output.dir": str(rep_dir / entry["label"])}
        if "preset" in entry:
            preset = resources.files("ambo") / "presets" / f"{entry['preset']}.yaml"
            with resources.as_file(preset) as path:
                configs.append(load_config(path, overrides))
        else:
            configs.append(load_config(entry["config"], overrides))

    tracer = None
    if mode == "--trace":
        from tracer import Tracer

        tracer = Tracer()
        untraced = tracer.install()
    ready = time.monotonic()
    if mode == "--setup-only":
        (rep_dir / "result.json").write_text(json.dumps({"ready": ready}), encoding="utf-8")
        return 0

    runs = []
    for entry, config in zip(plan["runs"], configs):
        start = time.perf_counter()
        error = None
        try:
            run_experiment(config)
        except Exception as exc:  # a failing run is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        runs.append(
            {"label": entry["label"], "seconds": time.perf_counter() - start, "error": error}
        )
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for run in runs:
        run_dir = rep_dir / run["label"]
        problems, steps, angle_err = [], 0, None
        if run["error"] is not None:
            problems.append(run["error"])
        else:
            try:
                problems, steps, angle_err = check(io.read_summary(run_dir / "summary.json"))
            except Exception as exc:  # unreadable or schema-invalid summary
                problems.append(f"summary: {type(exc).__name__}: {exc}")
        run.update(
            problems=problems, steps=steps, angle_err_deg=angle_err, digest=digest(run_dir)
        )

    result = {
        "ready": ready,
        "run_s": sum(run["seconds"] for run in runs),
        "steps": sum(run["steps"] for run in runs),
        "peak_rss_mib": peak_rss_mib,
        "runs": runs,
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["untraced"] = untraced
        tracer.write_spans(rep_dir / "spans.csv")
    (rep_dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
