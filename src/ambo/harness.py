"""Experiment drivers.

Each experiment builds the configured problem, runs the matching study
from the core modules and writes its outputs: a schema-validated JSON
summary (always), plus CSV tables and field/PGM snapshots where they
apply.  Summaries carry a metadata block — configuration hash (output
location excluded), full parameter echo, admissibility flags from the
tension checks — so every result file is self-describing.  Nothing
time- or host-dependent goes into the outputs: identical config and
seed reproduce them byte for byte.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# numpy loads these on first use; loading them with the harness keeps
# their imports out of the first run: numpy.fft for the FFTs and numpy.ma,
# which np.unique loads.  numpy.random (6 MiB of RSS) is left to load on
# first use, by the ensembles and validate's convolution cross-check.
import numpy.fft  # noqa: F401
import numpy.ma  # noqa: F401

from . import io
from .anisotropy import Anisotropy, induced_anisotropy
from .config import (
    RunConfig,
    build_geometry_from,
    build_initial,
    build_kernel_from,
    build_scheme_config,
    build_tensions,
    initial_shape_spec,
)
from .energy import (
    PhaseField,
    RunOperator,
    approx_energy,
    convergence_study,
    indicator_defect,
    inequality_suite,
    monotonicity_check,
    sharp_energy,
)
from .errors import ConfigError, NumericalError, ResolutionWarning
from .geometry import Band, Geometry
from .kernel import _WRAP_LIMIT, Kernel, scale_kernel
from .scheme import SchemeError, Trajectory, measure_contact_angle, run as run_scheme
from .tensions import ModifiedTensions, TensionError

__all__ = ["Workspace", "prepare", "run_experiment", "STEP_COLUMNS"]

STEP_COLUMNS = ("step", "energy", "volume", "interface_cells", "lambda", "defect")


@dataclass
class Workspace:
    """Everything an experiment needs, built once from the config.

    ``gamma`` is gamma_K, the anisotropy the kernel induces: it divides the
    extend-mode substrate tensions and weights the sharp-interface energy.
    """

    config: RunConfig
    geometry: Geometry
    gamma: Anisotropy
    kernel: Kernel
    tensions: ModifiedTensions | None
    flags: dict
    detail: dict = field(default_factory=dict)

    @property
    def grid(self):
        return self.geometry.grid


def prepare(config: RunConfig, *, tensions_required: bool = True) -> Workspace:
    """Build and validate the configured problem.

    An inadmissible tension set raises unless ``tensions_required`` is off
    (the validate experiment wants the failure as a report, not a crash).
    """
    geometry = build_geometry_from(config)
    kernel = build_kernel_from(config)
    gamma = induced_anisotropy(kernel, config.d)
    tensions = None
    try:
        tensions, audit = build_tensions(config, geometry, gamma)
        flags = {"tensions": True, "triangle": audit.ok}
        detail = {
            "mode": config.tensions["mode"],
            "bounds": [tensions.lower, tensions.upper],
            "worst_triangle_slack": min(audit.worst_slack.values()),
            "failures": [],
        }
    except (TensionError, ConfigError) as exc:
        if tensions_required:
            raise
        flags = {"tensions": False, "triangle": None}
        detail = {
            "mode": config.tensions["mode"],
            "failures": [str(exc)],
        }
    return Workspace(
        config, geometry, gamma, kernel, tensions, flags, {"tensions": detail}
    )


def _base_summary(ws: Workspace, results: dict, outputs: dict) -> dict:
    doc = ws.config.document()
    # The output section says where results land, not what was computed, so
    # it is excluded from both the hash and the echo: rerunning the same
    # configuration into a different directory yields byte-identical files.
    hashed = {k: v for k, v in doc.items() if k != "output"}
    return {
        "experiment": ws.config.experiment,
        "config_hash": io.config_hash(hashed),
        "seed": ws.config.seed,
        "parameters": hashed,
        "admissibility": dict(ws.flags),
        "results": results,
        "outputs": outputs,
    }


def _write_summary(ws: Workspace, out: Path, results: dict, outputs: dict) -> dict:
    outputs = {"summary": "summary.json", **outputs}
    summary = _base_summary(ws, results, outputs)
    return io.write_summary(out / "summary.json", summary)


def _maybe_angle(u: PhaseField, geometry: Geometry, **kwargs):
    """The contact angle when it is defined for this state, else None."""
    try:
        return measure_contact_angle(u, geometry, **kwargs)
    except SchemeError:
        return None


def _snapshot_writer(out: Path, every: int, d: int):
    if every <= 0:
        return None, {}
    outputs = {"snapshots": "u_NNNNNN.bin" + (" / .pgm" if d == 2 else "")}

    def write(state):
        if state.step % every == 0:
            stem = f"u_{state.step:06d}"
            io.write_field(out / f"{stem}.bin", state.u.values)
            if d == 2:
                io.write_pgm(out / f"{stem}.pgm", state.u.values)

    return write, outputs


def _dump_final(out: Path, traj: Trajectory, d: int) -> dict:
    outputs = {"final_field": "final_u.bin"}
    io.write_field(out / "final_u.bin", traj.final.u.values)
    if d == 2:
        io.write_pgm(out / "final_u.pgm", traj.final.u.values)
        outputs["final_image"] = "final_u.pgm"
    if traj.oscillating:
        for name, state in zip(("cycle_a", "cycle_b"), traj.cycle_states):
            io.write_field(out / f"{name}.bin", state.u.values)
            outputs[name] = f"{name}.bin"
    return outputs


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _experiment_validate(ws: Workspace, out: Path) -> dict:
    config = ws.config
    flags = ws.flags
    resolution_notes: list[str] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            kh = scale_kernel(ws.kernel, ws.grid, config.scheme["h"])
        for w in caught:
            if issubclass(w.category, ResolutionWarning):
                resolution_notes.append(str(w.message))
        flags["resolution"] = True
    except (ValueError, NumericalError) as exc:
        flags["resolution"] = False
        resolution_notes.append(str(exc))

    # The anisotropy the kernel produces on free interfaces, probed at a
    # few directions (the full sweep lives in the tests).
    if config.d == 2:
        theta = np.linspace(0.0, math.pi, 16, endpoint=False)
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        vals = ws.gamma(dirs)
        ws.detail["kernel"] = {
            "induced": {"e1": float(vals[0]), "spread": float(vals.max() - vals.min())}
        }

    # Cross-check the two convolution routes on grids small enough for
    # the direct route (it visits every cell pair).
    convolution: dict = {}
    if flags["resolution"] and ws.grid.cell_count <= 4096:
        rng = np.random.default_rng(config.seed)
        probe = rng.uniform(size=ws.grid.shape)
        diff = float(
            np.abs(kh.convolve(probe) - kh.convolve(probe, method="direct")).max()
        )
        flags["convolution"] = diff <= 1e-10
        convolution = {"max_abs_diff": diff, "tol": 1e-10}
    else:
        flags["convolution"] = None
        convolution = {"skipped": "grid too large for the direct route"}

    results = {
        **ws.detail,
        "resolution": {"h": config.scheme["h"], "notes": resolution_notes},
        "convolution": convolution,
        "geometry": {
            "omega_cells": ws.geometry.omega_cell_count,
            "omega_volume": ws.geometry.omega_volume,
            "delta": ws.geometry.delta,
            "has_substrate": ws.geometry.has_substrate,
        },
        "all_ok": all(v is None or v for v in flags.values()),
    }
    summary = _write_summary(ws, out, results, {})
    if not results["all_ok"]:
        failing = sorted(k for k, v in flags.items() if v is not None and not v)
        notes = []
        for key in failing:
            notes.extend(ws.detail.get(key, {}).get("failures", []))
        notes.extend(resolution_notes if not flags["resolution"] else [])
        raise ConfigError(
            "validation failed for: " + ", ".join(failing)
            + ("; " + "; ".join(notes) if notes else "")
        )
    return summary


def _experiment_run(ws: Workspace, out: Path) -> dict:
    config = ws.config
    scheme_config = build_scheme_config(config)
    writer, outputs = _snapshot_writer(out, config.snapshot_every, config.d)
    # Passed without a name here, so the run can release the initial field
    # once its first step replaces it.
    traj = run_scheme(
        build_initial(config, ws.geometry),
        scheme_config,
        ws.tensions,
        ws.kernel,
        on_state=writer,
    )
    io.write_csv(out / "steps.csv", STEP_COLUMNS, traj.diagnostics)
    outputs["steps"] = "steps.csv"
    outputs.update(_dump_final(out, traj, config.d))
    final = traj.final
    results = {
        "stationary": traj.stationary,
        "oscillating": traj.oscillating,
        "steps": final.step,
        "final_energy": final.energy,
        "final_volume": final.volume,
        "interface_cells": final.interface_cells,
        "defect": final.defect,
        "angle": _maybe_angle(final.u, ws.geometry),
    }
    return _write_summary(ws, out, results, outputs)


def _experiment_energy(ws: Workspace, out: Path) -> dict:
    config = ws.config
    initial = build_initial(config, ws.geometry)
    h = config.scheme["h"]
    kh = scale_kernel(ws.kernel, ws.grid, h)
    ku = kh.convolve(initial.values)
    e_h = approx_energy(initial, RunOperator.build(ws.geometry, ws.tensions, kh), ku)
    defect = indicator_defect(ku, ws.geometry)

    sharp = None
    spec = initial_shape_spec(config, ws.geometry)
    if (
        spec is not None
        and not spec.wetted
        and np.ptp(ws.tensions.pv) == 0.0
    ):
        sharp = sharp_energy(spec, float(ws.tensions.pv.flat[0]), ws.gamma)
    results = {
        "h": h,
        "energy": e_h,
        "volume": initial.volume(),
        "defect": defect,
        "sharp": sharp,
        "rel_err": None if sharp is None else abs(e_h - sharp) / abs(sharp),
    }
    return _write_summary(ws, out, results, {})


def _experiment_sharp_limit(ws: Workspace, out: Path) -> dict:
    config = ws.config
    spec = initial_shape_spec(config, ws.geometry)
    if spec is None or spec.wetted:
        raise ConfigError(
            "converge needs an analytic free-boundary initial shape (disk)"
        )
    if np.ptp(ws.tensions.pv) != 0.0:
        raise ConfigError("converge needs a spatially constant gamma_pv")
    table = convergence_study(
        spec,
        ws.tensions,
        ws.kernel,
        ws.config.experiment_params["h_values"],
        ws.geometry,
        ws.gamma,
    )
    io.write_csv(
        out / "convergence.csv",
        ("h", "energy", "reference", "rel_err"),
        table.as_rows(),
    )
    errs = [r.rel_err for r in table.rows]
    results = {
        "order": table.order,
        "h_values": [r.h for r in table.rows],
        "rel_errs": errs,
        "final_rel_err": errs[-1],
        "strictly_decreasing": True,  # convergence_study raised otherwise
    }
    return _write_summary(ws, out, results, {"table": "convergence.csv"})


# Quantisation levels of the random ensemble fields.
_LEVELS = 16


def _ensemble(ws: Workspace, n_fields: int, include_disk: bool):
    """Field names and the seeded phase fields, in the same order; with
    ``include_disk`` the indicator of a free initial disk comes last."""
    rng = np.random.default_rng(ws.config.seed)
    names = [f"random_{i:03d}" for i in range(n_fields)]
    fields = [PhaseField.random(ws.geometry, rng, _LEVELS) for _ in names]
    if include_disk:
        spec = initial_shape_spec(ws.config, ws.geometry)
        if spec is not None and not spec.wetted:
            names.append("indicator")
            fields.append(spec.indicator(ws.geometry))
    return names, fields


def _experiment_monotonic(ws: Workspace, out: Path) -> dict:
    p = ws.config.experiment_params
    for h in p["h_values"]:
        for N in p["factors"]:
            reach = math.sqrt(N * N * h) * ws.kernel.wrap_radius()
            if reach > _WRAP_LIMIT:
                raise ConfigError(
                    f"monotonic step size N^2 h = {N * N * h:.4g} at h = {h:g}, N = {N} is "
                    f"too large: sqrt(N^2 h) * wrap_radius() = {reach:.3g} must be <= "
                    f"{_WRAP_LIMIT} for +-1 periodic image sampling"
                )
    names, fields = _ensemble(ws, p["n_fields"], include_disk=True)
    constant = ws.tensions.is_spatially_constant
    rows = []
    c_by_combo: dict[tuple, list] = {}
    checked = monotonicity_check(
        fields, ws.tensions, ws.kernel, p["h_values"], p["factors"]
    )
    pairs = [(h, N) for h in p["h_values"] for N in p["factors"]]
    for (h, N), results in zip(pairs, checked):
        for name, res in zip(names, results):
            rows.append((name, h, N, res.lhs, res.rhs, res.c_est))
            c_by_combo.setdefault((h, N), []).append(res.c_est)
    io.write_csv(
        out / "monotonicity.csv",
        ("field", "h", "factor", "lhs", "rhs", "c_est"),
        rows,
    )
    combos = [
        {
            "h": h,
            "factor": N,
            "c_max": max(cs),
            "c_mean": float(np.mean(cs)),
        }
        for (h, N), cs in sorted(c_by_combo.items())
    ]
    c_maxima = [c["c_max"] for c in combos]
    positive = [c for c in c_maxima if c > 0.0]
    results = {
        "constant_tensions": constant,
        "n_fields": len(fields),
        "combos": combos,
        "c_overall_max": max(c_maxima),
        "c_spread": (max(positive) / min(positive)) if positive else None,
    }
    return _write_summary(ws, out, results, {"table": "monotonicity.csv"})


def _experiment_inequalities(ws: Workspace, out: Path) -> dict:
    p = ws.config.experiment_params
    names, fields = _ensemble(ws, p["n_fields"], include_disk=False)
    rows = []
    worst = math.inf
    all_ok = True
    for reports in inequality_suite(fields, ws.kernel, p["h_values"]):
        for name, report in zip(names, reports):
            for res in report.results:
                scale = max(abs(res.lhs), abs(res.rhs), 1.0)
                worst = min(worst, res.slack / scale)
                all_ok = all_ok and res.ok()
                rows.append((name, report.h, res.name, res.lhs, res.rhs, res.ok()))
    io.write_csv(
        out / "inequalities.csv",
        ("field", "h", "inequality", "lhs", "rhs", "ok"),
        rows,
    )
    results = {
        "n_fields": len(fields),
        "h_values": p["h_values"],
        "checks": len(rows),
        "worst_relative_slack": worst,
        "all_ok": all_ok,
    }
    return _write_summary(ws, out, results, {"table": "inequalities.csv"})


def _experiment_angle(ws: Workspace, out: Path) -> dict:
    """Young's law: the ``initial`` cap relaxes at fixed volume under the
    tensions ``sigma_ratio`` fixed, towards cos(theta) = -rho.

    The fine stage runs ``scheme``; a coarse stage at ``coarse_h`` comes
    first, because at the fine step the contact line pins short of the
    equilibrium."""
    config = ws.config
    p = config.experiment_params
    if config.initial["kind"] != "cap" or not isinstance(ws.geometry.shape, Band):
        raise ConfigError(
            "the angle experiment needs a cap initial phase on a 2-d band geometry"
        )
    fine = build_scheme_config(config)
    stages = []
    u = build_initial(config, ws.geometry)
    for label, scheme_config in (
        ("coarse", replace(fine, h=p["coarse_h"])),
        ("fine", fine),
    ):
        traj = run_scheme(u, scheme_config, ws.tensions, ws.kernel)
        io.write_csv(out / f"steps_{label}.csv", STEP_COLUMNS, traj.diagnostics)
        stages.append(
            {
                "label": label,
                "h": scheme_config.h,
                "steps": traj.final.step,
                "stationary": traj.stationary,
                "oscillating": traj.oscillating,
            }
        )
        u = traj.final.u

    rho = p["sigma_ratio"]
    skip = max(3, math.ceil(3.0 * math.sqrt(2.0 * fine.h) / ws.grid.spacing))
    target = math.degrees(math.acos(-rho))
    outputs = {
        "steps_coarse": "steps_coarse.csv",
        "steps_fine": "steps_fine.csv",
    }
    outputs.update(_dump_final(out, traj, config.d))
    results = {
        "sigma_ratio": rho,
        "target_angle": target,
        # One fitted angle; the key is kept for the readers of earlier summaries.
        "mean_angle": _maybe_angle(u, ws.geometry, skip_cells=skip),
        "stages": stages,
        "final_volume": traj.final.volume,
        "skip_cells": skip,
    }
    return _write_summary(ws, out, results, outputs)


_HANDLERS = {
    "validate": _experiment_validate,
    "run": _experiment_run,
    "energy": _experiment_energy,
    "converge": _experiment_sharp_limit,
    "monotonic": _experiment_monotonic,
    "inequalities": _experiment_inequalities,
    "angle": _experiment_angle,
}


def run_experiment(config: RunConfig) -> dict:
    """Execute the configured experiment; returns the written summary."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    ws = prepare(config, tensions_required=(config.experiment != "validate"))
    return _HANDLERS[config.experiment](ws, out)
