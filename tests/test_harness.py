"""End-to-end runs through the command line, and the anisotropy the
harness builds from the kernel."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml

import ambo
from ambo import cli, energy, io, kernel, scheme
from ambo.config import EXPERIMENTS, load_config
from ambo.errors import ConfigError
from ambo.geometry import boundary_layer_mask
from ambo.harness import prepare, run_experiment

# Each experiment kind at a small size: (preset, grid n, section changes).
SMALL = {
    "validate": ("validate", 64, {}),
    "run": ("shrink_circle", 64, {"scheme": {"max_steps": 5}}),
    "converge": ("converge_disk", 128, {"experiment": {"h_values": [4.0e-3, 1.0e-3]}}),
    "monotonic": (
        "monotonic_varying",
        64,
        {"experiment": {"n_fields": 2, "h_values": [1.0e-3], "factors": [2]}},
    ),
    "inequalities": (
        "inequalities",
        64,
        {"experiment": {"n_fields": 2, "h_values": [4.0e-3]}},
    ),
    "angle": (
        "angle",
        128,
        {"scheme": {"h": 1.0e-3, "max_steps": 20}, "experiment": {"coarse_h": 4.0e-3}},
    ),
}


def _preset(name: str) -> dict:
    text = (resources.files("ambo") / "presets" / f"{name}.yaml").read_text()
    return yaml.safe_load(text)


def _config(path, preset: str, changes: dict):
    """Write the preset, with each changed section merged in, to ``path``."""
    doc = _preset(preset)
    for section, values in changes.items():
        doc[section] = {**(doc.get(section) or {}), **values}
    path.write_text(yaml.safe_dump(doc))
    return path


def _run_small(kind, tmp_path, out_name="out", *extra):
    preset, n, changes = SMALL[kind]
    config = _config(tmp_path / f"{kind}.yaml", preset, changes)
    out = tmp_path / out_name
    code = cli.main([kind, str(config), "--n", str(n), "--out", str(out), *extra])
    return code, out


# sqrt(h) = 0.0316 is under 3 spacings at n = 64 in the small run and
# monotonic configurations; their ResolutionWarning is expected.
UNDER_RESOLVED = pytest.mark.filterwarnings("ignore::ambo.errors.ResolutionWarning")


@pytest.mark.parametrize(
    "kind",
    [
        pytest.param(kind, marks=UNDER_RESOLVED)
        if kind in ("run", "monotonic")
        else kind
        for kind in EXPERIMENTS
    ],
)
def test_experiment_runs_through_the_cli(kind, tmp_path, capsys):
    code, out = _run_small(kind, tmp_path)
    assert code == 0, capsys.readouterr().err
    summary = io.read_summary(out / "summary.json")
    jsonschema.validate(summary, io.summary_schema())  # the oracle agrees
    assert summary["experiment"] == kind
    assert summary["parameters"]["grid"]["n"] == SMALL[kind][1]
    assert summary["outputs"]["summary"] == "summary.json"
    for name in summary["outputs"].values():
        assert (out / name).is_file(), name
    # stdout is one status line, then the results as JSON
    status, results = capsys.readouterr().out.split("\n", 1)
    assert status.startswith(f"{kind}: wrote ")
    assert json.loads(results) == summary["results"]


def test_angle_runs_the_settings_it_echoes(tmp_path, capsys):
    """--h is the fine stage's step and --max-steps caps both stages; the
    echo shows the cap and the tensions that sigma_ratio fixed."""
    out = tmp_path / "angle"
    argv = ["--n", "128", "--h", "1e-3", "--max-steps", "2", "--sigma-ratio", "0.5"]
    code = cli.main(["angle", *argv, "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    summary = io.read_summary(out / "summary.json")
    params, stages = summary["parameters"], summary["results"]["stages"]
    assert [stage["label"] for stage in stages] == ["coarse", "fine"]
    assert stages[1]["h"] == params["scheme"]["h"] == 1e-3
    assert all(stage["steps"] <= 2 for stage in stages)
    assert params["initial"]["kind"] == "cap"
    assert params["tensions"]["gamma_sp"] == "1.25"


@UNDER_RESOLVED
def test_same_config_reproduces_every_output_byte(tmp_path, capsys):
    dirs = []
    for name in ("first", "second"):
        code, out = _run_small("run", tmp_path, name, "--snapshot-every", "2")
        assert code == 0, capsys.readouterr().err
        dirs.append(out)
    files = sorted(p.name for p in dirs[0].iterdir())
    assert files == sorted(p.name for p in dirs[1].iterdir())
    assert {"summary.json", "steps.csv", "final_u.bin", "u_000002.bin"} <= set(files)
    for name in files:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_runs_import_neither_scipy_nor_jsonschema(tmp_path):
    """A fresh process that imports the command line and runs the small
    angle case, the small validate and extend_disk's validate (the
    contact-angle labelling, the Dirichlet solves, the summary check)
    loads no scipy or jsonschema module.  The import, the angle run and
    the small validate load no numpy.random (6 MiB of RSS), which only
    the ensembles use."""
    preset, n, changes = SMALL["angle"]
    angle = ["angle", str(_config(tmp_path / "angle.yaml", preset, changes)), "--n", str(n)]
    preset, n, changes = SMALL["validate"]
    validate = ["validate", str(_config(tmp_path / "validate.yaml", preset, changes)), "--n", str(n)]
    extend = ["validate", "--preset", "extend_disk", "--n", "128"]
    script = f"""
import sys
import ambo.harness, ambo.cli
assert "numpy.random" not in sys.modules
assert ambo.cli.main({angle + ["--out", str(tmp_path / "angle")]!r}) == 0
assert ambo.cli.main({validate + ["--out", str(tmp_path / "validate")]!r}) == 0
assert "numpy.random" not in sys.modules
assert ambo.cli.main({extend + ["--out", str(tmp_path / "extend")]!r}) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "jsonschema")))
"""
    src = str(Path(ambo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_runs_do_not_load_numpy_ma(tmp_path):
    """A fresh process that runs the small angle case and the small
    inequalities suite (the contact-angle labels, the shift sums' levels)
    loads no numpy.ma, which np.unique would load."""
    argv = []
    for kind in ("angle", "inequalities"):
        preset, n, changes = SMALL[kind]
        config = str(_config(tmp_path / f"{kind}.yaml", preset, changes))
        argv.append([kind, config, "--n", str(n), "--out", str(tmp_path / kind)])
    script = f"""
import sys
import ambo.cli
assert all(ambo.cli.main(argv) == 0 for argv in {argv!r})
print("numpy.ma" in sys.modules)
"""
    src = str(Path(ambo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


# Bound on the tracemalloc peak of the small angle run below, in arrays
# of n^2 doubles: 3.34 measured, in a fresh process (5.66 while the set-up's
# gradient check, the run operator's substrate fields, the dumps and the
# contact angle's labels built full-grid temporaries); one more grid
# array breaks it.
ANGLE_PEAK_GRID_ARRAYS = 4.0


def test_a_band_angle_run_holds_few_grid_arrays(tmp_path, capsys):
    """Memory guard: the small angle run, set-up, both stages, the dumps
    and the contact angle, keeps its traced allocation peak under
    ANGLE_PEAK_GRID_ARRAYS grid arrays.  The same run goes once untraced
    first, so that no module it imports on first use counts, whatever
    ran before it."""
    preset, n, changes = SMALL["angle"]
    argv = ["angle", str(_config(tmp_path / "angle.yaml", preset, changes)), "--n", str(n)]
    assert cli.main(argv + ["--out", str(tmp_path / "untraced")]) == 0
    tracemalloc.start()
    try:
        code = cli.main(argv + ["--out", str(tmp_path / "traced")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert peak <= ANGLE_PEAK_GRID_ARRAYS * n * n * 8, peak / (n * n * 8)


def _ball_config(tmp_path, n, preserve, max_steps):
    """A 3-d ball of radius 0.4 read from a field file."""
    x = (np.arange(n) + 0.5) / n
    r2 = sum((c - 0.5) ** 2 for c in np.meshgrid(x, x, x, indexing="ij"))
    io.write_field(tmp_path / "ball.bin", (r2 < 0.4**2).astype(np.float64))
    doc = {
        "grid": {"d": 3, "n": n},
        "geometry": {"kind": "full"},
        "kernel": {"kind": "gaussian"},
        "scheme": {"h": 9.0e-3, "preserve_volume": preserve, "max_steps": max_steps},
        "initial": {"kind": "field", "path": str(tmp_path / "ball.bin")},
        "experiment": {"kind": "run"},
    }
    config = tmp_path / "ball.yaml"
    config.write_text(yaml.safe_dump(doc))
    return config


@pytest.mark.parametrize("kind", ["angle", "run"])
def test_thread_count_changes_no_output_byte(kind, tmp_path):
    """AMBO_THREADS = 1 and 2, which cap the BLAS pools, write the same
    bytes, in fresh processes.

    Both runs get their K_h*u by box products, which run on BLAS (the two
    tests below check that): the angle preset's small stages at n = 512,
    and a volume-preserving 3-d ball at n = 64.
    """
    if kind == "angle":
        preset, _, changes = SMALL["angle"]
        argv = [kind, str(_config(tmp_path / "angle.yaml", preset, changes)), "--n", "512"]
    else:
        argv = [kind, str(_ball_config(tmp_path, 64, True, 4))]
    src = str(Path(ambo.__file__).resolve().parents[1])
    dirs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {
            **os.environ,
            "AMBO_THREADS": threads,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        done = subprocess.run(
            [sys.executable, "-m", "ambo.cli", *argv, "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        dirs.append(out)
    files = sorted(p.name for p in dirs[0].iterdir())
    assert files == sorted(p.name for p in dirs[1].iterdir())
    assert "summary.json" in files and any(f.endswith(".csv") for f in files)
    for name in files:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def _box_products(monkeypatch):
    """Wraps that record each FFT convolution as "fft" and each
    convolve_cells call of the scheme as "box", or as "cells fft" when
    it took its FFT path."""
    calls, cells_convolve, convolve = [], kernel.convolve_cells, kernel.SampledKernel.convolve

    def recorded(*args):
        start = len(calls)
        out = cells_convolve(*args)
        calls[start:] = ["cells fft" if calls[start:] else "box"]
        return out

    monkeypatch.setattr(scheme, "convolve_cells", recorded)
    monkeypatch.setattr(
        kernel.SampledKernel, "convolve", lambda kh, f: calls.append("fft") or convolve(kh, f)
    )
    return calls


def test_thread_test_angle_run_takes_the_box_product(tmp_path, monkeypatch):
    """The angle run of the thread-count test gets the K_h*u of every
    state, state 0 and each changed step, by a box product, so that test
    also covers the box products in 2-d.  It makes no FFT convolution:
    the contact angle's smoothing is a box product too."""
    preset, _, changes = SMALL["angle"]
    config = _config(tmp_path / "angle.yaml", preset, changes)
    calls = _box_products(monkeypatch)
    code = cli.main(["angle", str(config), "--n", "512", "--out", str(tmp_path / "out")])
    assert code == 0
    assert calls.count("box") >= 10 and "cells fft" not in calls, calls
    assert "fft" not in calls, calls


@pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5])
def test_no_angle_step_fails_the_step_box_certificate(rho, tmp_path, monkeypatch):
    """Perf guard: at the Tier-1 size no step of the shipped angle preset,
    at any wetting contrast of the Young's-law check, fails its step-box
    certificate, so none widens to the whole grid and pays a second
    convolution.  Every step of both stages selects on its step box."""
    preset, n, changes = SMALL["angle"]
    changes = {**changes, "experiment": {**changes["experiment"], "sigma_ratio": rho}}
    config = _config(tmp_path / "angle.yaml", preset, changes)
    picks, select = [], scheme._select

    def recorded(*args):
        picks.append((len(args) > 3 and args[3] is not None, select(*args)))
        return picks[-1][1]

    monkeypatch.setattr(scheme, "_select", recorded)
    code = cli.main(["angle", str(config), "--n", str(n), "--out", str(tmp_path / "out")])
    assert code == 0
    assert None not in [picked for _, picked in picks]
    assert len(picks) >= 16 and all(boxed for boxed, _ in picks)


def test_thread_test_ball_run_takes_the_box_product(tmp_path, monkeypatch):
    """The 3-d run of the thread-count test gets every K_h*u by a box
    product, so that test also covers the box products in 3-d; it makes
    no FFT convolution, as K_h*1_container comes from the axis factors."""
    calls = _box_products(monkeypatch)
    argv = ["run", str(_ball_config(tmp_path, 64, True, 4)), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert calls == ["box"] * 5, calls


def test_bad_config_exits_1(tmp_path, capsys):
    unknown = tmp_path / "unknown.yaml"
    unknown.write_text("grid: {n: 64, m: 3}\n")
    assert cli.main(["validate", str(unknown), "--out", str(tmp_path / "a")]) == 1
    assert "unknown key 'm' in section 'grid'" in capsys.readouterr().err

    doc = _preset("validate")
    doc["anisotropy"] = {"kind": "elliptic", "matrix": [[1.3, 0.0], [0.0, 0.7]]}
    elliptic = tmp_path / "elliptic.yaml"
    elliptic.write_text(yaml.safe_dump(doc))
    assert cli.main(["validate", str(elliptic), "--out", str(tmp_path / "b")]) == 1
    assert "'gaussian' kernel induces" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, value, message",
    [
        ("initial", {"kind": "empty"}, "needs an analytic free-boundary initial shape"),
        ("tensions", {"gamma_pv": "1 + 0.1*x1"}, "needs a spatially constant gamma_pv"),
    ],
    ids=["empty_initial", "varying_gamma_pv"],
)
def test_converge_refuses_what_it_cannot_study(section, value, message, tmp_path, capsys):
    preset, n, _ = SMALL["converge"]
    doc = {**_preset(preset), section: value}
    config = tmp_path / "converge.yaml"
    config.write_text(yaml.safe_dump(doc))
    code = cli.main(["converge", str(config), "--n", str(n), "--out", str(tmp_path / "out")])
    assert code == 1
    assert message in capsys.readouterr().err


@UNDER_RESOLVED
def test_an_identity_kernel_matrix_runs_the_gaussian_byte_for_byte(tmp_path, capsys):
    """A run with kind elliptic_gaussian and matrix I writes the bytes of
    the same run with kind gaussian."""
    preset, n, changes = SMALL["run"]
    identity = {"kind": "elliptic_gaussian", "matrix": [[1.0, 0.0], [0.0, 1.0]]}
    outs = []
    for name, kernel in (("gaussian", {"kind": "gaussian"}), ("identity", identity)):
        config = _config(tmp_path / f"{name}.yaml", preset, {**changes, "kernel": kernel})
        outs.append(tmp_path / name)
        code = cli.main(["run", str(config), "--n", str(n), "--out", str(outs[-1])])
        assert code == 0, capsys.readouterr().err
    for name in ("steps.csv", "final_u.bin"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_unresolved_step_exits_2(tmp_path, capsys):
    # sqrt(h) = 3.2e-3 is below the grid spacing 1/64
    code = cli.main(["run", "--n", "64", "--h", "1e-5", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_extend_disk_divides_substrate_tensions_by_kernel_anisotropy():
    path = resources.files("ambo") / "presets" / "extend_disk.yaml"
    with resources.as_file(path) as p:
        ws = prepare(load_config(p))
    assert np.allclose(ws.gamma.matrix, np.diag([1.3, 0.7]), rtol=0.0, atol=1e-12)
    layer = boundary_layer_mask(ws.geometry)
    normals = ws.geometry.normal_band[(slice(None),) + np.nonzero(layer)]
    gamma_nu = ws.gamma(np.moveaxis(normals, 0, -1))
    assert gamma_nu.min() < gamma_nu.max() - 0.2  # the wall sees the ellipse
    assert np.abs(ws.tensions.sp[layer] * gamma_nu - 1.1).max() <= 1e-12
    assert np.abs(ws.tensions.sv[layer] * gamma_nu - 0.9).max() <= 1e-12
    assert ws.flags == {"tensions": True, "triangle": True}


def test_run_of_a_field_file_with_a_nan_cell_exits_1(tmp_path, capsys):
    """A field file with one NaN cell is refused as a phase before the
    run starts."""
    values = np.zeros((64, 64))
    values[32, 32] = np.nan
    io.write_field(tmp_path / "nan.bin", values)
    doc = _preset("shrink_circle")
    doc["initial"] = {"kind": "field", "path": str(tmp_path / "nan.bin")}
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(doc))
    argv = ["run", str(config), "--n", "64", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert "phase values must lie in [0,1]" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("preserve", [False, True])
def test_three_dimensional_ball_through_the_cli(preserve, tmp_path, capsys):
    """A 3-d ball of radius 0.4 read from a field file, at n = 32.

    Unconstrained, the energy never rises by more than the scheme's own
    1e-8 E(u0) slack and the ball vanishes (in 5 steps); volume-preserving,
    the phase keeps changing shape for all 30 steps while every step keeps
    exactly the initial number of cells.
    """
    config = _ball_config(tmp_path, 32, preserve, 30)
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--out", str(out)]) == 0, capsys.readouterr().err
    results = io.read_summary(out / "summary.json")["results"]
    steps = np.loadtxt(out / "steps.csv", delimiter=",", skiprows=1, ndmin=2)
    energy, volume, cells = steps[:, 1], steps[:, 2], steps[:, 3]
    assert volume[0] > 0.25
    if preserve:
        assert np.all(volume == volume[0])
        assert results["steps"] == 30 and len(np.unique(cells)) > 10
    else:
        assert np.all(np.diff(energy) <= 1e-8 * energy[0])
        assert results["stationary"] and results["final_volume"] == 0.0


# Traced peak of the run below, in full-grid float64 arrays: 9.07 measured
# with numpy 2.4.6 and scipy 1.17.1.  Holding one more array through a step
# (phi, or the initial field) reads 10.12.
FULL_GRID_ARRAYS_AT_PEAK = 10.0


def test_three_dimensional_run_holds_few_full_grid_arrays(tmp_path):
    """A 3-d full-torus ball run at n = 32 allocates at most ten full-grid
    arrays at once, counted by tracemalloc (numpy reports its buffers)."""
    config = load_config(
        _ball_config(tmp_path, 32, False, 30), {"output.dir": str(tmp_path / "out")}
    )
    tracemalloc.start()
    try:
        results = run_experiment(config)["results"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert results["stationary"] and results["steps"] > 3
    assert peak <= FULL_GRID_ARRAYS_AT_PEAK * 32**3 * 8


@pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5])
def test_youngs_law_at_the_contact_line(rho, tmp_path, capsys):
    """The angle preset (n = 512) settles at arccos(-rho) within 2.5 degrees.

    Measured errors: 1.572 / 0.722 / 0.132 degrees for rho = -0.5 / 0 /
    +0.5; the bound keeps a 0.93-degree margin over the worst.
    """
    out = tmp_path / "angle"
    code = cli.main(["angle", "--sigma-ratio", str(rho), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    results = io.read_summary(out / "summary.json")["results"]
    assert all(stage["stationary"] for stage in results["stages"])
    assert results["target_angle"] == pytest.approx(math.degrees(math.acos(-rho)))
    assert abs(results["mean_angle"] - results["target_angle"]) <= 2.5


def test_energy_gamma_converges_at_first_order(tmp_path, capsys):
    """converge_disk: E_h -> E with strictly falling errors, fitted order ~1.

    Measured order 0.9916264 (errors 2.6e-2, 6.4e-3, 1.7e-3); the band is
    +-5e-3 around it, far above the 2.3e-13 by which resampling the kernel
    moved it, and far below the gap to an order of 1/2 or 2.
    """
    out = tmp_path / "converge"
    assert cli.main(["converge", "--out", str(out)]) == 0, capsys.readouterr().err
    results = io.read_summary(out / "summary.json")["results"]
    errs = results["rel_errs"]
    assert len(errs) == 3
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert abs(results["order"] - 0.9916) <= 5e-3


def test_converge_at_one_h_is_the_row_of_a_longer_study(tmp_path, capsys):
    """converge_disk at n = 256 with the one h = 1e-3 fits no order and
    reports one error, and its convergence.csv row is byte for byte the
    h = 1e-3 row of the [4e-3, 1e-3] study."""
    rows = {}
    for h_values in ([1.0e-3], [4.0e-3, 1.0e-3]):
        config = _config(
            tmp_path / "converge.yaml", "converge_disk", {"experiment": {"h_values": h_values}}
        )
        out = tmp_path / f"h{len(h_values)}"
        code = cli.main(["converge", str(config), "--n", "256", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        results = io.read_summary(out / "summary.json")["results"]
        assert len(results["rel_errs"]) == len(h_values)
        rows[len(h_values)] = (results, (out / "convergence.csv").read_text().splitlines())
    (single, table), (_, longer) = rows[1], rows[2]
    assert single["order"] is None and single["h_values"] == [1.0e-3]
    assert table[0] == longer[0] and table[1:] == longer[2:]


def test_flags_are_offered_only_to_the_experiments_that_read_them(capsys):
    """Only run, angle and validate read scheme.h, and only run and angle
    read max_steps: elsewhere argparse refuses the flags (exit 2)."""
    for argv in (["converge", "--h", "1e-3"], ["monotonic", "--max-steps", "3"],
                 ["validate", "--max-steps", "3"]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2, argv
    assert "unrecognized arguments" in capsys.readouterr().err


def test_varying_tension_monotonicity_constant_stays_at_its_measurement(
    tmp_path, capsys
):
    """monotonic_varying at its shipped size and seed: c_overall_max <= 0.0.

    The theorem allows any c >= 0; the measured smallest c is 0.0 on all
    six (h, N) pairs of the 101 fields, so a change that makes some
    E_{N^2 h} exceed E_h shows here.
    """
    out = tmp_path / "monotonic"
    code = cli.main(["monotonic", "--preset", "monotonic_varying", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    results = io.read_summary(out / "summary.json")["results"]
    assert results["n_fields"] == 101 and len(results["combos"]) == 6
    assert not results["constant_tensions"]
    assert results["c_overall_max"] <= 0.0


def _counted(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _run_preset(preset, tmp_path, **overrides):
    entry = resources.files("ambo") / "presets" / f"{preset}.yaml"
    with resources.as_file(entry) as path:
        config = load_config(path, {"output.dir": str(tmp_path / preset), **overrides})
    return run_experiment(config)["results"]


def test_monotonic_preset_samples_each_step_size_once(tmp_path, monkeypatch):
    """The six (h, N) pairs of monotonic_constant ask for twelve step sizes,
    six of them distinct (2^2 * 2.5e-4 = 1e-3, 4^2 * 2.5e-4 = 2^2 * 1e-3)."""
    sampled = _counted(monkeypatch, energy, "scale_kernel")
    approx = _counted(monkeypatch, energy, "approx_energy")
    results = _run_preset("monotonic_constant", tmp_path, **{"experiment.n_fields": 2})
    assert len(results["combos"]) == 6 and results["n_fields"] == 3
    steps = [args[2] for args in sampled]
    assert len(steps) == len(set(steps)) == 6
    assert len(approx) == 6 * 3


def test_monotonic_step_size_beyond_the_wrap_limit_is_a_config_error(tmp_path, monkeypatch):
    """N^2 h = 9 * 4e-3 puts sqrt(N^2 h) times the Gaussian's wrap radius
    at 2.15, beyond the 1.5 that +-1 image sampling allows: a ConfigError
    naming h, N and the limit is raised before any kernel is sampled or
    energy computed."""
    sampled = _counted(monkeypatch, energy, "scale_kernel")
    approx = _counted(monkeypatch, energy, "approx_energy")
    message = r"N\^2 h = 0\.036 at h = 0\.004, N = 3 .* wrap_radius\(\) = 2\.15 must be <= 1\.5"
    with pytest.raises(ConfigError, match=message):
        _run_preset("monotonic_constant", tmp_path, **{"experiment.h_values": [1e-3, 4e-3]})
    assert sampled == [] and approx == []


def _fft_calls(monkeypatch):
    """The forward and inverse real FFTs made from now on (every one goes
    through numpy.fft.rfftn / irfftn, called by kernel._rfftn / _irfftn)."""
    return _counted(monkeypatch, np.fft, "rfftn"), _counted(monkeypatch, np.fft, "irfftn")


def test_inequalities_preset_transforms_each_field_once_per_h(tmp_path, monkeypatch):
    """Perf guard, one random field with 16 values on a disk at n = 256:
    the shift sum takes 1 container + 15 level + 1 field transforms and
    one inverse; the substrate mask is transformed once for every h; per
    h the kernel and its d = 2 tent-gradient kernels are transformed
    once, K_h*1_substrate is one inverse, and the field is transformed
    once for K_h*v and the two gradient convolutions (three inverses)."""
    forward, inverse = _fft_calls(monkeypatch)
    results = _run_preset("inequalities", tmp_path, **{"experiment.n_fields": 1})
    assert len(results["h_values"]) == 3 and results["all_ok"]
    assert len(forward) == (1 + 15 + 1) + 1 + 3 * (3 + 1)
    assert len(inverse) == 1 + 3 * (1 + 3)


def test_monotonic_preset_transforms_each_field_once(tmp_path, monkeypatch):
    """Perf guard: each of the 3 fields is transformed once for all six
    step sizes; per step size the kernel, the container and the substrate
    are transformed once, and each field's K_h*u is one inverse."""
    forward, inverse = _fft_calls(monkeypatch)
    _run_preset("monotonic_constant", tmp_path, **{"experiment.n_fields": 2})
    assert len(forward) == 3 + 6 * 3
    assert len(inverse) == 6 * (2 + 3)


def test_converge_preset_makes_no_transform(tmp_path, monkeypatch):
    """Perf guard: on the torus K_h*1_container comes from the kernel's
    axis factors and K_h*u of the disk from the box product, so the
    n = 512 kernel is neither transformed nor sampled on the grid."""
    forward, inverse = _fft_calls(monkeypatch)
    sampled = _counted(monkeypatch, kernel.SampledKernel, "_outer")
    results = _run_preset("converge_disk", tmp_path)
    assert len(results["h_values"]) == 3
    assert forward == inverse == sampled == []


def test_inequalities_preset_makes_one_shift_sum(tmp_path, monkeypatch):
    sums = _counted(monkeypatch, energy, "shift_weighted_sum")
    results = _run_preset("inequalities", tmp_path, **{"experiment.n_fields": 1})
    assert len(results["h_values"]) == 3 and results["all_ok"]
    ((fields, weights),) = sums
    assert len(fields) == 1 and len(weights) == 6
