"""On-disk formats and the strict YAML run configuration."""

import dataclasses
import json
import math
import re
import textwrap
from importlib import resources

import jsonschema
import numpy as np
import pytest

from ambo import cli
from ambo import io as io_module
from ambo.anisotropy import Isotropic
from ambo.config import (
    EXPERIMENTS,
    RunConfig,
    apply_overrides,
    build_geometry_from,
    build_initial,
    build_raw_tensions,
    build_scheme_config,
    build_tensions,
    config_from_mapping,
    initial_shape_spec,
    load_config,
)
from ambo.errors import ConfigError
from ambo.geometry import Band, build_geometry, make_shape
from ambo.grid import TorusGrid
from ambo.io import (
    SummaryError,
    atomic_write,
    check_summary,
    config_hash,
    read_field,
    read_summary,
    summary_schema,
    write_csv,
    write_field,
    write_pgm,
    write_summary,
)
from helpers import constant_tensions

# ---------------------------------------------------------------------------
# field binaries


def test_field_round_trip_is_bit_identical(tmp_path, rng):
    values = rng.normal(size=(5, 7, 3))
    values[0, 0, 0] = -0.0
    values[1, 2, 0] = 5e-324  # subnormal
    path = tmp_path / "field.bin"
    write_field(path, values)
    back = read_field(path)
    assert back.shape == values.shape
    assert back.tobytes() == values.tobytes()


def test_field_reader_rejects_corruption(tmp_path):
    path = tmp_path / "field.bin"
    write_field(path, np.arange(12.0).reshape(3, 4))
    good = path.read_bytes()

    (tmp_path / "junk.bin").write_bytes(b"JUNK" + good[4:])
    with pytest.raises(ConfigError, match="magic"):
        read_field(tmp_path / "junk.bin")

    bumped = bytearray(good)
    bumped[4] = 99
    (tmp_path / "v99.bin").write_bytes(bytes(bumped))
    with pytest.raises(ConfigError, match="version"):
        read_field(tmp_path / "v99.bin")

    (tmp_path / "short.bin").write_bytes(good[:-8])
    with pytest.raises(ConfigError, match="truncated"):
        read_field(tmp_path / "short.bin")

    # ends inside the 6-byte header, then inside the shape words
    for size in (5, 7):
        (tmp_path / "head.bin").write_bytes(good[:size])
        with pytest.raises(ConfigError, match="truncated field file"):
            read_field(tmp_path / "head.bin")

    with pytest.raises(ConfigError, match="axis"):
        write_field(tmp_path / "scalar.bin", np.float64(3.0))


def test_pgm_layout(tmp_path):
    path = tmp_path / "im.pgm"
    write_pgm(path, np.array([[0.0, 1.0], [0.5, 0.25]]), lo=0.0, hi=1.0)
    blob = path.read_bytes()
    header = b"P5\n2 2\n65535\n"
    assert blob.startswith(header)
    pixels = np.frombuffer(blob[len(header):], dtype=">u2").reshape(2, 2)
    # image rows run from large x2 down; columns follow x1
    assert pixels.tolist() == [[65535, 16384], [0, 32768]]

    write_pgm(path, np.ones((4, 4)))  # zero span renders black
    body = path.read_bytes()[len(b"P5\n4 4\n65535\n"):]
    assert not any(body)

    with pytest.raises(ConfigError, match="2-d"):
        write_pgm(path, np.zeros(8))


# ---------------------------------------------------------------------------
# CSV


def test_csv_values_parse_back_exactly(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(
        path,
        ("a", "b", "c", "d"),
        [(math.pi, float("nan"), True, 7), (-0.0, 2.5e-17, False, -3)],
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c,d"
    row = lines[1].split(",")
    assert float(row[0]) == math.pi
    assert math.isnan(float(row[1]))
    assert row[2] == "true" and row[3] == "7"
    row = lines[2].split(",")
    assert float(row[1]) == 2.5e-17
    assert row[2] == "false" and row[3] == "-3"


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ConfigError, match="cells"):
        write_csv(path, ("a", "b"), [(1.0,)])
    assert not path.exists()


# ---------------------------------------------------------------------------
# summaries


def _summary_doc(**results):
    return {
        "experiment": "validate",
        "config_hash": "0" * 64,
        "seed": 3,
        "parameters": {"grid": {"d": 2, "n": 64}},
        "admissibility": {"tensions": np.bool_(True), "triangle": None},
        "results": results,
    }


def test_summary_sanitizes_and_round_trips(tmp_path):
    path = tmp_path / "summary.json"
    doc = _summary_doc(
        value=np.float64(1.5),
        infinite=math.inf,
        table=np.arange(3.0),
        count=np.int32(4),
    )
    written = write_summary(path, doc)
    assert written["results"]["infinite"] is None
    assert written["results"]["table"] == [0.0, 1.0, 2.0]
    assert written["results"]["count"] == 4
    assert written["admissibility"] == {"tensions": True, "triangle": None}
    assert read_summary(path) == written == json.loads(path.read_text())


def test_summary_schema_is_enforced(tmp_path):
    path = tmp_path / "summary.json"
    bad = _summary_doc()
    bad["experiment"] = "mystery"
    with pytest.raises(SummaryError, match=r"\$\.experiment: 'mystery' is not one of"):
        write_summary(path, bad)

    missing = _summary_doc()
    del missing["results"]
    with pytest.raises(SummaryError, match="required key 'results'"):
        write_summary(path, missing)

    extra = _summary_doc()
    extra["comment"] = "hi"
    with pytest.raises(SummaryError, match="key 'comment' is not allowed"):
        write_summary(path, extra)

    short_hash = _summary_doc()
    short_hash["config_hash"] = "abc"
    with pytest.raises(SummaryError, match="does not match"):
        write_summary(path, short_hash)

    assert not path.exists()  # validation precedes writing


def _jsonschema_validator():
    """jsonschema's draft-7 validator of the shipped schema, the oracle of
    the package's own check; the schema itself must be a valid draft 7."""
    schema = summary_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def test_shipped_schema_uses_only_the_checked_keywords():
    """The package's own check implements these keywords, types and
    string enums; a schema that used anything else would be half checked."""
    keywords = {"type", "required", "properties", "additionalProperties", "enum", "pattern"}
    pending = [summary_schema()]
    while pending:
        schema = pending.pop()
        assert isinstance(schema, dict), schema
        assert set(schema) <= keywords | {"$schema", "title", "description"}, schema
        types = schema.get("type", [])
        assert set([types] if isinstance(types, str) else types) <= set(io_module._JSON_TYPES)
        assert all(isinstance(v, str) for v in schema.get("enum", []))
        pending += schema.get("properties", {}).values()
        extra = schema.get("additionalProperties", True)
        if not isinstance(extra, bool):
            pending.append(extra)


def _changed(**changes):
    """A valid summary with top-level keys replaced (None deletes one)."""
    doc = json.loads(json.dumps(_summary_doc(), default=bool))
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return doc


# Documents that break the schema, at least one per keyword it uses,
# and borderline ones that meet it.
SCHEMA_CASES = {
    "type_object": ["not", "a", "mapping"],
    "type_string": _changed(experiment=7),
    "type_integer": _changed(seed=2.5),
    "type_bool_is_no_integer": _changed(seed=True),
    "type_union": _changed(admissibility={"tensions": "yes"}),
    "required": _changed(admissibility=None),
    "properties_nested": _changed(outputs={"summary": 3}),
    "additional_false": _changed(extra={}),
    "additional_schema": _changed(admissibility={"kernel": 1.0}),
    "enum": _changed(experiment="mystery"),
    "pattern": _changed(config_hash="A" * 64),
    "valid": _changed(),
    "valid_integral_float_seed": _changed(seed=3.0),
    "valid_no_seed": _changed(seed=None),
    "valid_extra_flag": _changed(admissibility={"tensions": None, "kernel": False}),
}


@pytest.mark.parametrize("case", SCHEMA_CASES)
def test_summary_check_agrees_with_jsonschema(case):
    doc = SCHEMA_CASES[case]
    valid = _jsonschema_validator().is_valid(doc)
    assert valid == case.startswith("valid")
    if valid:
        check_summary(doc)
    else:
        with pytest.raises(SummaryError):
            check_summary(doc)


def test_atomic_write_discards_partial_output(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"previous")
    with pytest.raises(RuntimeError, match="boom"):
        with atomic_write(target) as handle:
            handle.write(b"partial")
            raise RuntimeError("boom")
    assert target.read_bytes() == b"previous"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


def test_config_hash_is_order_independent():
    a = {"x": 1, "y": {"b": 2.5, "a": [1, 2]}}
    b = {"y": {"a": [1, 2], "b": 2.5}, "x": 1}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64
    assert set(config_hash(a)) <= set("0123456789abcdef")
    assert config_hash({**a, "x": 2}) != config_hash(a)


# ---------------------------------------------------------------------------
# configuration loading


def _write_yaml(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(textwrap.dedent(text))
    return path


def test_defaults(tmp_path):
    cfg = load_config(_write_yaml(tmp_path, "grid: {n: 64}\n"))
    assert (cfg.d, cfg.n) == (2, 64)
    assert cfg.geometry == {"kind": "disk", "center": [0.5, 0.5], "radius": 0.3}
    assert cfg.kernel == {"kind": "gaussian"}
    assert cfg.tensions["mode"] == "direct"
    assert cfg.tensions["gamma_pv"] == "1"
    assert cfg.scheme == {
        "h": 1.0e-3,
        "preserve_volume": False,
        "max_steps": 200,
        "stationarity_window": 3,
    }
    assert cfg.initial == {"kind": "disk", "center": [0.5, 0.5], "radius": 0.15}
    assert (cfg.experiment, cfg.experiment_params) == ("run", {})
    assert (cfg.output_dir, cfg.snapshot_every, cfg.seed) == ("out", 0, 0)


def test_unknown_keys_are_named(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown key 'm' in section 'grid'"):
        load_config(_write_yaml(tmp_path, "grid: {n: 64, m: 3}\n"))
    with pytest.raises(ConfigError, match=r"unknown key 'grdi' in section 'top level'"):
        load_config(_write_yaml(tmp_path, "grdi: {n: 64}\n"))
    with pytest.raises(ConfigError, match=r"'dt' in section 'scheme'.*allowed.*max_steps"):
        load_config(_write_yaml(tmp_path, "scheme: {dt: 0.1}\n"))
    with pytest.raises(ConfigError, match=r"unknown kind 'square' in section 'geometry'"):
        load_config(_write_yaml(tmp_path, "geometry: {kind: square}\n"))
    with pytest.raises(ConfigError, match=r"unknown kind 'dance' in section 'experiment'"):
        load_config(_write_yaml(tmp_path, "experiment: {kind: dance}\n"))
    # geometry parameters are checked against the declared kind
    with pytest.raises(ConfigError, match=r"'radius' in section 'geometry'"):
        load_config(
            _write_yaml(tmp_path, "geometry: {kind: band, lo: 0.2, hi: 0.9, radius: 1}\n")
        )


def test_three_dimensional_initial_must_be_a_field_or_empty(tmp_path, capsys):
    """The disk and cap shapes are 2-d; d = 3 takes a field file."""
    shapes = (
        "",  # the default initial kind is disk
        "initial: {kind: disk, center: [0.5, 0.5, 0.5], radius: 0.3}\n",
        "initial: {kind: cap, angle: 90.0, radius: 0.1}\n",
    )
    for shape in shapes:
        path = _write_yaml(tmp_path, "grid: {d: 3, n: 32}\ngeometry: {kind: full}\n" + shape)
        with pytest.raises(
            ConfigError, match=r"'kind' in section 'initial' is '\w+', a 2-d shape.*'field' or 'empty'"
        ):
            load_config(path)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "with d = 3 use 'field' or 'empty'" in capsys.readouterr().err
    empty = load_config(_write_yaml(tmp_path, "grid: {d: 3, n: 32}\ninitial: {kind: empty}\n"))
    assert empty.initial == {"kind": "empty"}


def test_anisotropy_section_only_restates_the_kernel(tmp_path):
    # accepted, and ignored, where the kernel's anisotropy is isotropic
    for text in (
        "anisotropy: {kind: isotropic}\n",
        "anisotropy: {}\n",
        "anisotropy:\n",
    ):
        cfg = load_config(_write_yaml(tmp_path, text))
        assert "anisotropy" not in cfg.document()
    rejected = {
        "anisotropy: {kind: elliptic, matrix: [[1.3, 0], [0, 0.7]]}\n": "gaussian",
        "anisotropy: {kind: isotropic, c0: 2}\n": "gaussian",
        "anisotropy: {kind: isotropic}\n"
        "kernel: {kind: elliptic_gaussian, matrix: [[1, 0], [0, 2]]}\n": "elliptic_gaussian",
    }
    for text, kernel in rejected.items():
        with pytest.raises(ConfigError, match=rf"'anisotropy'.*'{kernel}' kernel"):
            load_config(_write_yaml(tmp_path, text))


# Settings that no run varied: the tent kernel and the ellipse shapes went,
# and keys that every run set to one value are now constants of the code.
REMOVED_KINDS = {
    "kernel.triangular": "kernel: {kind: triangular}",
    "geometry.ellipse": "geometry: {kind: ellipse}",
    "initial.ellipse": "initial: {kind: ellipse}",
}
REMOVED_KEYS = {
    "kernel.radius": "kernel: {kind: gaussian, radius: 1.0}",
    "geometry.a": "geometry: {kind: disk, a: 0.3}",
    "geometry.b": "geometry: {kind: disk, b: 0.2}",
    "geometry.axis": "geometry: {kind: band, lo: 0.25, hi: 0.95, axis: 1}",
    "geometry.delta": "geometry: {kind: disk, delta: 0.05}",
    "tensions.delta": "tensions: {delta: 0.05}",
    "initial.a": "initial: {kind: disk, a: 0.2}",
    "initial.b": "initial: {kind: disk, b: 0.1}",
    "initial.center_x": "initial: {kind: cap, radius: 0.1, center_x: 0.5}",
    "experiment.window_cells": "experiment: {kind: angle, window_cells: 12}",
    "experiment.levels": "experiment: {kind: inequalities, levels: 16}",
    "experiment.include_disk": "experiment: {kind: monotonic, include_disk: true}",
}


@pytest.mark.parametrize("setting", [*REMOVED_KINDS, *REMOVED_KEYS])
def test_removed_settings_are_rejected_by_name(tmp_path, setting):
    section, name = setting.split(".")
    if setting in REMOVED_KINDS:
        text, what = REMOVED_KINDS[setting], "kind"
    else:
        text, what = REMOVED_KEYS[setting], "key"
    with pytest.raises(ConfigError, match=rf"unknown {what} '{name}' in section '{section}'"):
        load_config(_write_yaml(tmp_path, text + "\n"))


def test_snapshot_cadence_is_for_runs_only(tmp_path, capsys):
    """Only the run experiment writes snapshots, so only it takes a cadence."""
    assert load_config(_write_yaml(tmp_path, "output: {snapshot_every: 2}\n")).snapshot_every == 2
    for kind in sorted(set(EXPERIMENTS) - {"run"}):
        path = _write_yaml(tmp_path, f"experiment: {kind}\noutput: {{snapshot_every: 2}}\n")
        with pytest.raises(ConfigError, match=r"key 'snapshot_every' in section 'output'"):
            load_config(path)
        assert load_config(path, {"output.snapshot_every": 0}).snapshot_every == 0
        with pytest.raises(SystemExit):
            cli.main([kind, "--snapshot-every", "2"])
        assert "--snapshot-every" in capsys.readouterr().err


def test_type_errors_are_specific(tmp_path):
    with pytest.raises(ConfigError, match=r"'h' in section 'scheme' must be a number"):
        load_config(_write_yaml(tmp_path, "scheme: {h: fast}\n"))
    with pytest.raises(ConfigError, match=r"'max_steps' in section 'scheme' must be an integer"):
        load_config(_write_yaml(tmp_path, "scheme: {max_steps: 2.5}\n"))
    with pytest.raises(ConfigError, match=r"'preserve_volume' .* true or false"):
        load_config(_write_yaml(tmp_path, "scheme: {preserve_volume: 1}\n"))
    with pytest.raises(ConfigError, match=r"'d' in section 'grid' must be 2 or 3"):
        load_config(_write_yaml(tmp_path, "grid: {d: 4}\n"))
    with pytest.raises(ConfigError, match=r"'mode' in section 'tensions'"):
        load_config(_write_yaml(tmp_path, "tensions: {mode: middle}\n"))
    with pytest.raises(ConfigError, match=r"'h_values' .* non-empty list"):
        load_config(
            _write_yaml(tmp_path, "experiment: {kind: converge, h_values: []}\n")
        )
    # a center has one number per axis of its shape: d for the container,
    # 2 for the initial disk; nothing is broadcast
    list_of = r"'center' in section '{}' must be a list of {} numbers"
    centers = {
        "initial: {kind: disk, center: [0.3]}\n": list_of.format("initial", 2),
        "initial: {kind: disk, center: 5}\n": list_of.format("initial", 2),
        "initial: {kind: disk, center: [0.5, half]}\n": r"'center' .* must be a number",
        "geometry: {kind: disk, center: [0.5, 0.5, 0.5]}\n": list_of.format("geometry", 2),
        "grid: {d: 3}\ngeometry: {kind: disk, center: [0.5, 0.5]}\ninitial: {kind: empty}\n": (
            list_of.format("geometry", 3)
        ),
    }
    for text, message in centers.items():
        with pytest.raises(ConfigError, match=message):
            load_config(_write_yaml(tmp_path, text))
    path = _write_yaml(tmp_path, "initial: {kind: disk, center: 5}\nexperiment: energy\n")
    assert cli.main(["energy", str(path), "--out", str(tmp_path / "out")]) == 1


def test_shape_numbers_are_checked_at_load(tmp_path, capsys):
    """The scalar shape keys must be real numbers (not bool), and a cap
    and a band need their sizes; each error names the key and section."""
    number = r"key '{}' in section '{}' must be a number"
    cases = {
        "geometry: {kind: disk, radius: big}\n": number.format("radius", "geometry"),
        "geometry: {kind: band, lo: true, hi: 0.9}\n": number.format("lo", "geometry"),
        "geometry: {kind: band, lo: 0.2, hi: [1]}\n": number.format("hi", "geometry"),
        "initial: {kind: disk, radius: null}\n": number.format("radius", "initial"),
        "initial: {kind: cap, angle: wide, radius: 0.1}\n": number.format("angle", "initial"),
        "geometry: {kind: band, hi: 0.9}\n": "kind 'band' in section 'geometry' needs key 'lo'",
    }
    for text, message in cases.items():
        with pytest.raises(ConfigError, match=message):
            load_config(_write_yaml(tmp_path, text))
    cfg = load_config(_write_yaml(tmp_path, "initial: {kind: disk, radius: '0.2'}\n"))
    assert cfg.initial["radius"] == 0.2

    for text, message in [
        (
            "geometry: {kind: band, lo: 0.25, hi: 0.95}\ninitial: {kind: cap, angle: 90}\n",
            "kind 'cap' in section 'initial' needs key 'radius'",
        ),
        ("geometry: {kind: disk, radius: big}\n", number.format("radius", "geometry")),
    ]:
        path = _write_yaml(tmp_path, text + "grid: {n: 64}\n")
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(message, err), err


def test_yaml_coercions(tmp_path):
    # 1e-3 without a decimal point parses as a string; loading coerces it
    cfg = load_config(
        _write_yaml(
            tmp_path,
            """\
            scheme: {h: 1e-3}
            tensions: {gamma_pv: 1.3}
            """,
        )
    )
    assert cfg.scheme["h"] == 1.0e-3
    assert cfg.tensions["gamma_pv"] == "1.3"
    raw = build_raw_tensions(cfg)
    assert raw.sample("pv", TorusGrid(2, 16)).max() == 1.3


def test_file_level_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.yaml")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(_write_yaml(tmp_path, "grid: [1,\n"))
    with pytest.raises(ConfigError, match="mapping at the top level"):
        load_config(_write_yaml(tmp_path, "- 1\n- 2\n"))
    empty = load_config(_write_yaml(tmp_path, "\n"))
    assert empty.n == 256


def test_experiment_section_forms(tmp_path):
    cfg = load_config(_write_yaml(tmp_path, "experiment: angle\n"))
    assert cfg.experiment == "angle"
    assert cfg.experiment_params == {"sigma_ratio": 0.0, "coarse_h": 1.0e-3}

    cfg = load_config(
        _write_yaml(
            tmp_path,
            "experiment: {kind: monotonic, factors: [2], n_fields: 5}\n",
        )
    )
    assert cfg.experiment_params["factors"] == [2]
    assert cfg.experiment_params["n_fields"] == 5
    assert cfg.experiment_params["h_values"] == [2.5e-4, 1.0e-3]  # default survives

    with pytest.raises(ConfigError, match=r"'coarse_h' in section 'experiment'"):
        load_config(
            _write_yaml(tmp_path, "experiment: {kind: angle, coarse_h: [1]}\n")
        )

    # an empty or negative ensemble would pass every check vacuously
    for kind in ("monotonic", "inequalities"):
        for n_fields in (0, -1):
            with pytest.raises(
                ConfigError, match=r"'n_fields' in section 'experiment' must be >= 1"
            ):
                load_config(
                    _write_yaml(
                        tmp_path, f"experiment: {{kind: {kind}, n_fields: {n_fields}}}\n"
                    )
                )


@pytest.mark.parametrize(
    "experiment",
    [
        "{kind: converge, h_values: [4.0e-3, 1.0e-3, -2.5e-4]}",
        "{kind: converge, h_values: [4.0e-3, 0.0]}",
        "{kind: monotonic, h_values: [.nan]}",
        "{kind: inequalities, h_values: [-1.0e-3]}",
        "{kind: angle, coarse_h: -1.0e-3}",
        "{kind: angle, coarse_h: 0}",
    ],
)
def test_experiment_time_steps_must_be_positive(experiment, tmp_path, capsys):
    """A non-positive (or NaN) entry of h_values or coarse_h is refused at
    load, by a message that names the key and its section, and the CLI
    exits 1 with it."""
    key = "coarse_h" if "coarse_h" in experiment else "h_values"
    message = f"key '{key}' in section 'experiment' must be positive"
    path = _write_yaml(tmp_path, f"experiment: {experiment}\n")
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    kind = experiment.split(",")[0].split()[-1]
    assert cli.main([kind, str(path), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "scheme, argv",
    [
        ("{h: -1.0}", ["--h", "-1"]),
        ("{h: 0}", ["--h", "0"]),
        ("{h: .nan}", ["--h", "nan"]),
        ("{max_steps: 0}", ["--max-steps", "0"]),
        ("{stationarity_window: 0}", None),
    ],
)
def test_scheme_settings_out_of_range_name_their_key(scheme, argv, tmp_path, capsys):
    """A non-positive (or NaN) scheme.h, and a max_steps or
    stationarity_window below 1, are refused at load by a message that
    names the key and its section, from a config file and from a flag."""
    key = scheme[1:].split(":")[0]
    bound = "positive" if key == "h" else ">= 1"
    message = f"key '{key}' in section 'scheme' must be {bound}"
    path = _write_yaml(tmp_path, f"scheme: {scheme}\n")
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    if argv is not None:
        assert cli.main(["run", *argv, "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("n", [0, 3, -8])
def test_grid_size_below_four_names_its_key(n, tmp_path, capsys):
    message = f"key 'n' in section 'grid' must be >= 4, got {n}"
    with pytest.raises(ConfigError, match=message):
        load_config(_write_yaml(tmp_path, f"grid: {{n: {n}}}\n"))
    assert cli.main(["validate", "--n", str(n), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


def test_apply_overrides_dotted_paths():
    doc = {"scheme": {"h": 1.0}}
    out = apply_overrides(
        doc, {"scheme.h": 2.0, "grid.n": 64, "seed": None, "output.dir": "elsewhere"}
    )
    assert out["scheme"]["h"] == 2.0
    assert out["grid"]["n"] == 64
    assert out["output"]["dir"] == "elsewhere"
    assert "seed" not in out
    assert doc == {"scheme": {"h": 1.0}}


def test_document_round_trip_and_hash_stability(tmp_path):
    cfg = load_config(
        _write_yaml(
            tmp_path,
            """\
            grid: {d: 2, n: 128}
            geometry: {kind: band, lo: 0.25, hi: 0.95}
            tensions: {mode: direct, gamma_pv: "1", gamma_sp: "1.2", gamma_sv: "0.9"}
            scheme: {h: 1.0e-3, preserve_volume: true}
            initial: {kind: cap, angle: 100.0, radius: 0.12}
            experiment: {kind: run}
            seed: 11
            """,
        )
    )
    doc = cfg.document()
    again = config_from_mapping(doc)
    assert again == cfg
    assert config_hash(doc) == config_hash(again.document())


def test_every_preset_loads_and_its_echo_round_trips():
    presets = cli.list_presets()
    assert len(presets) == 10
    for name in presets:
        with resources.as_file(resources.files("ambo") / "presets" / f"{name}.yaml") as path:
            cfg = load_config(path)
        assert config_from_mapping(cfg.document()) == cfg, name


ANGLE = {
    "grid": {"n": 64},
    "geometry": {"kind": "band", "lo": 0.25, "hi": 0.95},
    "initial": {"kind": "cap", "angle": 90.0, "radius": 0.16},
}


def test_sigma_ratio_fixes_the_angle_tensions_and_volume_constraint():
    cfg = config_from_mapping({**ANGLE, "experiment": {"kind": "angle", "sigma_ratio": 0.5}})
    assert cfg.tensions == {
        "mode": "direct",
        "gamma_pv": "1",
        "gamma_sp": "1.25",
        "gamma_sv": "0.75",
    }
    assert cfg.scheme["preserve_volume"] is True

    rejected = {
        "tensions": (
            {"tensions": {"gamma_pv": "1", "gamma_sp": "1", "gamma_sv": "1"}},
            r"section 'tensions' is set by key 'sigma_ratio'",
        ),
        "preserve_volume": (
            {"scheme": {"preserve_volume": False}},
            r"key 'preserve_volume' in section 'scheme' cannot be false",
        ),
        "sigma_ratio": (
            {"experiment": {"kind": "angle", "sigma_ratio": 1.5}},
            r"key 'sigma_ratio' in section 'experiment' must lie in \[-1, 1\]",
        ),
    }
    for sections, message in rejected.values():
        doc = {**ANGLE, "experiment": {"kind": "angle", "sigma_ratio": 0.5}, **sections}
        with pytest.raises(ConfigError, match=message):
            config_from_mapping(doc)


@pytest.mark.parametrize("rho", [-1.0, -0.5, 0.0, 0.1, 0.3, 0.5, 1.0])
def test_angle_tensions_equal_the_constant_fields(rho):
    """The expressions sigma_ratio writes sample to exactly 1, 1 +- rho/2."""
    cfg = config_from_mapping({**ANGLE, "experiment": {"kind": "angle", "sigma_ratio": rho}})
    geometry = build_geometry_from(cfg)
    t, audit = build_tensions(cfg, geometry, Isotropic(2, 1.0))
    ref = constant_tensions(geometry.grid, 1.0, 1.0 + 0.5 * rho, 1.0 - 0.5 * rho)
    for name in ("pv", "sp", "sv"):
        assert np.array_equal(getattr(t, name), getattr(ref, name)), name
    assert (t.lower, t.upper) == (ref.lower, ref.upper)
    assert audit.ok


def test_angle_needs_a_cap_on_a_band(tmp_path, capsys):
    disk = tmp_path / "disk.yaml"
    disk.write_text(json.dumps({**ANGLE, "initial": {"kind": "disk"}}))
    assert cli.main(["angle", str(disk), "--out", str(tmp_path / "out")]) == 1
    assert "needs a cap initial phase on a 2-d band" in capsys.readouterr().err


def test_builders(tmp_path):
    cfg = config_from_mapping(
        {
            "grid": {"n": 64},
            "geometry": {"kind": "band", "lo": 0.25, "hi": 0.95},
            "initial": {"kind": "cap", "angle": 90.0, "radius": 0.12},
            "scheme": {"h": 2e-3, "preserve_volume": True, "max_steps": 5},
        }
    )
    geometry = build_geometry_from(cfg)
    assert isinstance(geometry.shape, Band)
    assert geometry.grid.n == 64
    cap = build_initial(cfg, geometry)
    assert cap.volume() > 0
    assert dataclasses.asdict(build_scheme_config(cfg)) == cfg.scheme

    empty = config_from_mapping({"grid": {"n": 64}, "initial": {"kind": "empty"}})
    assert build_initial(empty, build_geometry_from(empty)).volume() == 0.0

    # initial fields load from the binary format
    full = config_from_mapping({"grid": {"n": 64}, "geometry": {"kind": "full"}})
    full_geometry = build_geometry_from(full)
    u = np.zeros((64, 64))
    u[10:20, 30:40] = 1.0
    write_field(tmp_path / "u.bin", u)
    from_file = config_from_mapping(
        {
            "grid": {"n": 64},
            "geometry": {"kind": "full"},
            "initial": {"kind": "field", "path": str(tmp_path / "u.bin")},
        }
    )
    assert np.array_equal(build_initial(from_file, full_geometry).values, u)

    missing_path = config_from_mapping({"grid": {"n": 64}, "initial": {"kind": "field"}})
    with pytest.raises(ConfigError, match="path"):
        build_initial(missing_path, build_geometry_from(missing_path))

    cap_on_disk = config_from_mapping(
        {"grid": {"n": 64}, "initial": {"kind": "cap", "angle": 90.0, "radius": 0.1}}
    )
    with pytest.raises(ConfigError, match="band"):
        build_initial(cap_on_disk, build_geometry_from(cap_on_disk))
    # the analytic shape is None exactly where no shape can be drawn
    assert initial_shape_spec(cap_on_disk, build_geometry_from(cap_on_disk)) is None
    assert initial_shape_spec(from_file, full_geometry) is None
    assert initial_shape_spec(cfg, geometry).wetted

