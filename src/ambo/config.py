"""Declarative run configuration.

One YAML document with fixed sections describes a run: grid, container
geometry, kernel, tension expressions, scheme parameters, the initial
phase, the experiment to perform, output location and the seed for
randomized suites.  Loading is strict — unknown keys are rejected by name
together with their section, so typos cannot silently fall back to
defaults.

Every experiment reads these sections; ``experiment`` adds only what is
specific to the study.  The angle experiment's ``sigma_ratio`` fixes the
direct-mode tensions (1, 1 + rho/2, 1 - rho/2) and ``preserve_volume:
true`` at load time and rejects other values, so the echo describes the run.

The language offers only what runs set.  The kernel is a Gaussian
|det L| G(Lx), with L = I (``gaussian``) or a given ``matrix``
(``elliptic_gaussian``); the containers a disk, a band in x2 and the
full torus; the initial phase a disk, a cap on the band, a field file or
nothing.  What every run sets alike is a constant of the code, not a
key: the strip width of the tension construction (8 spacings), the 16
levels of the random ensemble fields, the disk indicator in the
monotonicity ensemble and the 12 interface rows of the contact-angle fit.

There is no anisotropy section: the surface-tension anisotropy is the one
the kernel induces (:func:`ambo.anisotropy.induced_anisotropy`).  For
older configs, ``anisotropy: {kind: isotropic}`` or an empty section is
still accepted, and ignored, when the kernel's anisotropy is isotropic.

The sections stay plain data on the :class:`RunConfig`; the ``build_*``
helpers at the bottom turn them into live objects from the other modules.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import yaml

from .anisotropy import Anisotropy
from .energy import PhaseField, ShapeSpec
from .errors import ConfigError
from .geometry import Band, Geometry, build_geometry, make_shape
from .grid import TorusGrid
from .io import read_field
from .kernel import GaussianKernel
from .scheme import SchemeConfig
from .tensions import (
    ModifiedTensions,
    RawTensions,
    TensionError,
    TriangleReport,
    extend_substrate,
    verify_triangle,
)

__all__ = [
    "EXPERIMENTS",
    "RunConfig",
    "apply_overrides",
    "build_geometry_from",
    "build_initial",
    "build_kernel_from",
    "build_raw_tensions",
    "build_scheme_config",
    "build_tensions",
    "config_from_mapping",
    "initial_shape_spec",
    "load_config",
]

EXPERIMENTS = (
    "run",
    "converge",
    "monotonic",
    "inequalities",
    "angle",
    "validate",
)

_TOP_KEYS = {
    "grid",
    "geometry",
    "anisotropy",
    "kernel",
    "tensions",
    "scheme",
    "initial",
    "experiment",
    "output",
    "seed",
}

_GEOMETRY_KINDS = {
    "disk": {"center", "radius"},
    "band": {"lo", "hi"},
    "full": set(),
}
_KERNEL_KINDS = {
    "gaussian": set(),
    "elliptic_gaussian": {"matrix"},
}
_INITIAL_KINDS = {
    "disk": {"center", "radius"},
    "cap": {"angle", "radius"},
    "field": {"path"},
    "empty": set(),
}

_EXPERIMENT_DEFAULTS: dict[str, dict] = {
    "run": {},
    "converge": {"h_values": [4.0e-3, 1.0e-3, 2.5e-4]},
    "monotonic": {
        "factors": [2, 3, 4],
        "h_values": [2.5e-4, 1.0e-3],
        "n_fields": 100,
    },
    "inequalities": {
        "h_values": [4.0e-3, 1.0e-3, 2.5e-4],
        "n_fields": 100,
    },
    "angle": {"sigma_ratio": 0.0, "coarse_h": 1.0e-3},
    "validate": {},
}

_FLOAT_PARAMS = {"sigma_ratio", "coarse_h"}
_INT_PARAMS = {"n_fields"}
_FLOAT_LIST_PARAMS = {"h_values"}
_INT_LIST_PARAMS = {"factors"}


def _fail(source: str, message: str) -> ConfigError:
    return ConfigError(f"{source}: {message}")


def _as_float(value, key: str, section: str, source: str) -> float:
    if isinstance(value, bool) or value is None:
        raise _fail(source, f"key '{key}' in section '{section}' must be a number")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise _fail(
            source, f"key '{key}' in section '{section}' must be a number, got {value!r}"
        ) from None


def _as_int(value, key: str, section: str, source: str) -> int:
    if isinstance(value, bool):
        raise _fail(source, f"key '{key}' in section '{section}' must be an integer")
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise _fail(
            source,
            f"key '{key}' in section '{section}' must be an integer, got {value!r}",
        ) from None
    if out != _as_float(value, key, section, source):
        raise _fail(source, f"key '{key}' in section '{section}' must be an integer")
    return out


def _as_bool(value, key: str, section: str, source: str) -> bool:
    if isinstance(value, bool):
        return value
    raise _fail(
        source, f"key '{key}' in section '{section}' must be true or false, got {value!r}"
    )


def _as_point(value, dim: int, key: str, section: str, source: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != dim:
        raise _fail(
            source,
            f"key '{key}' in section '{section}' must be a list of {dim} numbers, "
            f"got {value!r}",
        )
    return [_as_float(v, key, section, source) for v in value]


def _shape_numbers(
    section: dict, keys: tuple, required: tuple, name: str, source: str
) -> None:
    """Check the scalar ``keys`` of a shape section as numbers, in place;
    each key of ``required`` must be there."""
    for key in required:
        if key not in section:
            raise _fail(
                source,
                f"kind '{section['kind']}' in section '{name}' needs key '{key}'",
            )
    for key in keys:
        if key in section:
            section[key] = _as_float(section[key], key, name, source)


def _mapping_section(doc: dict, name: str, source: str) -> dict:
    raw = doc.get(name) or {}
    if not isinstance(raw, dict):
        raise _fail(source, f"section '{name}' must be a mapping")
    return dict(raw)


def _check_keys(raw: dict, allowed, name: str, source: str) -> None:
    for key in raw:
        if key not in allowed:
            raise _fail(
                source,
                f"unknown key '{key}' in section '{name}' "
                f"(allowed: {sorted(allowed)})",
            )


def _check_legacy_anisotropy(doc: dict, kernel_kind: str, source: str) -> None:
    """Accept the old anisotropy section only where it says what the kernel does."""
    if "anisotropy" not in doc:
        return
    # The Gaussian is the one kernel whose induced anisotropy is isotropic.
    if doc["anisotropy"] in (None, {}, {"kind": "isotropic"}) and kernel_kind == "gaussian":
        return
    raise _fail(
        source,
        "section 'anisotropy' is not configurable: the anisotropy is the "
        f"one the '{kernel_kind}' kernel induces; choose it in section 'kernel'",
    )


def _angle_settings(
    doc: dict, tensions: dict, scheme: dict, rho: float, source: str
) -> tuple[dict, dict]:
    """The tensions and scheme sections as ``sigma_ratio`` fixes them.

    Tensions (1, 1 + rho/2, 1 - rho/2) give the equilibrium cos(theta) = -rho.
    A config may restate these settings, as a summary's echo does.
    """
    if not -1.0 <= rho <= 1.0:
        raise _fail(
            source,
            "key 'sigma_ratio' in section 'experiment' must lie in [-1, 1] "
            f"for a wetting equilibrium, got {rho}",
        )
    implied = {
        "mode": "direct",
        "gamma_pv": "1",
        "gamma_sp": repr(1.0 + 0.5 * rho),
        "gamma_sv": repr(1.0 - 0.5 * rho),
    }
    if "tensions" in doc and tensions != implied:
        raise _fail(
            source,
            "section 'tensions' is set by key 'sigma_ratio' in section "
            "'experiment' of an angle experiment; remove it",
        )
    if (doc.get("scheme") or {}).get("preserve_volume") is False:
        raise _fail(
            source,
            "key 'preserve_volume' in section 'scheme' cannot be false in an "
            "angle experiment: the droplet keeps its volume",
        )
    return implied, {**scheme, "preserve_volume": True}


def _kinded_section(
    doc: dict, name: str, kinds: dict, default_kind: str, source: str
) -> dict:
    raw = _mapping_section(doc, name, source)
    kind = raw.get("kind", default_kind)
    if kind not in kinds:
        raise _fail(
            source,
            f"unknown kind '{kind}' in section '{name}' (have {sorted(kinds)})",
        )
    _check_keys({k: v for k, v in raw.items() if k != "kind"}, kinds[kind], name, source)
    raw["kind"] = kind
    return raw


@dataclass(frozen=True)
class RunConfig:
    """Validated plain-data description of one experiment."""

    d: int
    n: int
    geometry: dict
    kernel: dict
    tensions: dict
    scheme: dict
    initial: dict
    experiment: str
    experiment_params: dict
    output_dir: str
    snapshot_every: int
    seed: int

    def document(self) -> dict:
        """Canonical nested mapping (echoed into summaries, hashed)."""
        return {
            "grid": {"d": self.d, "n": self.n},
            "geometry": dict(self.geometry),
            "kernel": dict(self.kernel),
            "tensions": dict(self.tensions),
            "scheme": dict(self.scheme),
            "initial": dict(self.initial),
            "experiment": {"kind": self.experiment, **self.experiment_params},
            "output": {"dir": self.output_dir, "snapshot_every": self.snapshot_every},
            "seed": self.seed,
        }


def apply_overrides(doc: dict, overrides: dict) -> dict:
    """Set dotted-path keys (e.g. ``scheme.h``) on a copy of the document.

    ``None`` values are skipped so optional command-line flags can be
    passed through unconditionally.
    """
    out = copy.deepcopy(doc)
    for dotted, value in overrides.items():
        if value is None:
            continue
        parts = dotted.split(".")
        node = out
        for part in parts[:-1]:
            child = node.get(part)
            if not isinstance(child, dict):
                child = {}
                node[part] = child
            node = child
        node[parts[-1]] = value
    return out


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as src:
            doc = yaml.safe_load(src)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping at the top level")
    if overrides:
        doc = apply_overrides(doc, overrides)
    return config_from_mapping(doc, source=str(path))


def config_from_mapping(doc: dict, source: str = "<config>") -> RunConfig:
    """Validate a nested mapping into a :class:`RunConfig`."""
    _check_keys(doc, _TOP_KEYS, "top level", source)

    grid = _mapping_section(doc, "grid", source)
    _check_keys(grid, {"d", "n"}, "grid", source)
    d = _as_int(grid.get("d", 2), "d", "grid", source)
    n = _as_int(grid.get("n", 256), "n", "grid", source)
    if d not in (2, 3):
        raise _fail(source, f"key 'd' in section 'grid' must be 2 or 3, got {d}")
    if n < 4:
        raise _fail(source, f"key 'n' in section 'grid' must be >= 4, got {n}")

    geometry = _kinded_section(doc, "geometry", _GEOMETRY_KINDS, "disk", source)
    if geometry["kind"] == "disk":
        geometry["center"] = _as_point(
            geometry.get("center", [0.5] * d), d, "center", "geometry", source
        )
        geometry.setdefault("radius", 0.3)
    band = ("lo", "hi") if geometry["kind"] == "band" else ()
    _shape_numbers(geometry, ("radius", "lo", "hi"), band, "geometry", source)
    kernel = _kinded_section(doc, "kernel", _KERNEL_KINDS, "gaussian", source)
    _shape_numbers(kernel, (), tuple(_KERNEL_KINDS[kernel["kind"]]), "kernel", source)
    if kernel.get("matrix") == []:  # the empty matrix is L = I, kind 'gaussian'
        raise _fail(source, "key 'matrix' in section 'kernel' must not be empty")
    _check_legacy_anisotropy(doc, kernel["kind"], source)

    tensions = _mapping_section(doc, "tensions", source)
    _check_keys(tensions, {"mode", "gamma_pv", "gamma_sp", "gamma_sv"}, "tensions", source)
    mode = tensions.get("mode", "direct")
    if mode not in ("direct", "extend"):
        raise _fail(
            source, f"key 'mode' in section 'tensions' must be direct or extend, got {mode!r}"
        )
    tensions = {
        "mode": mode,
        "gamma_pv": str(tensions.get("gamma_pv", "1")),
        "gamma_sp": str(tensions.get("gamma_sp", "1")),
        "gamma_sv": str(tensions.get("gamma_sv", "1")),
    }

    scheme = _mapping_section(doc, "scheme", source)
    _check_keys(
        scheme,
        {"h", "preserve_volume", "max_steps", "stationarity_window"},
        "scheme",
        source,
    )
    scheme = {
        "h": _as_float(scheme.get("h", 1.0e-3), "h", "scheme", source),
        "preserve_volume": _as_bool(
            scheme.get("preserve_volume", False), "preserve_volume", "scheme", source
        ),
        "max_steps": _as_int(scheme.get("max_steps", 200), "max_steps", "scheme", source),
        "stationarity_window": _as_int(
            scheme.get("stationarity_window", 3), "stationarity_window", "scheme", source
        ),
    }
    if not scheme["h"] > 0.0:
        raise _fail(source, f"key 'h' in section 'scheme' must be positive, got {scheme['h']}")
    for key in ("max_steps", "stationarity_window"):
        if scheme[key] < 1:
            raise _fail(
                source, f"key '{key}' in section 'scheme' must be >= 1, got {scheme[key]}"
            )

    initial = _kinded_section(doc, "initial", _INITIAL_KINDS, "disk", source)
    if d == 3 and initial["kind"] in ("disk", "cap"):
        raise _fail(
            source,
            f"key 'kind' in section 'initial' is '{initial['kind']}', a 2-d shape; "
            "with d = 3 use 'field' or 'empty'",
        )
    if initial["kind"] == "disk":
        initial["center"] = _as_point(
            initial.get("center", [0.5, 0.5]), 2, "center", "initial", source
        )
        initial.setdefault("radius", 0.15)
    cap = ("radius",) if initial["kind"] == "cap" else ()
    _shape_numbers(initial, ("radius", "angle"), cap, "initial", source)

    experiment_raw = doc.get("experiment") or {}
    if isinstance(experiment_raw, str):
        experiment_raw = {"kind": experiment_raw}
    if not isinstance(experiment_raw, dict):
        raise _fail(source, "section 'experiment' must be a mapping or a name")
    kind = experiment_raw.get("kind", "run")
    if kind not in EXPERIMENTS:
        raise _fail(
            source,
            f"unknown kind '{kind}' in section 'experiment' (have {sorted(EXPERIMENTS)})",
        )
    params = {k: v for k, v in experiment_raw.items() if k != "kind"}
    _check_keys(params, set(_EXPERIMENT_DEFAULTS[kind]), "experiment", source)
    merged = {**_EXPERIMENT_DEFAULTS[kind], **params}
    experiment_params = {}
    for key, value in merged.items():
        if key in _FLOAT_PARAMS:
            value = _as_float(value, key, "experiment", source)
        elif key in _INT_PARAMS:
            value = _as_int(value, key, "experiment", source)
            if key == "n_fields" and value < 1:
                raise _fail(
                    source, f"key 'n_fields' in section 'experiment' must be >= 1, got {value}"
                )
        elif key in _FLOAT_LIST_PARAMS:
            if not isinstance(value, (list, tuple)) or not value:
                raise _fail(
                    source, f"key '{key}' in section 'experiment' must be a non-empty list"
                )
            value = [_as_float(v, key, "experiment", source) for v in value]
        elif key in _INT_LIST_PARAMS:
            if not isinstance(value, (list, tuple)) or not value:
                raise _fail(
                    source, f"key '{key}' in section 'experiment' must be a non-empty list"
                )
            value = [_as_int(v, key, "experiment", source) for v in value]
        if key in ("coarse_h", "h_values") and not all(
            h > 0.0 for h in (value if key == "h_values" else [value])
        ):
            raise _fail(
                source, f"key '{key}' in section 'experiment' must be positive, got {value}"
            )
        experiment_params[key] = value
    if kind == "angle":
        tensions, scheme = _angle_settings(
            doc, tensions, scheme, experiment_params["sigma_ratio"], source
        )

    output = _mapping_section(doc, "output", source)
    _check_keys(output, {"dir", "snapshot_every"}, "output", source)
    output_dir = str(output.get("dir", "out"))
    snapshot_every = _as_int(
        output.get("snapshot_every", 0), "snapshot_every", "output", source
    )
    if snapshot_every < 0:
        raise _fail(source, "key 'snapshot_every' in section 'output' must be >= 0")
    if snapshot_every > 0 and kind != "run":
        raise _fail(
            source,
            f"key 'snapshot_every' in section 'output' applies to the run experiment "
            f"only; the {kind} experiment writes no snapshots",
        )

    seed = _as_int(doc.get("seed", 0), "seed", "top level", source)

    return RunConfig(
        d=d,
        n=n,
        geometry=geometry,
        kernel=kernel,
        tensions=tensions,
        scheme=scheme,
        initial=initial,
        experiment=kind,
        experiment_params=experiment_params,
        output_dir=output_dir,
        snapshot_every=snapshot_every,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_geometry_from(config: RunConfig) -> Geometry:
    params = {k: v for k, v in config.geometry.items() if k != "kind"}
    shape = make_shape(config.geometry["kind"], **params)
    return build_geometry(shape, TorusGrid(config.d, config.n))


def build_kernel_from(config: RunConfig) -> GaussianKernel:
    return GaussianKernel(config.kernel.get("matrix", ()))


def build_raw_tensions(config: RunConfig) -> RawTensions:
    t = config.tensions
    return RawTensions.from_values(t["gamma_pv"], t["gamma_sp"], t["gamma_sv"])


def build_tensions(
    config: RunConfig, geometry: Geometry, gamma: Anisotropy
) -> tuple[ModifiedTensions, TriangleReport]:
    """Tension fields plus their triangle-inequality audit.

    ``direct`` mode evaluates the three expressions cellwise as the
    modified tensions themselves (audited exactly); ``extend`` treats them
    as raw boundary data and runs the full extension construction,
    dividing the substrate tensions by ``gamma``, the kernel's induced
    anisotropy (audited to 1e-12 of the upper bound).
    """
    raw = build_raw_tensions(config)
    grid = geometry.grid
    if config.tensions["mode"] == "direct":
        pv = raw.sample("pv", grid)
        sp = raw.sample("sp", grid)
        sv = raw.sample("sv", grid)
        lo = min(pv.min(), sp.min(), sv.min())
        if not lo > 0.0:
            raise TensionError(
                f"direct tensions must be positive everywhere (min {lo!r})"
            )
        t = ModifiedTensions.from_fields(grid, pv, sp, sv)
        return t, verify_triangle(t)
    # extend_substrate raises unless the raw tensions are admissible.
    t = extend_substrate(raw, geometry, gamma)
    return t, verify_triangle(t, tol=1e-12 * t.upper)


def initial_shape_spec(config: RunConfig, geometry: Geometry) -> ShapeSpec | None:
    """The analytic shape of the configured initial phase.

    None for the ``field`` and ``empty`` kinds, and for a cap without a
    band geometry to stand on.
    """
    spec = config.initial
    kind = spec["kind"]
    if kind == "disk":
        return ShapeSpec.disk(spec["center"], spec["radius"])
    if kind == "cap" and isinstance(geometry.shape, Band):
        return ShapeSpec.cap(
            spec.get("angle", 90.0),
            spec["radius"],
            substrate_y=geometry.shape.lo % 1.0,
        )
    return None


def build_initial(config: RunConfig, geometry: Geometry) -> PhaseField:
    spec = config.initial
    kind = spec["kind"]
    if kind == "empty":
        return PhaseField.zeros(geometry)
    if kind == "field":
        if "path" not in spec:
            raise ConfigError("initial kind 'field' needs key 'path'")
        return PhaseField(geometry, read_field(spec["path"]))
    shape = initial_shape_spec(config, geometry)
    if shape is None:
        raise ConfigError("initial kind 'cap' needs a band geometry")
    return shape.indicator(geometry)


def build_scheme_config(config: RunConfig) -> SchemeConfig:
    return SchemeConfig(**config.scheme)
