"""Run configuration: built-in defaults, strict JSON loading, and dotted-path
overrides.

The shipped defaults describe the reference single-leg build: geometry and
mass properties of one leg plane (shared plates entered as one-third
shares), the fitted Mooney-Rivlin band coefficients, and the identified
Coulomb coefficient.  Set masses.mu_C to 0 for the undamped ideal.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, fields
from typing import Sequence

from .dynamics import MassModel, SimOptions
from .elastic import ElasticModel, GaussianBand, LinearSpring, MooneyRivlinBand
from .geometry import LinkageGeometry

DEFAULT_CONFIG = {
    "geometry": {
        "a": 6.82e-2,
        "c": 5.50e-2,
        "p": 0.70e-2,
        "q": 0.50e-2,
        "l0": 8.50e-2,
        "A0": 7.0e-6,
        "exact_derivative": False,
    },
    "masses": {
        "m1": 2.70e-3,
        "m2": 1.60e-3,
        "m3": 3.10e-3,
        "m4": 1.60e-3,
        "m5": 16.10e-3,
        "I1": 6.28e-7,
        "I2": 6.28e-7,
        "g": 9.81,
        "mu_C": 16.811e-3,
    },
    "elastic": {
        "model": "mooney_rivlin",
        "C1": 68.88e3,
        "C2": 73.61e3,
    },
    "sim": {
        "step": 1e-5,
        "t_max": 1.0,
        "event_tolerance": 1e-7,
        "theta0": 0.066,
    },
}

_LAWS = {
    "linear": LinearSpring,
    "gaussian": GaussianBand,
    "mooney_rivlin": MooneyRivlinBand,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated, typed view of one configuration dictionary."""

    geometry: LinkageGeometry
    masses: MassModel
    elastic: ElasticModel
    sim: SimOptions


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def load_config(path=None) -> dict:
    """Defaults merged with the JSON file at path (strict keys)."""
    cfg = default_config()
    if path is None:
        return cfg
    with open(path) as fh:
        user = json.load(fh)
    if not isinstance(user, dict):
        raise ValueError("config root must be a JSON object")
    for section, content in user.items():
        if section not in cfg:
            raise ValueError(f"unknown config section {section!r}")
        if not isinstance(content, dict):
            raise ValueError(f"config section {section!r} must be an object")
        if section == "elastic":
            cfg["elastic"] = dict(content)  # replaced wholesale, checked in build
            continue
        for key, value in content.items():
            if key not in cfg[section]:
                raise ValueError(f"unknown config key {section}.{key}")
            cfg[section][key] = value
    return cfg


def apply_overrides(cfg: dict, assignments: Sequence[str]) -> dict:
    """Apply repeated --set key.path=value assignments (JSON-parsed values).

    Only existing keys can be set, except band-law coefficients under
    elastic; setting elastic.model to a known law drops the coefficients it
    does not declare, so the law and its coefficients may come in any order.
    A path naming a whole section replaces it; build_config checks it.
    """
    for assignment in assignments:
        if "=" not in assignment:
            raise ValueError(f"override {assignment!r} is not of the form key=value")
        path, _, raw_value = assignment.partition("=")
        keys = path.strip().split(".")
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value.strip()
        node = cfg
        for key in keys[:-1]:
            if not isinstance(node, dict) or key not in node:
                raise ValueError(f"unknown config path {path!r}")
            node = node[key]
        in_elastic = keys[:-1] == ["elastic"]
        if not isinstance(node, dict) or not (keys[-1] in node or in_elastic):
            raise ValueError(f"unknown config path {path!r}")
        node[keys[-1]] = value
        if keys == ["elastic", "model"] and isinstance(value, str) and value in _LAWS:
            declared = {f.name for f in fields(_LAWS[value])} | {"model"}
            for key in set(node) - declared:
                del node[key]
    return cfg


def build_config(cfg: dict) -> RunConfig:
    """Construct validated parameter objects from a config dictionary.

    The band rest length and cross section are taken from the geometry
    section, so the elastic section carries only the drive-law choice
    ("linear", "gaussian" or "mooney_rivlin") and its coefficients.
    """
    unknown = set(cfg) - set(DEFAULT_CONFIG)
    if unknown:
        raise ValueError(f"unknown config sections {sorted(unknown)}")
    for section in DEFAULT_CONFIG:
        if section not in cfg:
            raise ValueError(f"missing config section {section!r}")
        if not isinstance(cfg[section], dict):
            raise ValueError(f"config section {section!r} must be an object")

    geometry = _build("geometry", LinkageGeometry, cfg["geometry"])
    masses = _build("masses", MassModel, cfg["masses"])
    sim = _build("sim", SimOptions, cfg["sim"])

    elastic_cfg = cfg["elastic"]
    kind = elastic_cfg.get("model")
    if kind not in _LAWS:
        raise ValueError(
            f"elastic.model must be one of {sorted(_LAWS)}, got {kind!r}")
    law = _LAWS[kind]
    names = {f.name for f in fields(law)}
    # The rest length and cross section come from the geometry section.
    shared = {key: getattr(geometry, key) for key in ("l0", "A0") if key in names}
    keys = names - set(shared)
    extra = set(elastic_cfg) - keys - {"model"}
    if extra:
        raise ValueError(f"unknown elastic keys for {kind}: {sorted(extra)}")
    missing = keys - set(elastic_cfg)
    if missing:
        raise ValueError(f"missing elastic keys for {kind}: {sorted(missing)}")
    elastic = _build("elastic", law,
                     {**shared, **{key: elastic_cfg[key] for key in keys}})

    return RunConfig(geometry=geometry, masses=masses, elastic=elastic, sim=sim)


def _build(section: str, cls, values: dict):
    """cls(**values) once values has exactly the keys of cls's fields; each
    error names the dotted config key."""
    names = [f.name for f in fields(cls)]
    for key in [*values, *names]:
        if (key in values) != (key in names):
            raise ValueError(f"{'missing' if key in names else 'unknown'} "
                             f"config key {section}.{key}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{section}.{exc}") from None
