"""Flat key=value configuration files and command-line overrides.

A config file holds one `key = value` pair per line with `#` comments.
Every key has a default, so an empty file is a valid full-scale setup
(100 particles, t_max 10000, c1 = c2 = 2.05, epsilon 1e-5, delta 500).
Values never nest; lists are comma-separated. Overrides given as
`key=value` strings replace file values and are validated identically.
"""

from __future__ import annotations

from pathlib import Path

from . import pso
from .benchmarks import FunctionId, ObjectiveSpec
from .errors import ConfigurationError
from .experiment import ExperimentConfig, TopologySpec
from .topology import TopologyKind

PAPER_TOPOLOGY_SWEEP = (
    "ring,von_neumann,k_regular:5,k_regular:6,k_regular:7,k_regular:8,"
    "k_regular:9,k_regular:10,k_regular:20,k_regular:30,k_regular:40,"
    "k_regular:50,k_regular:60,k_regular:70,k_regular:80,k_regular:90,global"
)

DEFAULTS = {
    "function": "f2",
    "dimension": "1000",
    "group_size": "50",
    "domain_seed": "1",
    "c1": "2.05",
    "c2": "2.05",
    "swarm_size": "100",
    "t_max": "10000",
    "epsilon": "1e-5",
    "delta_window": "500",
    "topologies": PAPER_TOPOLOGY_SWEEP,
    "windows": "10,25,50,75,100",
    "repetitions": "30",
    "id_sample_stride": "1",
    "base_seed": "1",
}


def parse_config_file(path) -> dict[str, str]:
    """Raw key -> value strings from one file; unknown keys are rejected."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    raw: dict[str, str] = {}
    for line_no, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigurationError(
                f"{path}:{line_no}: expected key = value, got {line.strip()!r}"
            )
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigurationError(f"{path}:{line_no}: unknown field {key!r}")
        raw[key] = value
    return raw


def apply_overrides(raw: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Merge `key=value` override strings over file values."""
    merged = dict(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"override must be key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigurationError(f"unknown field {key!r} in override")
        merged[key] = value
    return merged


def _as_int(raw: dict[str, str], key: str) -> int:
    try:
        return int(raw[key])
    except ValueError:
        raise ConfigurationError(f"field {key!r}: expected integer, got {raw[key]!r}")


def _as_float(raw: dict[str, str], key: str) -> float:
    try:
        return float(raw[key])
    except ValueError:
        raise ConfigurationError(f"field {key!r}: expected number, got {raw[key]!r}")


def _parse_topology_entry(entry: str) -> TopologySpec:
    name, sep, arg = entry.partition(":")
    name = name.strip()
    try:
        kind = TopologyKind(name)
    except ValueError:
        valid = ", ".join(k.value for k in TopologyKind)
        raise ConfigurationError(
            f"field 'topologies': unknown kind {name!r}, expected one of {valid}"
        )
    if kind is TopologyKind.K_REGULAR:
        if not sep:
            raise ConfigurationError(
                "field 'topologies': k_regular needs a degree, e.g. k_regular:6"
            )
        try:
            return TopologySpec(kind, int(arg))
        except ValueError:
            raise ConfigurationError(
                f"field 'topologies': bad degree {arg!r} for k_regular"
            )
    if sep:
        raise ConfigurationError(
            f"field 'topologies': {name} does not take a degree, got {entry!r}"
        )
    return TopologySpec(kind)


def _parse_int_list(raw: dict[str, str], key: str) -> tuple[int, ...]:
    items = [s.strip() for s in raw[key].split(",") if s.strip()]
    if not items:
        raise ConfigurationError(f"field {key!r}: list must be non-empty")
    try:
        return tuple(int(s) for s in items)
    except ValueError:
        raise ConfigurationError(f"field {key!r}: expected integers, got {raw[key]!r}")


def build_config(raw: dict[str, str]) -> ExperimentConfig:
    """Typed, validated experiment config from raw strings plus defaults."""
    merged = dict(DEFAULTS)
    merged.update(raw)
    try:
        function_id = FunctionId(merged["function"].strip().lower())
    except ValueError:
        valid = ", ".join(f.value for f in FunctionId)
        raise ConfigurationError(
            f"field 'function': unknown value {merged['function']!r}, "
            f"expected one of {valid}"
        )
    objective = ObjectiveSpec(
        function_id=function_id,
        dimension=_as_int(merged, "dimension"),
        group_size=_as_int(merged, "group_size"),
        domain_seed=_as_int(merged, "domain_seed"),
    )
    params = pso.PsoParams(
        c1=_as_float(merged, "c1"),
        c2=_as_float(merged, "c2"),
        swarm_size=_as_int(merged, "swarm_size"),
        t_max=_as_int(merged, "t_max"),
        epsilon=_as_float(merged, "epsilon"),
        delta_window=_as_int(merged, "delta_window"),
    )
    entries = [s.strip() for s in merged["topologies"].split(",") if s.strip()]
    if not entries:
        raise ConfigurationError("field 'topologies': list must be non-empty")
    topologies = tuple(_parse_topology_entry(e) for e in entries)
    config = ExperimentConfig(
        objective=objective,
        topologies=topologies,
        params=params,
        repetitions=_as_int(merged, "repetitions"),
        windows=_parse_int_list(merged, "windows"),
        id_sample_stride=_as_int(merged, "id_sample_stride"),
        base_seed=_as_int(merged, "base_seed"),
    )
    config.validate()
    return config


def load_config(path=None, overrides: list[str] | None = None) -> ExperimentConfig:
    """File plus overrides to a validated config; no file means defaults."""
    raw = parse_config_file(path) if path is not None else {}
    raw = apply_overrides(raw, overrides or [])
    return build_config(raw)
