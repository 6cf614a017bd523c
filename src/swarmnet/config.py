"""Flat key=value configuration files and command-line overrides.

A config file holds one `key = value` pair per line with `#` comments.
`FIELDS` lists the keys: each names the dataclass field it sets and how
its value is parsed. A key left out keeps its dataclass default, so an
empty file is the paper's full-scale protocol, `ExperimentConfig()`.
Values never nest; lists are comma-separated, with no empty item.
Overrides given as `key=value` strings replace file values and are
validated identically.
"""

from __future__ import annotations

from pathlib import Path

from . import pso
from .benchmarks import FunctionId, ObjectiveSpec
from .errors import ConfigurationError
from .experiment import ExperimentConfig, TopologySpec
from .topology import TopologyKind


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
        if key not in FIELDS:
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
        if key not in FIELDS:
            raise ConfigurationError(f"unknown field {key!r} in override")
        merged[key] = value
    return merged


def _parser(convert, refusal: str):
    """convert as a parser whose ValueError reads refusal, {text} filled in."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise ValueError(refusal.format(text=repr(text))) from None
    return parse


def _topology_entry(entry: str) -> TopologySpec:
    name, sep, arg = entry.partition(":")
    name = name.strip()
    try:
        kind = TopologyKind(name)
    except ValueError:
        valid = ", ".join(k.value for k in TopologyKind)
        raise ValueError(f"unknown kind {name!r}, expected one of {valid}") from None
    if kind is TopologyKind.K_REGULAR:
        if not sep:
            raise ValueError("k_regular needs a degree, e.g. k_regular:6")
        try:
            return TopologySpec(kind, int(arg))
        except ValueError:
            raise ValueError(f"bad degree {arg!r} for k_regular") from None
    if sep:
        raise ValueError(f"{name} does not take a degree, got {entry!r}")
    return TopologySpec(kind)


def _items(text: str) -> list[str]:
    """The comma-separated items of text, stripped; an empty item, as in
    "10,,25", "10,25," or "", is refused."""
    items = [s.strip() for s in text.split(",")]
    if "" in items:
        raise ValueError(f"empty item in list {text!r}")
    return items


def _topologies(text: str) -> tuple[TopologySpec, ...]:
    return tuple(map(_topology_entry, _items(text)))


def _windows(text: str) -> tuple[int, ...]:
    items = _items(text)
    try:
        return tuple(map(int, items))
    except ValueError:
        raise ValueError(f"expected integers, got {text!r}") from None


_int = _parser(int, "expected integer, got {text}")
_float = _parser(float, "expected number, got {text}")
_function = _parser(lambda text: FunctionId(text.strip().lower()),
                    "unknown value {text}, expected one of "
                    + ", ".join(f.value for f in FunctionId))

# key -> (the dataclass it sets, its field there, its parser), in parse order
FIELDS = {
    "function": ("objective", "function_id", _function),
    "dimension": ("objective", "dimension", _int),
    "group_size": ("objective", "group_size", _int),
    "domain_seed": ("objective", "domain_seed", _int),
    "c1": ("params", "c1", _float),
    "c2": ("params", "c2", _float),
    "swarm_size": ("params", "swarm_size", _int),
    "t_max": ("params", "t_max", _int),
    "epsilon": ("params", "epsilon", _float),
    "delta_window": ("params", "delta_window", _int),
    "topologies": ("config", "topologies", _topologies),
    "repetitions": ("config", "repetitions", _int),
    "windows": ("config", "windows", _windows),
    "id_sample_stride": ("config", "id_sample_stride", _int),
    "base_seed": ("config", "base_seed", _int),
}


def build_config(raw: dict[str, str]) -> ExperimentConfig:
    """Typed, validated experiment config from raw strings; a key not in
    raw keeps its dataclass default."""
    parts = {"objective": {}, "params": {}, "config": {}}
    for key, (part, name, parse) in FIELDS.items():
        if key in raw:
            try:
                parts[part][name] = parse(raw[key])
            except ValueError as exc:
                raise ConfigurationError(f"field {key!r}: {exc}") from None
    config = ExperimentConfig(objective=ObjectiveSpec(**parts["objective"]),
                              params=pso.PsoParams(**parts["params"]),
                              **parts["config"])
    config.validate()
    return config


def load_config(path=None, overrides: list[str] | None = None) -> ExperimentConfig:
    """File plus overrides to a validated config; no file means defaults."""
    raw = parse_config_file(path) if path is not None else {}
    raw = apply_overrides(raw, overrides or [])
    return build_config(raw)
