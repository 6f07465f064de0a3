"""Run configuration: one JSON file drives every subcommand.

Every field has a default except the dataset path, which only the dataset
bound commands require. Command-line flags override file values. Unknown keys
and bad values raise ConfigError naming the dotted field path.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from .splits import (
    DEFAULT_CAL_FRACTION,
    DEFAULT_FRACTIONS,
    DEFAULT_IDENTITY_CEILING,
    DEFAULT_K_TEST_EPITOPES,
    DEFAULT_TEST_FRACTION,
    PROTOCOL_DISTANCE_AWARE,
    PROTOCOL_EPITOPE_HELD_OUT,
    PROTOCOL_RANDOM,
)

_PROTOCOLS = (PROTOCOL_RANDOM, PROTOCOL_EPITOPE_HELD_OUT, PROTOCOL_DISTANCE_AWARE)
_SCORER_MODES = ("builtin", "logits")


class ConfigError(ValueError):
    """Invalid configuration; message starts with the dotted field path."""


@dataclass(frozen=True)
class NegativesConfig:
    target_positive_rate: float = 0.045
    seed: int = 11


@dataclass(frozen=True)
class DatasetConfig:
    path: str | None = None
    columns: dict[str, str] | None = None
    dedup_identity: float | None = None
    negatives: NegativesConfig | None = None


@dataclass(frozen=True)
class SplitConfig:
    protocol: str = PROTOCOL_RANDOM
    seed: int = 13
    fractions: tuple[float, float, float] = DEFAULT_FRACTIONS
    k_test_epitopes: int = DEFAULT_K_TEST_EPITOPES
    cal_fraction: float = DEFAULT_CAL_FRACTION
    identity_ceiling: float = DEFAULT_IDENTITY_CEILING
    test_fraction: float = DEFAULT_TEST_FRACTION
    epitope_disjoint_cal: bool = False


@dataclass(frozen=True)
class ScorerSection:
    mode: str = "builtin"
    logits_path: str | None = None
    kmer_size: int = 3
    learning_rate: float = 0.1
    epochs: int = 300
    l2: float = 1e-4
    seed: int = 7
    include_cdr3a: bool = True


@dataclass(frozen=True)
class ConformalSection:
    epsilon: float = 0.2


@dataclass(frozen=True)
class SweepSection:
    grid: tuple[float, ...] = (1.0, 0.9, 0.8, 0.7, 0.6)


@dataclass(frozen=True)
class SimulateSection:
    n_cal: int = 2000
    n_test: int = 2000
    miscalibration_temperature: float = 3.0
    base_positive_rate: float = 0.045
    seed: int = 29
    epsilon: float = 0.2
    n_trials: int = 200
    sizes: tuple[int, ...] | None = None


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    scorer: ScorerSection = field(default_factory=ScorerSection)
    conformal: ConformalSection = field(default_factory=ConformalSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    simulate: SimulateSection = field(default_factory=SimulateSection)
    output_dir: str = "out"

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def semantic_dict(self) -> dict:
        """Config without output_dir. It chooses where results land, never
        what they contain, so the provenance fingerprint is taken over this
        view."""
        trimmed = self.to_dict()
        del trimmed["output_dir"]
        return trimmed

    def semantic_json(self) -> str:
        return json.dumps(self.semantic_dict(), indent=2, sort_keys=True) + "\n"


def _build(cls: type, raw: Mapping[str, Any], path: str) -> Any:
    known = {f.name: f for f in fields(cls)}
    unknown = set(raw) - set(known)
    if unknown:
        first = sorted(unknown)[0]
        raise ConfigError(f"{path}{first}: unknown key")
    kwargs: dict[str, Any] = {}
    for name, value in raw.items():
        where = f"{path}{name}"
        if value is None:
            kwargs[name] = None
            continue
        if name == "dataset":
            kwargs[name] = _build(DatasetConfig, _as_map(value, where), where + ".")
        elif name == "split":
            kwargs[name] = _build(SplitConfig, _as_map(value, where), where + ".")
        elif name == "scorer":
            kwargs[name] = _build(ScorerSection, _as_map(value, where), where + ".")
        elif name == "conformal":
            kwargs[name] = _build(ConformalSection, _as_map(value, where), where + ".")
        elif name == "sweep":
            kwargs[name] = _build(SweepSection, _as_map(value, where), where + ".")
        elif name == "simulate":
            kwargs[name] = _build(SimulateSection, _as_map(value, where), where + ".")
        elif name == "negatives":
            kwargs[name] = _build(NegativesConfig, _as_map(value, where), where + ".")
        elif name == "columns":
            kwargs[name] = dict(_as_map(value, where))
        elif name in ("fractions", "grid"):
            kwargs[name] = tuple(float(v) for v in _as_list(value, where))
        elif name == "sizes":
            kwargs[name] = tuple(int(v) for v in _as_list(value, where))
        else:
            kwargs[name] = value
    try:
        built = cls(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path.rstrip('.')}: {err}") from None
    return built


def _as_map(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where}: expected an object")
    return value


def _as_list(value: Any, where: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected a list")
    return list(value)


def _validate(config: RunConfig) -> RunConfig:
    if config.split.protocol not in _PROTOCOLS:
        raise ConfigError(
            f"split.protocol: must be one of {', '.join(_PROTOCOLS)}, "
            f"got {config.split.protocol!r}"
        )
    if config.scorer.mode not in _SCORER_MODES:
        raise ConfigError(
            f"scorer.mode: must be one of {', '.join(_SCORER_MODES)}, "
            f"got {config.scorer.mode!r}"
        )
    if config.scorer.mode == "logits" and not config.scorer.logits_path:
        raise ConfigError("scorer.logits_path: required when scorer.mode is 'logits'")
    return config


def config_from_dict(raw: Mapping[str, Any]) -> RunConfig:
    return _validate(_build(RunConfig, raw, ""))


def load_config(path: str | Path | None, overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus dotted overrides.

    overrides maps dotted paths ("conformal.epsilon") to values and wins over
    file contents; it is how command-line flags land.
    """
    raw: dict[str, Any] = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file {path}: {err}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path}: top level must be an object")
    for dotted, value in (overrides or {}).items():
        node = raw
        parts = dotted.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return config_from_dict(raw)

