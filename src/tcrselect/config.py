"""Run configuration: one JSON file drives every subcommand.

Every field has a default except the dataset path, which only the dataset
bound commands require. Command-line flags override file values. Every value
is checked against its field's declared type: an int field takes no bool or
float, a float field takes an int but no bool, and null only goes where the
type allows None. Unknown keys and bad values raise ConfigError naming the
dotted field path.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Any, Mapping, Union, get_args, get_origin, get_type_hints

from .conformal import check_epsilon
from .metrics import DEFAULT_COVERAGE_GRID
from .scorer import TrainingConfig
from .splits import (
    DEFAULT_CAL_FRACTION,
    DEFAULT_FRACTIONS,
    DEFAULT_IDENTITY_CEILING,
    DEFAULT_K_TEST_EPITOPES,
    DEFAULT_TEST_FRACTION,
    PROTOCOL_DISTANCE_AWARE,
    PROTOCOL_EPITOPE_HELD_OUT,
    PROTOCOL_RANDOM,
    check_fractions,
    check_k_test_epitopes,
    check_open_unit,
)
from .synthetic import SyntheticSpec, check_n_trials, check_sizes

PROTOCOLS = (PROTOCOL_RANDOM, PROTOCOL_EPITOPE_HELD_OUT, PROTOCOL_DISTANCE_AWARE)
SCORER_MODES = ("builtin", "logits")


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

    def __post_init__(self) -> None:
        check_fractions(self.fractions)
        check_k_test_epitopes(self.k_test_epitopes)
        check_open_unit("cal_fraction", self.cal_fraction)
        check_open_unit("identity_ceiling", self.identity_ceiling)
        check_open_unit("test_fraction", self.test_fraction)


@dataclass(frozen=True)
class ScorerSection(TrainingConfig):
    """The built-in scorer's TrainingConfig, plus where the scores come from."""

    seed: int = 7
    mode: str = "builtin"
    logits_path: str | None = None


@dataclass(frozen=True)
class ConformalSection:
    epsilon: float = 0.2

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)


@dataclass(frozen=True)
class SweepSection:
    grid: tuple[float, ...] = DEFAULT_COVERAGE_GRID


@dataclass(frozen=True)
class SimulateSection(SyntheticSpec):
    """The SyntheticSpec of trial 0, plus the experiment run over it."""

    n_cal: int = 2000
    n_test: int = 2000
    seed: int = 29
    epsilon: float = 0.2
    n_trials: int = 200
    sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        check_epsilon(self.epsilon)
        check_n_trials(self.n_trials)
        if self.sizes:  # None or empty runs the coverage experiment instead
            check_sizes(self.sizes)


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

    def semantic_dict(self) -> dict:
        """Config without output_dir. It chooses where results land, never
        what they contain, so the provenance fingerprint is taken over this
        view."""
        trimmed = self.to_dict()
        del trimmed["output_dir"]
        return trimmed

    def semantic_json(self) -> str:
        return json.dumps(self.semantic_dict(), indent=2, sort_keys=True) + "\n"


# what a scalar field of each declared type accepts (bool is checked apart,
# since it is an int subclass), and how its error names the type
_SCALARS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def _build(cls: type, raw: Mapping[str, Any], path: str) -> Any:
    hints = get_type_hints(cls)
    unknown = set(raw) - set(hints)
    if unknown:
        first = sorted(unknown)[0]
        raise ConfigError(f"{path}{first}: unknown key")
    kwargs = {name: _typed(hints[name], value, f"{path}{name}") for name, value in raw.items()}
    try:
        built = cls(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path.rstrip('.')}: {err}") from None
    return built


def _typed(tp: Any, value: Any, where: str) -> Any:
    """value checked against the declared type tp. Scalars pass unchanged, so
    a valid config keeps its fingerprint; list items become the declared
    element type (1 -> 1.0 for a float list), as they always have."""
    if get_origin(tp) in (Union, UnionType):  # X | None
        if value is None:
            return None
        (tp,) = (arg for arg in get_args(tp) if arg is not type(None))
    if is_dataclass(tp):
        return _build(tp, _as_map(value, where), where + ".")
    origin, args = get_origin(tp), get_args(tp)
    if origin is dict:
        return {k: _typed(args[1], v, f"{where}.{k}") for k, v in _as_map(value, where).items()}
    if origin is tuple:  # tuple[X, ...] or tuple[X, X, X]
        items = _as_list(value, where)
        if args[-1] is not Ellipsis and len(items) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} items, got {len(items)}")
        return tuple(args[0](_typed(args[0], v, f"{where}[{i}]")) for i, v in enumerate(items))
    accepted, name = _SCALARS[tp]
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{where}: expected {name}, got {value!r}")
    return value


def _as_map(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where}: expected an object")
    return value


def _as_list(value: Any, where: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected a list")
    return list(value)


def _validate(config: RunConfig) -> RunConfig:
    if config.split.protocol not in PROTOCOLS:
        raise ConfigError(
            f"split.protocol: must be one of {', '.join(PROTOCOLS)}, "
            f"got {config.split.protocol!r}"
        )
    if config.scorer.mode not in SCORER_MODES:
        raise ConfigError(
            f"scorer.mode: must be one of {', '.join(SCORER_MODES)}, "
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
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
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

