"""Run configuration: one validated, fingerprintable bundle of every knob.

Configs load from a JSON file whose sections mirror the module parameter
types; command-line flags override file values field by field. The
fingerprint is a stable hash of the canonicalized config, so equal
fingerprints plus equal inputs imply byte-identical artifacts.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass
from typing import Optional

from .client import GenParams
from .kg import DatasetSpec
from .prompts import PromptConfig
from .retrieval import RetrievalConfig
from .rules import MiningParams


class ConfigError(ValueError):
    """Invalid run configuration; message starts with the offending path."""


_SECTIONS = {
    "dataset": DatasetSpec,
    "mining": MiningParams,
    "retrieval": RetrievalConfig,
    "prompt": PromptConfig,
    "generation": GenParams,
}
_SCALARS = ("endpoint", "seed")


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetSpec
    mining: MiningParams
    retrieval: RetrievalConfig
    prompt: PromptConfig
    generation: GenParams
    endpoint: Optional[str] = None
    seed: int = 1

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @property
    def fingerprint(self) -> str:
        return stable_hash(self.as_dict())


def stable_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _build_section(name: str, cls, file_values: dict, overrides: dict):
    """The section's dataclass from file values overridden by flags. Each
    value must fit its field's annotation: an int field takes no bool, a
    float field also takes an int, an Optional field also takes None."""
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    hints = typing.get_type_hints(cls)
    for field, value in merged.items():
        if field not in hints:
            continue  # the constructor names it
        kinds = typing.get_args(hints[field]) or (hints[field],)
        if not any(_fits(value, kind) for kind in kinds):
            wanted = " or ".join("None" if kind is type(None) else kind.__name__ for kind in kinds)
            raise ConfigError(f"{name}.{field}: expected {wanted}, got {value!r}")
    try:
        return cls(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _fits(value, kind: type) -> bool:
    """Whether a JSON value is of `kind`; an int is a float, a bool is not an int."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def build_run_config(
    file_payload: Optional[dict] = None, overrides: Optional[dict] = None
) -> RunConfig:
    """Merge a config-file payload with per-field overrides (None = not set)."""
    payload = file_payload or {}
    overrides = overrides or {}
    unknown = set(payload) - set(_SECTIONS) - set(_SCALARS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    for name in _SECTIONS:
        section = payload.get(name, {})
        if section is not None and not isinstance(section, dict):
            raise ConfigError(f"{name}: expected an object")

    sections = {
        name: _build_section(
            name, cls, payload.get(name) or {}, overrides.get(name) or {}
        )
        for name, cls in _SECTIONS.items()
    }
    endpoint = overrides.get("endpoint")
    if endpoint is None:
        endpoint = payload.get("endpoint")
    seed = overrides.get("seed")
    if seed is None:
        seed = payload.get("seed", 1)
    if not _fits(seed, int):
        raise ConfigError("seed: expected an integer")
    return RunConfig(endpoint=endpoint, seed=seed, **sections)


def load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return payload
