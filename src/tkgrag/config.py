"""Run configuration: one validated, fingerprintable bundle of every knob.

Configs load from a JSON file whose sections mirror the module parameter
types; command-line flags override file values field by field.
`stable_hash` is the hash of a canonicalized payload, such as a config with
the digests of a run's inputs (its fingerprint).
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from .client import GenParams
from .files import fields_of, open_input, parse_json, typed
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


def stable_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def build_run_config(
    file_payload: Optional[dict] = None, overrides: Optional[dict] = None
) -> RunConfig:
    """Merge a config-file payload with per-field overrides (None = not set)."""
    payload = file_payload or {}
    overrides = overrides or {}
    unknown = set(payload) - set(_SECTIONS) - set(_SCALARS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    endpoint, seed = (payload.get(key, default) if overrides.get(key) is None else overrides[key]
                      for key, default in (("endpoint", None), ("seed", 1)))
    sections = {}
    try:
        for name, cls in _SECTIONS.items():
            section = payload.get(name)
            if section is not None and type(section) is not dict:
                raise ValueError(f"{name}: expected {cls.__name__} or None, got {section!r}")
            flags = {k: v for k, v in (overrides.get(name) or {}).items() if v is not None}
            sections[name] = fields_of(cls, {**(section or {}), **flags}, name, closed=True)
        return RunConfig(endpoint=typed(Optional[str], endpoint, "endpoint"),
                         seed=typed(int, seed, "seed"), **sections)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config_file(path: str) -> dict:
    """The config file's JSON object; invalid JSON, a repeated key or
    another top level raises ConfigError naming the file, and a missing
    file ValueError (`files.open_input`)."""
    with open_input(path, "r", encoding="utf-8") as fh:
        try:
            payload = parse_json(fh.read())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return payload
