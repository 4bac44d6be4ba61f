"""Configuration resolution for the CLI.

Precedence: command-line flags > environment variables > config file >
built-in defaults.  The config file is flat "key = value" text; '#' starts
a comment.  Recognized keys: budget, truncation_order, oeis_timeout,
cache_dir.  budget and truncation_order must be >= 0, oeis_timeout finite
and > 0.  The OEIS client's defaults (fetch timeout, cache directory) live
here, so resolving a config does not load the client.
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping

from .counting import DEFAULT_BUDGET
from .errors import FlatstirError

ENV_PREFIX = "FLATSTIR_"
_KEYS = ("budget", "truncation_order", "oeis_timeout", "cache_dir")
DEFAULT_TIMEOUT = 10.0  # a b-file fetch's socket timeout, in seconds


def default_cache_dir(env: Mapping[str, str] = os.environ) -> str:
    cache_dir = env.get("FLATSTIR_CACHE_DIR")
    if cache_dir:
        return cache_dir
    base = env.get("XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "flatstir", "oeis")


class ConfigError(FlatstirError, ValueError):
    pass


class Config:
    def __init__(self, env: Mapping[str, str] = os.environ):
        self.budget: int = DEFAULT_BUDGET
        self.truncation_order: int = 32
        self.oeis_timeout: float = DEFAULT_TIMEOUT
        self.cache_dir: str = default_cache_dir(env)


def load_config(path: str | None = None, env: Mapping[str, str] | None = None) -> Config:
    """Resolve environment and file layers; flags are applied by the CLI."""
    env = os.environ if env is None else env
    cfg = Config(env)
    file_path = path or env.get(ENV_PREFIX + "CONFIG")
    if file_path is None:
        default_path = os.path.join(
            env.get("XDG_CONFIG_HOME", os.path.join(os.path.expanduser("~"), ".config")),
            "flatstir.conf",
        )
        if os.path.exists(default_path):
            file_path = default_path
    if file_path is not None:
        _apply_file(cfg, file_path)
    _apply_env(cfg, env)
    return cfg


def _apply_file(cfg: Config, path: str) -> None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        _set(cfg, key.strip(), value.strip(), f"{path}:{lineno}")


def _apply_env(cfg: Config, env: dict[str, str]) -> None:
    for key in _KEYS:
        value = env.get(ENV_PREFIX + key.upper())
        if value is not None:
            _set(cfg, key, value, f"environment {ENV_PREFIX + key.upper()}")


def _set(cfg: Config, key: str, value: str, where: str) -> None:
    if key not in _KEYS:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    if key == "cache_dir":
        cfg.cache_dir = value
        return
    timeout = key == "oeis_timeout"
    try:
        number = float(value) if timeout else int(value)
    except ValueError:
        raise ConfigError(f"{where}: bad value {value!r} for {key}") from None
    if not (0 < number < math.inf if timeout else number >= 0):  # also rejects a NaN timeout
        rule = "finite and > 0" if timeout else ">= 0"
        raise ConfigError(f"{where}: {key} must be {rule}, got {value}")
    setattr(cfg, key, number)
