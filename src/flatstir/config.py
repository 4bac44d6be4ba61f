"""Configuration resolution for the CLI.

Precedence: command-line flags > environment variables > config file >
built-in defaults.  The config file is flat "key = value" text; '#' starts
a comment.  Recognized keys: budget and cache_dir (a cap and a path).
budget must be an integer >= 0.  An unknown key in the file is an error
naming the file and line.  Of the `FLATSTIR_*` variables, only
`FLATSTIR_CONFIG` and each key's `FLATSTIR_<KEY>` are read; any other is
ignored.  A b-file fetch's timeout is a constant of `oeis`, not a key.
The OEIS client's cache directory and the enumeration cap
(`DEFAULT_BUDGET`, which `counting`, `enumeration` and `analysis` import
from here) live here, so resolving a config loads neither the client nor
any counting route.
"""

from __future__ import annotations

import os
from collections.abc import Mapping

from .errors import FlatstirError

ENV_PREFIX = "FLATSTIR_"
_KEYS = ("budget", "cache_dir")
DEFAULT_BUDGET = 10**8  # the enumeration size cap; None lifts it


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
    try:
        budget = int(value)
    except ValueError:
        raise ConfigError(f"{where}: bad value {value!r} for {key}") from None
    if budget < 0:
        raise ConfigError(f"{where}: {key} must be >= 0, got {value}")
    cfg.budget = budget
