"""Reading config files: the JSON object, its fields, and the paths they name.

The scenario, cell and fit files are read through these readers, so
every config file has the same rules for what a number is and which
keys an object may hold, and every malformed value, unknown key or
repeated key is a ConfigError naming its file, block and field.  The
loaders that build values from a file (load_scenario, load_params,
load_fit_config) stay next to the types they build; this module knows
none of those types and imports nothing else from the package.  It also
holds DivergenceError, which attack raises and re-exports, so that the
CLI catches a failed synthesis without loading the attack modules.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

__all__ = [
    "ConfigError",
    "DivergenceError",
    "REQUIRED",
    "checked",
    "read_block",
    "read_field",
    "read_json_object",
    "read_path",
    "read_scalars",
]


class ConfigError(ValueError):
    """A scenario, cell or fit config is malformed; the message names the field."""


class DivergenceError(RuntimeError):
    """The synthesis failed numerically: the backward sweep went non-finite or
    left the positive semidefinite cone, or the closed loop is unstable or
    went non-finite in the forward rollout."""


class _JsonObject(dict):
    """A JSON object as read, with the keys its text gives more than once
    (json.load keeps the last value of each)."""

    repeated: list | tuple = ()


def _json_object(pairs) -> _JsonObject:
    obj = _JsonObject(pairs)
    if len(obj) < len(pairs):
        obj.repeated = sorted(key for key, n in Counter(k for k, _ in pairs).items() if n > 1)
    return obj


def _check_keys(block: dict, keys, ctx: str) -> None:
    """A ConfigError naming ctx when block holds a key not among keys, which
    no reader would look at, or a key its JSON text gives more than once."""
    unknown = sorted(block.keys() - set(keys))
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {unknown}, not among {list(keys)}")
    repeated = getattr(block, "repeated", ())
    if repeated:
        raise ConfigError(f"{ctx}: keys given more than once {repeated}")


def read_json_object(path, keys) -> dict:
    """The JSON object in the file at path, its keys checked against keys
    (see _check_keys); a ConfigError naming the path otherwise."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_json_object)
    except FileNotFoundError:
        raise ConfigError(f"{path}: file not found") from None
    except IsADirectoryError:
        raise ConfigError(f"{path}: is a directory") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, or nested too deep
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    _check_keys(raw, keys, str(path))
    return raw


# the default of a field that has none
REQUIRED = object()

_KIND_NAMES = {
    float: ("a number", "numbers"),
    int: ("a whole number", "whole numbers"),
    str: ("a string", "strings"),
    list: ("a list", "lists"),
    dict: ("an object", "objects"),
}


def checked(value, kind):
    """value as kind, or None when it is not one (see read_field)."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            return None
        items = [checked(item, kind[0]) for item in value]
        return None if None in items else items
    if kind is float or kind is int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            return None
        if not math.isfinite(number):
            return None
        if kind is float:
            return number
        return int(value) if number.is_integer() and number >= 0 else None
    return value if isinstance(value, kind) else None


def read_field(block: dict, name: str, kind, ctx: str, default):
    """block[name] checked against kind; default when the field is absent.

    kind is float (a finite number, returned as a float), int (a whole
    number: finite, integral and >= 0, returned as an int), str, list,
    dict, or [float] / [str] for a list of those.  A bool is not a
    number, and NaN, +-Infinity and an int beyond the float range are
    not finite.  A field whose default is None may also be null.  A
    missing field whose default is REQUIRED, or a value of another
    kind, is a ConfigError naming ctx and the field.
    """
    if name not in block or (block[name] is None and default is None):
        if default is REQUIRED:
            raise ConfigError(f"{ctx}: missing field {name!r}")
        return default
    value = checked(block[name], kind)
    if value is None:
        if isinstance(kind, list):
            expected = f"a list of {_KIND_NAMES[kind[0]][1]}"
        else:
            expected = _KIND_NAMES[kind][0]
        raise ConfigError(f"{ctx}: field {name!r} must be {expected}, got {block[name]!r}")
    return value


def read_block(block: dict, name: str, keys, ctx: str, default=REQUIRED) -> dict:
    """block[name] read as an object (see read_field), its keys checked
    against keys (see _check_keys)."""
    value = read_field(block, name, dict, ctx, default)
    _check_keys(value, keys, f"{ctx}: {name}")
    return value


def read_scalars(block: dict, keys, ctx: str) -> dict:
    """{key: block[key]} for each key of keys, each read as a positive number."""
    scalars = {key: read_field(block, key, float, ctx, REQUIRED) for key in keys}
    for key, value in scalars.items():
        if value <= 0:
            raise ConfigError(f"{ctx}: field {key!r} must be positive, got {value}")
    return scalars


def read_path(block: dict, name: str, ctx: str, base: Path, label: str | None = None) -> Path:
    """base / block[name], the path of a file that exists.

    A path that is missing or names a directory is a ConfigError naming
    label, which defaults to ctx and the field.
    """
    path = base / read_field(block, name, str, ctx, REQUIRED)
    label = label or f"{ctx}: {name}"
    if not path.exists():
        raise ConfigError(f"{label} not found: {path}")
    if path.is_dir():
        raise ConfigError(f"{label} is a directory: {path}")
    return path
