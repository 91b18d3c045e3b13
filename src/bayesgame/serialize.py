"""JSON codec for game instances, priors, profiles and config dataclasses.

A dataclass is a JSON object holding its fields; the document schema is
described in the README.  Matrices are nested lists in row-major order.
Decoding errors raise ``ConfigError`` whose message starts with the JSON
path of the offending field.
"""

from __future__ import annotations

import enum
import typing
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

from .game import _PRIOR_FAMILIES, GameSpec, Prior, _prior_family


class ConfigError(ValueError):
    """Malformed configuration document."""


def _object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    return obj


_JSON_TYPES = {bool: ((bool,), "a boolean"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string")}


def _typed(value, kind, where: str):
    """``value`` as ``kind`` (bool, int, float or str); an int may stand for a float."""
    types, name = _JSON_TYPES[kind]
    if not isinstance(value, types) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"{where}: expected {name}, got {value!r}")
    return kind(value)


def _choice(value, choices, where: str):
    if value not in choices:
        raise ConfigError(f"{where}: expected {' or '.join(choices)}, got {value!r}")
    return value


def _field(value, kind, default, where: str):
    """``value`` decoded as a field of type ``kind`` whose default is ``default``."""
    if typing.get_origin(kind) is typing.Literal:
        return _choice(value, typing.get_args(kind), where)
    if isinstance(kind, enum.EnumMeta):
        return kind(_choice(value, [member.value for member in kind], where))
    if is_dataclass(kind):
        return config_from_jsonable(kind, value, where)
    if kind is np.ndarray:  # rank and shape are the constructor's to check
        try:
            arr = np.asarray(value)
        except ValueError:  # a ragged nesting of lists
            arr = None
        if arr is None or arr.dtype.kind not in "iuf":
            raise ConfigError(f"{where}: expected a numeric array")
        return arr
    if kind is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        item = type(default[0])
        return tuple(_typed(v, item, f"{where}[{i}]") for i, v in enumerate(value))
    options = typing.get_args(kind) or (kind,)  # float | None: (float, NoneType)
    if value is None and type(None) in options:
        return None
    return _typed(value, options[0], where)


def config_from_jsonable(cls, obj, path: str, **given):
    """The dataclass ``cls`` from a JSON object, each key typed by its field.

    A field is a bool, int, float or str (an int may stand for a float), an
    optional one of these (``float | None`` also accepts null), a tuple
    whose items take the type of its default's first item, an enum or
    ``Literal`` (one of its values), a numeric ``np.ndarray`` or a nested
    dataclass.  A field without a default is required, and a key that names
    no field is an error, reported after the fields'.  A ``given`` value
    other than None is used as it is, whatever the document holds.  Keys
    are named ``path.key``, or ``key`` when ``path`` is empty.  A
    constructor's ``ConfigError`` passes through; its other ``ValueError``
    is reported against ``path``.
    """
    _object(obj, path)
    hints = typing.get_type_hints(cls)
    kwargs = {key: value for key, value in given.items() if value is not None}
    names = set()
    for f in fields(cls):
        names.add(f.name)
        where = f"{path}.{f.name}" if path else f.name
        if f.name in kwargs:
            continue
        if f.name in obj:
            kwargs[f.name] = _field(obj[f.name], hints[f.name], f.default, where)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}: missing required field")
    for key in obj:
        if key not in names:
            raise ConfigError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path or cls.__name__}: {exc}") from None


def to_jsonable(value):
    """``value`` as JSON data: a dataclass as an object of its fields in order.

    Fields that are None are left out, arrays become nested lists, enums
    their values and tuples lists; other values are kept as they are.
    """
    if is_dataclass(value):
        return {f.name: to_jsonable(v) for f in fields(value)
                if (v := getattr(value, f.name)) is not None}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [to_jsonable(v) for v in value]
    return value


# a game and a profile are written as their fields
game_to_jsonable = profile_to_jsonable = to_jsonable


def game_from_jsonable(obj, path: str = "game") -> GameSpec:
    rest = dict(_object(obj, path))
    if _typed(rest.pop("reg_d", 1.0), float, f"{path}.reg_d") != 1.0:
        raise ConfigError(f"{path}.reg_d: fixed to 1; rescale c_d instead")
    return config_from_jsonable(GameSpec, rest, path)


def prior_to_jsonable(prior: Prior) -> dict:
    return {"family": _prior_family(prior)[0], **to_jsonable(prior)}


def prior_from_jsonable(obj, path: str = "prior") -> Prior:
    rest = dict(_object(obj, path))
    if "family" not in rest:
        raise ConfigError(f"{path}.family: missing required field")
    name = rest.pop("family")
    family = _PRIOR_FAMILIES.get(name) if isinstance(name, str) else None
    if family is None:
        raise ConfigError(f"{path}.family: unknown prior family {name!r}")
    return config_from_jsonable(family.cls, rest, path)
