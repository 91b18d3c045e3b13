"""JSON codec for game instances, priors, profiles and config dataclasses.

A dataclass is a JSON object holding its fields; the document schema is
described in the README.  Matrices are nested lists in row-major order.
Decoding errors raise ``ConfigError`` whose message starts with the JSON
path of the offending field.
"""

from __future__ import annotations

import enum
import typing
from dataclasses import MISSING, fields, is_dataclass, replace
from functools import partial

import numpy as np

from .game import _PRIOR_FAMILIES, ConfigError, FieldError, GameSpec, Prior, _prior_family


def _key(path: str, key: str) -> str:
    """The JSON path of ``key`` in the object at ``path``: ``path.key``, or ``key`` at the top."""
    return f"{path}.{key}" if path else key


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


def _field(value, kind, where: str):
    """``value`` decoded as a field of type ``kind``."""
    if kind == Prior:  # its family key names the dataclass
        obj = dict(_object(value, where))
        name = obj.pop("family", MISSING)
        family = _PRIOR_FAMILIES.get(name) if isinstance(name, str) else None
        if family is None:
            raise ConfigError(f"{where}.family: missing required field" if name is MISSING
                              else f"{where}.family: unknown prior family {name!r}")
        return config_from_jsonable(family, obj, where)
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
    options = typing.get_args(kind)  # tuple[X, ...]: (X, ...); float | None: (float, NoneType)
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return tuple(_field(v, options[0], f"{where}[{i}]") for i, v in enumerate(value))
    if type(None) in options:
        return None if value is None else _field(value, options[0], where)
    return _typed(value, kind, where)


def _built(make, kwargs: dict, path: str):
    """``make(**kwargs)``, whose ``FieldError`` is reported against the field it names,
    ``path.field``."""
    try:
        return make(**kwargs)
    except FieldError as exc:
        raise ConfigError(f"{_key(path, exc.field)}: {exc.problem}") from None


def config_from_jsonable(cls, obj, path: str):
    """The dataclass ``cls`` from a JSON object, each key typed by its field.

    A field is a bool, int, float or str (an int may stand for a float), an
    optional one of these (``float | None`` also accepts null), a tuple of
    the ``X`` of ``tuple[X, ...]``, an enum or ``Literal`` (one of its
    values), a numeric ``np.ndarray``, a ``Prior`` (its ``family`` names the
    dataclass) or a nested dataclass.  Its key is its metadata's ``"json"``, else its name.
    A field without a default is required, and a key that names no field is
    an error, reported after the fields' and the constructor's errors.  Keys
    are named ``path.key``, or ``key`` when ``path`` is empty.  A constructor's
    ``FieldError`` is reported against ``path.field``.
    """
    _object(obj, path)
    hints = typing.get_type_hints(cls)
    kwargs, keys = {}, set()
    for f in fields(cls):
        keys.add(key := f.metadata.get("json", f.name))
        where = _key(path, key)
        if key in obj:
            kwargs[f.name] = _field(obj[key], hints[f.name], where)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}: missing required field")
    config = _built(cls, kwargs, path)
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{_key(path, key)}: unknown key")
    return config


def with_flags(config, path: str, **flags):
    """``config`` with each flag that is not None in place of its field, checked as decoded."""
    flags = {key: value for key, value in flags.items() if value is not None}
    return _built(partial(replace, config), flags, path)


def to_jsonable(value):
    """``value`` as JSON data: a dataclass as an object of its fields in order.

    A prior's ``family`` comes first; keys are those read.  Fields that are
    None are left out, arrays become nested lists, enums their values and
    tuples lists; other values are kept as they are.
    """
    if is_dataclass(value):
        doc = {"family": _prior_family(value)} if isinstance(value, Prior) else {}
        return doc | {f.metadata.get("json", f.name): to_jsonable(v) for f in fields(value)
                      if (v := getattr(value, f.name)) is not None}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [to_jsonable(v) for v in value]
    return value


# a game, a prior and a profile are written as their fields
game_to_jsonable = prior_to_jsonable = profile_to_jsonable = to_jsonable


def game_from_jsonable(obj, path: str = "game") -> GameSpec:
    return config_from_jsonable(GameSpec, obj, path)


def prior_from_jsonable(obj, path: str = "prior") -> Prior:
    return _field(obj, Prior, path)
