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
    if kind == Prior:  # its family key names the dataclass
        obj = dict(_object(value, where))
        name = obj.pop("family", MISSING)
        family = _PRIOR_FAMILIES.get(name) if isinstance(name, str) else None
        if family is None:
            raise ConfigError(f"{where}.family: missing required field" if name is MISSING
                              else f"{where}.family: unknown prior family {name!r}")
        return config_from_jsonable(family.cls, obj, where)
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
    if kind is tuple or typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        item = options[0] if options else type(default[0])
        return tuple(_field(v, item, MISSING, f"{where}[{i}]") for i, v in enumerate(value))
    if type(None) in options:
        return None if value is None else _field(value, options[0], default, where)
    return _typed(value, kind, where)


def _built(make, kwargs: dict, where: str):
    """``make(**kwargs)``, whose ``ValueError`` is reported against ``where``."""
    try:
        return make(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def config_from_jsonable(cls, obj, path: str):
    """The dataclass ``cls`` from a JSON object, each key typed by its field.

    A field is a bool, int, float or str (an int may stand for a float), an
    optional one of these (``float | None`` also accepts null), a tuple of
    the ``X`` of ``tuple[X, ...]`` (else of its default's first item's
    type), an enum or ``Literal`` (one of its values), a numeric
    ``np.ndarray``, a ``Prior`` (its ``family`` names the dataclass) or a
    nested dataclass.  Its key is its metadata's ``"json"``, else its name.
    A field without a default is required, and a key that names no field is
    an error, reported after the fields'.  Keys are named ``path.key``, or
    ``key`` when ``path`` is empty.  A constructor's ``ConfigError`` passes
    through; its other ``ValueError`` is reported against ``path``.
    """
    _object(obj, path)
    hints = typing.get_type_hints(cls)
    kwargs, keys = {}, set()
    for f in fields(cls):
        keys.add(key := f.metadata.get("json", f.name))
        where = f"{path}.{key}" if path else key
        if key in obj:
            kwargs[f.name] = _field(obj[key], hints[f.name], f.default, where)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}: missing required field")
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")
    return _built(cls, kwargs, path or cls.__name__)


def with_flags(config, path: str, **flags):
    """``config`` with each flag that is not None in place of its field, checked as decoded."""
    flags = {key: value for key, value in flags.items() if value is not None}
    return _built(partial(replace, config), flags, path or type(config).__name__)


def to_jsonable(value):
    """``value`` as JSON data: a dataclass as an object of its fields in order.

    A prior's ``family`` comes first; keys are those read.  Fields that are
    None are left out, arrays become nested lists, enums their values and
    tuples lists; other values are kept as they are.
    """
    if is_dataclass(value):
        doc = {"family": _prior_family(value)[0]} if isinstance(value, Prior) else {}
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
    rest = dict(_object(obj, path))
    if _typed(rest.pop("reg_d", 1.0), float, f"{path}.reg_d") != 1.0:
        raise ConfigError(f"{path}.reg_d: fixed to 1; rescale c_d instead")
    return config_from_jsonable(GameSpec, rest, path)


def prior_from_jsonable(obj, path: str = "prior") -> Prior:
    return _field(obj, Prior, MISSING, path)
