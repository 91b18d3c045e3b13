"""JSON codecs for game instances, priors, profiles and config dataclasses.

The document schema is described in the README.  Matrices are nested lists
in row-major order.  Decoding errors raise ``ConfigError`` whose message
starts with the JSON path of the offending field.
"""

from __future__ import annotations

import typing
from dataclasses import MISSING, fields

import numpy as np

from .game import (
    _PRIOR_FAMILIES,
    ActionSet,
    GameSpec,
    LossKind,
    Prior,
    StrategyProfile,
    _prior_family,
)


class ConfigError(ValueError):
    """Malformed configuration document."""


def _object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    return obj


def _require(obj: dict, key: str, path: str):
    if key not in _object(obj, path):
        raise ConfigError(f"{path}.{key}: missing required field")
    return obj[key]


_JSON_TYPES = {bool: ((bool,), "a boolean"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string")}


def _typed(value, kind, where: str):
    """``value`` as ``kind`` (bool, int, float or str); an int may stand for a float."""
    types, name = _JSON_TYPES[kind]
    if not isinstance(value, types) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"{where}: expected {name}, got {value!r}")
    return kind(value)


def _number(obj: dict, key: str, path: str, default=None) -> float:
    if default is not None and key not in obj:
        return default
    return _typed(_require(obj, key, path), float, f"{path}.{key}")


def _array(obj: dict, key: str, path: str, ndim: int) -> np.ndarray:
    value = _require(obj, key, path)
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.{key}: not a numeric array ({exc})") from None
    if arr.ndim != ndim:
        raise ConfigError(f"{path}.{key}: expected a {ndim}-dimensional array, got {arr.ndim}")
    return arr


def action_set_to_jsonable(action_set: ActionSet) -> dict:
    if action_set.bounded:
        return {"kind": "l2_ball", "radius": action_set.radius}
    return {"kind": "unconstrained"}


def action_set_from_jsonable(obj, path: str) -> ActionSet:
    kind = _require(obj, "kind", path)
    if kind == "unconstrained":
        return ActionSet.unconstrained()
    if kind == "l2_ball":
        return ActionSet.l2_ball(_number(obj, "radius", path))
    raise ConfigError(f"{path}.kind: unknown action set kind {kind!r}")


def game_to_jsonable(spec: GameSpec) -> dict:
    return {
        "X": spec.X.tolist(),
        "y": spec.y.tolist(),
        "z": spec.z.tolist(),
        "c_l": spec.c_l.tolist(),
        "learner_loss": spec.learner_loss.value,
        "adversary_loss": spec.adversary_loss.value,
        "learner_set": action_set_to_jsonable(spec.learner_set),
        "adversary_set": action_set_to_jsonable(spec.adversary_set),
        "reg_l": spec.reg_l,
    }


def game_from_jsonable(obj, path: str = "game") -> GameSpec:
    _object(obj, path)
    losses = {}
    for key in ("learner_loss", "adversary_loss"):
        raw = obj.get(key, "quadratic")
        try:
            losses[key] = LossKind(raw)
        except ValueError:
            raise ConfigError(f"{path}.{key}: unknown loss kind {raw!r}") from None
    if _number(obj, "reg_d", path, default=1.0) != 1.0:
        raise ConfigError(f"{path}.reg_d: fixed to 1; rescale c_d instead")
    try:
        return GameSpec(
            X=_array(obj, "X", path, 2),
            y=_array(obj, "y", path, 1),
            z=_array(obj, "z", path, 1),
            c_l=_array(obj, "c_l", path, 1),
            learner_loss=losses["learner_loss"],
            adversary_loss=losses["adversary_loss"],
            learner_set=action_set_from_jsonable(
                obj.get("learner_set", {"kind": "unconstrained"}), f"{path}.learner_set"
            ),
            adversary_set=action_set_from_jsonable(
                obj.get("adversary_set", {"kind": "unconstrained"}), f"{path}.adversary_set"
            ),
            reg_l=_number(obj, "reg_l", path, default=1.0),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def prior_to_jsonable(prior: Prior) -> dict:
    name, family = _prior_family(prior)
    doc = {"family": name}
    for key, rank in family.fields.items():
        value = getattr(prior, key)
        doc[key] = value.tolist() if rank else value
    return doc


def prior_from_jsonable(obj, path: str = "prior") -> Prior:
    name = _require(obj, "family", path)
    family = _PRIOR_FAMILIES.get(name) if isinstance(name, str) else None
    if family is None:
        raise ConfigError(f"{path}.family: unknown prior family {name!r}")
    try:
        return family.cls(**{
            key: _array(obj, key, path, rank) if rank else _number(obj, key, path)
            for key, rank in family.fields.items()
        })
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def profile_to_jsonable(profile: StrategyProfile) -> dict:
    return {"w": profile.w.tolist(), "sigma": profile.sigma.tolist()}


def config_from_jsonable(cls, obj, path: str, **given):
    """The config dataclass ``cls`` from a JSON object; keys it has no field for are ignored.

    Each key takes its field's type: a tuple's items the type of its
    default's first item, and ``float | None`` also accepts null.  A field
    without a default is required.  A ``given`` value other than None is
    used as it is, whatever the document holds.  Keys are named
    ``path.key``, or ``key`` when ``path`` is empty.
    """
    _object(obj, path)
    hints = typing.get_type_hints(cls)
    kwargs = {key: value for key, value in given.items() if value is not None}
    for f in fields(cls):
        where = f"{path}.{f.name}" if path else f.name
        if f.name in kwargs:
            continue
        if f.name not in obj:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{where}: missing required field")
            continue
        value, kind = obj[f.name], hints[f.name]
        options = typing.get_args(kind) or (kind,)  # float | None: (float, NoneType)
        if value is None and type(None) in options:
            kwargs[f.name] = None
        elif kind is tuple:
            if not isinstance(value, list):
                raise ConfigError(f"{where}: expected a list, got {value!r}")
            item = type(f.default[0])
            kwargs[f.name] = tuple(_typed(v, item, f"{where}[{i}]") for i, v in enumerate(value))
        else:
            kwargs[f.name] = _typed(value, options[0], where)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path or cls.__name__}: {exc}") from None
