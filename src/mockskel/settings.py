"""Settings: each setting's type, default and valid range, written once as
a field of a ``Settings`` dataclass, and the one reader that turns JSON
values into settings.  It imports no numpy, so the command line loads it
without the learners.

A field's annotation is its JSON type, and ``Annotated`` adds its valid
range as a ``Valid``.  Annotations are evaluated outside their module's
namespace, so a ``Valid`` whose test reads a module's names is built at
module level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from functools import cache, partial
from typing import Annotated, Any, Callable, NamedTuple, get_args, get_origin, get_type_hints

from .errors import MalformedInputError, SettingError

#: a JSON object of strings, as (key, value) pairs so that settings stay hashable
Pairs = tuple[tuple[str, str], ...]


class Valid(NamedTuple):
    """A valid range: ``test`` accepts the values inside it, ``text`` names it."""

    test: Callable[[Any], bool]
    text: str


def at_least(low: int) -> Valid:
    return Valid(lambda value: value >= low, f"at least {low}")


#: a number of things, never negative
Count = Annotated[int, at_least(0)]
#: a share of a whole
Share = Annotated[float, Valid(lambda value: 0 < value <= 1, "in (0, 1]")]


#: the annotated type of each field of a settings class, in field order
setting_types = cache(partial(get_type_hints, include_extras=True))


def _plain(hint):
    """``hint`` without its valid ranges."""
    return get_args(hint)[0] if get_origin(hint) is Annotated else hint


def _check(hint, value, key: str) -> None:
    """Raise SettingError naming ``key`` if ``value`` is outside a valid
    range of its type ``hint``."""
    for valid in getattr(hint, "__metadata__", ()):
        if not valid.test(value):
            raise SettingError(f"{key} must be {valid.text}, not {value!r}")


class Settings:
    """Base of the settings dataclasses: the constructor raises SettingError
    naming the first field outside its valid range."""

    def __post_init__(self):
        for name, hint in setting_types(type(self)).items():
            _check(hint, getattr(self, name), name)


_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               tuple[str, ...]: "a list of strings", Pairs: "an object of strings"}


def read_setting(hint, value, key: str, key_of: Callable[[str], str] = str):
    """The setting of type ``hint`` that the JSON ``value`` under ``key``
    gives.  A list is read as a tuple, an object as ``Pairs`` or, for a
    settings class, as an instance with one key per field, spelled by
    ``key_of``; a missing key keeps its field's default.  An integer is a
    number, but a boolean is not an integer.  A wrong JSON type, an unknown
    key or a value outside its valid range raises SettingError naming the
    key."""
    plain = _plain(hint)
    if is_dataclass(plain) and isinstance(value, dict):
        types = setting_types(plain)
        names = {key_of(name): name for name in types}
        if unknown := sorted(value.keys() - names.keys()):
            raise SettingError(f"{key} has unknown key {unknown[0]!r}")
        given = {names[k]: read_setting(types[names[k]], v, k, key_of) for k, v in value.items()}
        return plain(**given)
    if type(value) is plain or (plain is float and type(value) is int):
        setting = plain(value)
    elif plain == tuple[str, ...] and isinstance(value, list) and all(type(v) is str for v in value):
        setting = tuple(value)
    elif plain == Pairs and isinstance(value, dict) and all(type(v) is str for v in value.values()):
        setting = tuple(value.items())
    else:
        raise SettingError(f"{key} must be {_JSON_TYPES.get(plain, 'an object')}, not {value!r}")
    _check(hint, setting, key)
    return setting


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise MalformedInputError(f"repeated key {key!r} in a JSON object")
        obj[key] = value
    return obj


def read_json(data: str | bytes, unique_keys: bool = True):
    """The JSON value ``data`` holds, the one decoder of JSON read from
    outside; bytes are read as strict UTF-8.  Bytes that are not UTF-8,
    text that is not JSON, nesting too deep to decode and an integer too
    long to convert raise MalformedInputError, as does, with
    ``unique_keys``, an object that repeats a key at any depth, so that no
    setting is silently given twice."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text, object_pairs_hook=_unique_keys if unique_keys else None)
    except RecursionError:
        raise MalformedInputError("nested too deep to decode") from None
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors too
        raise MalformedInputError(str(exc)) from exc


def settings_json(obj, key_of: Callable[[str], str] = str) -> dict:
    """``obj``, an instance of a settings class, as the JSON object that
    ``read_setting`` reads back into it."""
    out = {}
    for name, hint in setting_types(type(obj)).items():
        value = getattr(obj, name)
        if is_dataclass(value):
            value = settings_json(value, key_of)
        elif _plain(hint) == Pairs:
            value = dict(value)
        out[key_of(name)] = value
    return out


# ---------------------------------------------------------------------------
# Preparation and learner settings


@dataclass(frozen=True)
class PrepConfig(Settings):
    """Which attributes preparation removes: targets with more distinct
    values than ``cardinality_limit``, and single-valued inputs unless
    they are kept."""

    max_target_cardinality: Annotated[int, at_least(2)] = 32
    max_target_distinct_ratio: Share = 0.5
    keep_single_valued_inputs: bool = False

    def cardinality_limit(self, n_instances: int) -> float:
        return min(self.max_target_cardinality, self.max_target_distinct_ratio * n_instances)


@dataclass(frozen=True)
class TreeParams(Settings):
    """How C4.5 and PART grow and prune their trees."""

    confidence_factor: Share = 0.25
    min_leaf_instances: Count = 2


@dataclass(frozen=True)
class RipperParams(Settings):
    #: data is split fold-style for growing/pruning: (folds-1)/folds grows,
    #: so one fold would leave nothing to grow on
    folds_split: Annotated[int, at_least(2)] = 3
    min_rule_coverage: Count = 2
    optimization_runs: Count = 2
    seed: int = 1


@dataclass(frozen=True)
class LearnerParams(Settings):
    """Each learner's settings, one field per learner, named after its
    module; the field order is the order in which ties between learners
    break."""

    c45: TreeParams = TreeParams()
    ripper: RipperParams = RipperParams()
    part: TreeParams = TreeParams()


#: the learners, in the field order of ``LearnerParams``: the tie order
LEARNER_ORDER = tuple(field.name for field in fields(LearnerParams))
