"""JSON game-spec files.

A spec file is a JSON object with the fields

    n_firms   integer >= 2
    gain      {"kind": "linear", "G": number} or
              {"kind": "concave", "G": number, "f": [0, ...]}
    L         leakage loss, number > 0
    alpha     concealment read correctly, in (1/2, 1)
    epsilon   disclosure misread, in (0, 1/2)
    delta     discount factor, in (0, 1)

plus optional ``monitor_alpha`` / ``monitor_epsilon`` overrides for the
public monitor and an optional ``seed``, an integer in [0, 2^64) like every
seed of the package (``rng.WORDS``).  Numbers must be finite decimals: NaN
and Infinity tokens are rejected, and so is a number too large for a float.
Errors name the offending field; syntax errors carry the line and column
from the JSON parser.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial

from .errors import DomainError
from .game import ConcaveGain, GameSpec, LinearGain, _real, validate_count
from .rng import WORDS

_TOP_FIELDS = {
    "n_firms", "gain", "L", "alpha", "epsilon", "delta",
    "monitor_alpha", "monitor_epsilon", "seed",
}
_GAIN_FIELDS = {"kind", "G", "f"}


@dataclass(frozen=True)
class LoadedSpec:
    spec: GameSpec
    seed: int | None
    source: str


def _reject_constant(token: str):
    raise DomainError(f"non-finite number {token!r} is not accepted in spec files")


def _require(obj: dict, name: str, source: str):
    if name not in obj:
        raise DomainError(f"{source}: missing required field '{name}'")
    return obj[name]


def _number(value, name: str, source: str) -> float:
    """A JSON number as a float (a JSON int too, which sets report bytes),
    refused with its field's name when it is no number or too large for a
    float."""
    number = _real(value)
    if number is None:
        raise DomainError(f"{source}: field '{name}' must be a number, got {value!r}")
    if not math.isfinite(number):
        raise DomainError(f"{source}: field '{name}' must be a number within the float range")
    return number


def parse_game_spec(text: str, source: str = "<string>") -> LoadedSpec:
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"{source}: JSON syntax error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    except DomainError as exc:
        raise DomainError(f"{source}: {exc}") from None
    except ValueError:  # an integer literal past Python's digit limit
        raise DomainError(f"{source}: a JSON number has too many digits to read") from None
    if not isinstance(obj, dict):
        raise DomainError(f"{source}: top level must be a JSON object")
    unknown = sorted(set(obj) - _TOP_FIELDS)
    if unknown:
        raise DomainError(f"{source}: unknown field(s) {unknown}")

    n_firms = _require(obj, "n_firms", source)
    gain_obj = _require(obj, "gain", source)
    if not isinstance(gain_obj, dict):
        raise DomainError(f"{source}: field 'gain' must be an object")
    unknown = sorted(set(gain_obj) - _GAIN_FIELDS)
    if unknown:
        raise DomainError(f"{source}: unknown field(s) {unknown} in 'gain'")
    kind = _require(gain_obj, "kind", source + ": gain")
    g_value = _number(_require(gain_obj, "G", source + ": gain"), "G", source)
    if kind == "linear":
        if "f" in gain_obj:
            raise DomainError(f"{source}: field 'gain.f' is only valid for kind 'concave'")
        make_gain = partial(LinearGain, g_value)
    elif kind == "concave":
        f = _require(gain_obj, "f", source + ": gain")
        if not isinstance(f, list) or not f:
            raise DomainError(f"{source}: field 'gain.f' must be a non-empty array")
        table = tuple(
            _number(v, f"gain.f[{k}]", source) for k, v in enumerate(f)
        )
        make_gain = partial(ConcaveGain, g_value, table)
    else:
        raise DomainError(
            f"{source}: field 'gain.kind' must be 'linear' or 'concave', got {kind!r}"
        )

    # Every float field is read, and refused with the file name, before the
    # try, which prefixes the file name to what the gain and GameSpec refuse,
    # n_firms included (GameSpec's validate_count).
    kwargs = {}
    for json_name in ("monitor_alpha", "monitor_epsilon"):
        if json_name in obj and obj[json_name] is not None:
            kwargs[json_name] = _number(obj[json_name], json_name, source)
    for json_name, attr in (("L", "loss"), ("alpha", "alpha"), ("epsilon", "epsilon"),
                            ("delta", "delta")):
        kwargs[attr] = _number(_require(obj, json_name, source), json_name, source)

    try:
        spec = GameSpec(n_firms=n_firms, gain=make_gain(), **kwargs)
    except DomainError as exc:
        raise DomainError(f"{source}: {exc}") from None

    seed = None
    if "seed" in obj and obj["seed"] is not None:
        seed = obj["seed"]
        validate_count(seed, f"{source}: field 'seed'", 0, WORDS)
    return LoadedSpec(spec=spec, seed=seed, source=source)


def load_game_spec(path) -> LoadedSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read spec file {path}: {exc.strerror}") from None
    return parse_game_spec(text, source=str(path))
