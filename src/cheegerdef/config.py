"""Config tables: dataclass fields that carry their own config keys.

A table field is declared with `knob`, which stores in the field
metadata its config key (one key per component for a value pair), the
parser of the raw string, the bound check and the name under which the
run report echoes it.  The known keys, the parsing of raw key/value
strings, the validation and the echo are derived from these fields.
"""

from __future__ import annotations

import math
from dataclasses import field, fields

# echo group of the verdict thresholds; keys in the `tol.` namespace
# land there under their field name
THRESHOLDS = "thresholds"


def parse_int(raw: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ValueError(f"cannot parse '{raw}' as an integer") from None


def parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"cannot parse '{raw}' as a number") from None
    if not math.isfinite(value):
        raise ValueError(f"'{raw}' is not a finite number")
    return value


def parse_float_list(raw: str) -> tuple[float, ...]:
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(parse_float(p) for p in parts)


def bound(holds, problem: str):
    """Check that reports problem for a value on which holds is false."""
    return lambda v: None if holds(v) else problem


def at_least(lo):
    return bound(lambda v: v >= lo, f"must be at least {lo}")


positive = bound(lambda v: v > 0, "must be positive")


def knob(default, *keys: str, parse=parse_float, check=None, echo: str | None = None,
         fallback: str | None = None, only_for: str | None = None):
    """Table field with its default and config keys.

    parse maps a raw string to the value (to one component when the
    field has one key per component); check(value) returns what is
    wrong with a value, or None.  echo names the report entry; by
    default it is the key with dots as underscores, and the thresholds
    group for `tol.` keys.  A None value is echoed as the attribute
    named by fallback of the scenario run.  only_for names the only
    scenario the key applies to.
    """
    if echo is None:
        echo = THRESHOLDS if keys[0].startswith("tol.") else keys[0].replace(".", "_")
    return field(default=default, metadata={
        "keys": keys, "parse": parse, "check": check, "echo": echo,
        "fallback": fallback, "only_for": only_for})


def _knobs(cls_or_obj):
    return [f for f in fields(cls_or_obj) if "keys" in f.metadata]


def table_keys(*tables) -> set[str]:
    """Config keys of the given table classes."""
    return {k for t in tables for f in _knobs(t) for k in f.metadata["keys"]}


def _parse(key: str, parse, raw: str):
    try:
        return parse(raw)
    except ValueError as exc:
        raise ValueError(f"key '{key}': {exc}") from None


def values_from(table, raw: dict[str, str]) -> dict:
    """Constructor keywords of a table class for the keys set in raw."""
    kw = {}
    for f in _knobs(table):
        keys, parse = f.metadata["keys"], f.metadata["parse"]
        if len(keys) == 1:
            if keys[0] in raw:
                kw[f.name] = _parse(keys[0], parse, raw[keys[0]])
        elif any(k in raw for k in keys):
            kw[f.name] = tuple(_parse(k, parse, raw[k]) if k in raw else d
                               for k, d in zip(keys, f.default))
    return kw


def validate(obj) -> None:
    """Raise ValueError naming the first field whose check fails."""
    for f in _knobs(obj):
        check = f.metadata["check"]
        value = getattr(obj, f.name)
        problem = check(value) if check else None
        if problem:
            keys = " / ".join(f"'{k}'" for k in f.metadata["keys"])
            hint = f" (config key {keys})" if keys else ""
            raise ValueError(f"{f.name} {problem}, got {value!r}{hint}")


def echo(obj, scenario) -> dict:
    """Report echo of a table object, None values resolved against the
    scenario run."""
    out: dict = {}
    for f in _knobs(obj):
        value = getattr(obj, f.name)
        if value is None and f.metadata["fallback"]:
            value = getattr(scenario, f.metadata["fallback"])
        name = f.metadata["echo"]
        if name == THRESHOLDS:
            out.setdefault(THRESHOLDS, {})[f.name] = value
        else:
            out[name] = value
    return out
