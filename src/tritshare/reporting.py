"""Machine-readable run reports: canonical JSON layout, schema, encoders.

JSON is the canonical format; complex amplitudes serialize as
``[re, im]`` pairs so reports round-trip losslessly. CSV flattens attack
statistics to one row per experiment.

Every report is checked against ``REPORT_SCHEMA`` by one small conformance
check over the schema keywords it uses, whose verdict on any JSON value is
that of a full 2020-12 validator. ``validate_report`` raises
``ReportInvalid`` for a report that fails it, naming the first failing path
and keyword. The package needs no validator library at run time.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from typing import Any, Sequence, get_type_hints

import numpy as np

from .attacks import AttackStats
from .core import PureState
from .errors import ConfigInvalid, ReportInvalid
from .protocol import ChannelVerdict, Transcript

SCHEMA_VERSION = 1

#: What a command's run returns and its report encodes.
Result = Transcript | ChannelVerdict | AttackStats

_COMPLEX_PAIR = {
    "type": "array",
    "prefixItems": [{"type": "number"}, {"type": "number"}],
    "items": False,
    "minItems": 2,
}
_STATE_VECTOR = {"type": "array", "minItems": 3, "items": _COMPLEX_PAIR}
_TRIT = {"enum": [0, 1, 2]}
_BELL_OUTCOME = {
    "type": "object",
    "required": ["n", "m"],
    "additionalProperties": False,
    "properties": {"n": _TRIT, "m": _TRIT},
}
_XI_OUTCOME = {
    "type": "object",
    "required": ["l"],
    "additionalProperties": False,
    "properties": {"l": _TRIT},
}
_ANNOUNCEMENT = {
    "type": "object",
    "required": ["kind", "sender", "payload"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["bell_result", "designation", "helper_result"]},
        "sender": {"type": "string"},
        "payload": {"oneOf": [_BELL_OUTCOME, _XI_OUTCOME, {"type": "integer"}]},
    },
}
_TRANSCRIPT = {
    "type": "object",
    "required": ["announcements", "bell_probability", "reconstructed", "fidelity_to_secret"],
    "additionalProperties": False,
    "properties": {
        "announcements": {"type": "array", "items": _ANNOUNCEMENT},
        "bell_probability": {"type": "number", "minimum": 0, "maximum": 1},
        "reconstructed": _STATE_VECTOR,
        "fidelity_to_secret": {"type": "number", "minimum": 0, "maximum": 1},
    },
}

#: Schema of a result field, by its annotated type: counts, per-trial rates and flags.
_FIELD_RULES = {
    int: {"type": "integer", "minimum": 0},
    float: {"type": "number", "minimum": 0, "maximum": 1},
    bool: {"type": "boolean"},
}


def _result_schema(cls: type) -> dict:
    """A result dataclass's schema: its fields in order, each by its type's rule with its metadata laid over it."""
    hints = get_type_hints(cls)
    properties = {}
    for field in dataclasses.fields(cls):
        if hints[field.name] not in _FIELD_RULES:
            raise TypeError(f"{cls.__name__}.{field.name}: no schema rule for {hints[field.name]!r}")
        properties[field.name] = {**_FIELD_RULES[hints[field.name]], **field.metadata}
    return {"type": "object", "required": list(properties), "additionalProperties": False, "properties": properties}


#: Each command's results: the one key they sit under and its schema, in report order.
_RESULTS = {
    "share": ("transcript", _TRANSCRIPT),
    "check-channel": ("verdict", _result_schema(ChannelVerdict)),
    "attack": ("stats", _result_schema(AttackStats)),
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "tritshare run report",
    "type": "object",
    "required": ["schema_version", "command", "config", "results", "warnings", "wall_time_ms"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"enum": list(_RESULTS)},
        "config": {"type": "object"},
        "results": {"type": "object"},
        "warnings": {"type": "array", "items": {"type": "string"}},
        "wall_time_ms": {"type": "integer", "minimum": 0},
    },
    "allOf": [
        {
            "if": {"properties": {"command": {"const": command}}},
            "then": {
                "properties": {
                    "results": {
                        "type": "object",
                        "required": [key],
                        "additionalProperties": False,
                        "properties": {key: schema},
                    }
                }
            },
        }
        for command, (key, schema) in _RESULTS.items()
    ],
}


def complex_vector(amplitudes: np.ndarray) -> list[list[float]]:
    """Encode complex amplitudes as [re, im] pairs (lossless for doubles)."""
    return [[float(a.real), float(a.imag)] for a in np.asarray(amplitudes)]


def decode_state(pairs: Sequence[Sequence[float]], num_qutrits: int) -> PureState:
    """Rebuild a state from its [re, im] pair encoding."""
    amps = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    return PureState(num_qutrits, amps)


def encode_payload(payload: Any) -> Any:
    # ``int()``, not the payload itself: a designation may be a numpy integer.
    return dataclasses.asdict(payload) if dataclasses.is_dataclass(payload) else int(payload)


def encode_transcript(transcript: Transcript) -> dict:
    return {
        "announcements": [
            {"kind": a.kind, "sender": a.sender, "payload": encode_payload(a.payload)}
            for a in transcript.announcements
        ],
        "bell_probability": float(transcript.bell_probability),
        "reconstructed": complex_vector(transcript.reconstructed.amplitudes),
        "fidelity_to_secret": float(transcript.fidelity_to_secret),
    }


def build_report(command: str, config: dict, result: Result, wall_time_ms: int, warnings: list[str]) -> dict:
    """One run's report, with its result object encoded under the command's results key."""
    key, _ = _RESULTS[command]
    encoded = encode_transcript(result) if command == "share" else dataclasses.asdict(result)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "results": {key: encoded},
        "warnings": list(warnings),
        "wall_time_ms": int(wall_time_ms),
    }


#: The JSON values a report may hold; numpy scalars, tuples and the like fail any keyword that looks at them.
_JSON_VALUES = (dict, list, str, int, float, type(None))


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_equal(a: Any, b: Any) -> bool:
    """JSON equality as 2020-12 defines it: ``1 == 1.0``, but a bool equals only a bool."""
    if a is b:
        return True
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[key], b[key]) for key in a)
    if _is_number(a) and _is_number(b):  # a bool is not a number, so True != 1
        return a == b
    return isinstance(a, str) and isinstance(b, str) and a == b


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "boolean": lambda value: isinstance(value, bool),
    "number": _is_number,
    "integer": lambda value: _is_number(value) and (isinstance(value, int) or value.is_integer()),
}


def _violation(instance: Any, schema: Any, path: tuple = (), via: str = "false") -> tuple[tuple, str] | None:
    """Where ``instance`` first fails ``schema`` under JSON Schema 2020-12: the path to the
    failing value and the failing keyword, or None if it conforms.

    On JSON values (dict, list, str, int, float, bool, None) the verdict is exactly a
    full validator's; ``oneOf`` and ``if`` rely on that. Any other value, such as a numpy
    integer or a tuple, fails the first keyword that looks at it. A false subschema fails
    as ``via``, the keyword that applied it. A keyword not handled here raises
    NotImplementedError: the schema, not the report, is then at fault.
    """
    if isinstance(schema, bool):
        return None if schema else (path, via)
    is_json = isinstance(instance, _JSON_VALUES)
    is_object, is_array = isinstance(instance, dict), isinstance(instance, list)
    for keyword, value in schema.items():
        if keyword in ("$schema", "title", "then"):  # annotations; "then" is judged with "if"
            continue
        ok, inner = True, ()  # inner: the (value, subschema, path) triples the keyword applies
        if keyword == "type":
            if not isinstance(value, str) or value not in _TYPES:
                raise NotImplementedError(f"schema type {value!r}")
            ok = _TYPES[value](instance)
        elif keyword == "const":
            ok = _json_equal(instance, value)
        elif keyword == "enum":
            ok = any(_json_equal(instance, member) for member in value)
        elif keyword == "required":
            ok = not is_object or all(key in instance for key in value)
        elif keyword == "minItems":
            ok = not is_array or len(instance) >= value
        elif keyword == "minimum":
            ok = not _is_number(instance) or not instance < value
        elif keyword == "maximum":
            ok = not _is_number(instance) or not instance > value
        elif keyword == "oneOf":
            ok = sum(_violation(instance, sub, path) is None for sub in value) == 1
        elif keyword == "properties":
            if is_object:
                inner = ((instance[key], sub, (*path, key)) for key, sub in value.items() if key in instance)
        elif keyword == "additionalProperties":
            known = schema.get("properties", {})
            if is_object:
                inner = ((instance[key], value, (*path, key)) for key in instance if key not in known)
        elif keyword == "prefixItems":
            if is_array:
                inner = ((item, sub, (*path, i)) for i, (item, sub) in enumerate(zip(instance, value)))
        elif keyword == "items":
            start = len(schema.get("prefixItems", ()))
            if is_array:
                inner = ((item, value, (*path, i)) for i, item in enumerate(instance[start:], start))
        elif keyword == "allOf":
            inner = ((instance, sub, path) for sub in value)
        elif keyword == "if":
            if "then" in schema and _violation(instance, value, path) is None:
                # "then" applies, and a false "then" fails as "then"
                keyword, inner = "then", ((instance, schema["then"], path),)
        else:
            raise NotImplementedError(f"schema keyword {keyword!r}")
        if not ok or not is_json:
            return path, keyword
        for item, sub, item_path in inner:
            failure = _violation(item, sub, item_path, keyword)
            if failure is not None:
                return failure
    return None


def validate_report(report: dict) -> None:
    """Raise ReportInvalid, naming the failing path and keyword, if the report violates ``REPORT_SCHEMA``."""
    failure = _violation(report, REPORT_SCHEMA)
    if failure is not None:
        path, keyword = failure
        where = "/" + "/".join(map(str, path)) if path else "the top level"
        raise ReportInvalid(f"report violates schema: {keyword!r} fails at {where}")


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def render_csv(report: dict) -> str:
    """One flat row per attack experiment, stats in field order; only attack reports have a CSV form."""
    if report["command"] != "attack":
        raise ConfigInvalid("only attack reports have a CSV form")
    stats = report["results"]["stats"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["command", "model", *stats])
    writer.writerow([report["command"], report["config"].get("model", ""), *stats.values()])
    return buf.getvalue()
