"""Machine-readable run reports: canonical JSON layout, schema, encoders.

JSON is the canonical format; complex amplitudes serialize as
``[re, im]`` pairs so reports round-trip losslessly. CSV flattens attack
statistics to one row per experiment.

Every report is checked against ``REPORT_SCHEMA`` by a small conformance
check over the schema keywords it uses. jsonschema is imported only when
that check refuses a report, to give the verdict and explain the violation.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Sequence, get_type_hints

import numpy as np

from .attacks import AttackStats
from .core import PureState
from .errors import ConfigInvalid
from .protocol import ChannelVerdict, Transcript

if TYPE_CHECKING:
    import jsonschema

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


class _Unsupported(Exception):
    """A value or schema keyword the conformance check does not judge."""


#: The JSON values the conformance check judges; numpy scalars, tuples and the like stop it.
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


def _conforms(instance: Any, schema: Any) -> bool:
    """Whether ``instance`` satisfies ``schema`` under JSON Schema 2020-12.

    On JSON values (dict, list, str, int, float, bool, None) and the keywords
    handled here, the answer is exactly jsonschema's; ``oneOf`` and ``if``
    rely on that. Any other value the schema looks at, and any other keyword,
    raises ``_Unsupported``.
    """
    if isinstance(schema, bool):
        return schema
    if not isinstance(instance, _JSON_VALUES):
        raise _Unsupported(type(instance).__name__)
    is_object, is_array = isinstance(instance, dict), isinstance(instance, list)
    for keyword, value in schema.items():
        if keyword in ("$schema", "title", "then"):  # annotations; "then" is judged with "if"
            continue
        if keyword == "type":
            if not isinstance(value, str) or value not in _TYPES:
                raise _Unsupported(f"type {value!r}")
            ok = _TYPES[value](instance)
        elif keyword == "const":
            ok = _json_equal(instance, value)
        elif keyword == "enum":
            ok = any(_json_equal(instance, member) for member in value)
        elif keyword == "required":
            ok = not is_object or all(key in instance for key in value)
        elif keyword == "properties":
            ok = not is_object or all(_conforms(instance[key], sub) for key, sub in value.items() if key in instance)
        elif keyword == "additionalProperties":
            known = schema.get("properties", {})
            ok = not is_object or all(_conforms(instance[key], value) for key in instance if key not in known)
        elif keyword == "prefixItems":
            ok = not is_array or all(map(_conforms, instance, value))
        elif keyword == "items":
            ok = not is_array or all(_conforms(item, value) for item in instance[len(schema.get("prefixItems", ())) :])
        elif keyword == "minItems":
            ok = not is_array or len(instance) >= value
        elif keyword == "minimum":
            ok = not _is_number(instance) or not instance < value
        elif keyword == "maximum":
            ok = not _is_number(instance) or not instance > value
        elif keyword == "allOf":
            ok = all(_conforms(instance, sub) for sub in value)
        elif keyword == "oneOf":
            ok = sum(_conforms(instance, sub) for sub in value) == 1
        elif keyword == "if":
            ok = "then" not in schema or not _conforms(instance, value) or _conforms(instance, schema["then"])
        else:
            raise _Unsupported(keyword)
        if not ok:
            return False
    return True


# Built once: ``jsonschema.validate`` would check the constant schema against
# its metaschema again on every call, which costs far more than the validation.
@lru_cache(maxsize=None)
def _validator() -> jsonschema.Draft202012Validator:
    import jsonschema

    return jsonschema.Draft202012Validator(REPORT_SCHEMA)


def schema_error(report: dict) -> jsonschema.ValidationError | None:
    """The error ``jsonschema.validate`` would raise for the report, or None if it conforms.

    A report that the conformance check accepts is valid. jsonschema is imported
    only to judge, and explain, one that the check refuses or cannot judge.
    """
    try:
        if _conforms(report, REPORT_SCHEMA):
            return None
    except _Unsupported:
        pass
    from jsonschema.exceptions import best_match

    return best_match(_validator().iter_errors(report))


def validate_report(report: dict) -> None:
    """Raise jsonschema.ValidationError if the report violates the published schema,
    with the error ``jsonschema.validate`` would raise; jsonschema is imported only
    for a report that the conformance check refuses."""
    error = schema_error(report)
    if error is not None:
        raise error


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
