"""Machine-readable run reports: canonical JSON layout, schema, encoders.

JSON is the canonical format; complex amplitudes serialize as
``[re, im]`` pairs so reports round-trip losslessly. CSV flattens attack
statistics to one row per experiment.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from functools import lru_cache
from typing import Any, Sequence

import jsonschema
import numpy as np

from .attacks import AttackStats
from .core import PureState
from .operators import BellOutcome, XiOutcome
from .protocol import ChannelVerdict, Transcript

SCHEMA_VERSION = 1

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
_ATTACK_STATS = {
    "type": "object",
    "required": ["trials", "attacker_successes", "detections", "success_rate", "detection_rate", "seed"],
    "additionalProperties": False,
    "properties": {
        "trials": {"type": "integer", "minimum": 1},
        "attacker_successes": {"type": "integer", "minimum": 0},
        "detections": {"type": "integer", "minimum": 0},
        "success_rate": {"type": "number", "minimum": 0, "maximum": 1},
        "detection_rate": {"type": "number", "minimum": 0, "maximum": 1},
        "seed": {"type": "integer", "minimum": 0},
    },
}
_VERDICT = {
    "type": "object",
    "required": [
        "disturbed",
        "total_rounds",
        "rounds_computational",
        "failures_computational",
        "failure_rate_computational",
        "rounds_fourier",
        "failures_fourier",
        "failure_rate_fourier",
    ],
    "additionalProperties": False,
    "properties": {
        "disturbed": {"type": "boolean"},
        "total_rounds": {"type": "integer", "minimum": 1},
        "rounds_computational": {"type": "integer", "minimum": 0},
        "failures_computational": {"type": "integer", "minimum": 0},
        "failure_rate_computational": {"type": "number", "minimum": 0, "maximum": 1},
        "rounds_fourier": {"type": "integer", "minimum": 0},
        "failures_fourier": {"type": "integer", "minimum": 0},
        "failure_rate_fourier": {"type": "number", "minimum": 0, "maximum": 1},
    },
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "tritshare run report",
    "type": "object",
    "required": ["schema_version", "command", "config", "results", "warnings", "wall_time_ms"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"enum": ["share", "check-channel", "attack"]},
        "config": {"type": "object"},
        "results": {"type": "object"},
        "warnings": {"type": "array", "items": {"type": "string"}},
        "wall_time_ms": {"type": "integer", "minimum": 0},
    },
    "allOf": [
        {
            "if": {"properties": {"command": {"const": "share"}}},
            "then": {
                "properties": {
                    "results": {
                        "type": "object",
                        "required": ["transcript"],
                        "additionalProperties": False,
                        "properties": {"transcript": _TRANSCRIPT},
                    }
                }
            },
        },
        {
            "if": {"properties": {"command": {"const": "check-channel"}}},
            "then": {
                "properties": {
                    "results": {
                        "type": "object",
                        "required": ["verdict"],
                        "additionalProperties": False,
                        "properties": {"verdict": _VERDICT},
                    }
                }
            },
        },
        {
            "if": {"properties": {"command": {"const": "attack"}}},
            "then": {
                "properties": {
                    "results": {
                        "type": "object",
                        "required": ["stats"],
                        "additionalProperties": False,
                        "properties": {"stats": _ATTACK_STATS},
                    }
                }
            },
        },
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
    if isinstance(payload, BellOutcome):
        return {"n": payload.n, "m": payload.m}
    if isinstance(payload, XiOutcome):
        return {"l": payload.l}
    return int(payload)


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


def encode_attack_stats(stats: AttackStats) -> dict:
    return dataclasses.asdict(stats)


def encode_verdict(verdict: ChannelVerdict) -> dict:
    return dataclasses.asdict(verdict)


def build_report(
    command: str, config: dict, results: dict, wall_time_ms: int, warnings: list[str]
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "results": results,
        "warnings": list(warnings),
        "wall_time_ms": int(wall_time_ms),
    }


# Built once: ``jsonschema.validate`` would check the constant schema against
# its metaschema again on every call, which costs far more than the validation.
@lru_cache(maxsize=None)
def _validator() -> jsonschema.Draft202012Validator:
    return jsonschema.Draft202012Validator(REPORT_SCHEMA)


def validate_report(report: dict) -> None:
    """Raise jsonschema.ValidationError if the report violates the published schema,
    with the error ``jsonschema.validate`` would raise."""
    error = jsonschema.exceptions.best_match(_validator().iter_errors(report))
    if error is not None:
        raise error


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def render_csv(report: dict) -> str:
    """One flat row per attack experiment; only attack reports have a CSV form."""
    stats = report["results"]["stats"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    columns = ["command", "model", "trials", "attacker_successes", "detections", "success_rate", "detection_rate", "seed"]
    writer.writerow(columns)
    writer.writerow(
        [
            report["command"],
            report["config"].get("model", ""),
            stats["trials"],
            stats["attacker_successes"],
            stats["detections"],
            repr(stats["success_rate"]),
            repr(stats["detection_rate"]),
            stats["seed"],
        ]
    )
    return buf.getvalue()
