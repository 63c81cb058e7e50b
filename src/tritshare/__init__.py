"""Simulator and security-analysis toolkit for GHZ-channel qutrit state sharing."""

import importlib

from .attacks import (
    AttackStats,
    InsideAttack,
    InsideTrialOutcome,
    LiveSession,
    OutsideAttack,
    inside_capture_and_fake,
    outside_intercept_resend,
    run_check_rounds,
    run_inside_attack_experiment,
    run_inside_trial,
    run_outside_attack_experiment,
    start_session,
)
from .core import (
    DensityMatrix,
    MeasurementFamily,
    MeasurementRecord,
    PureState,
    Unitary3,
    apply_single,
    basis_index,
    basis_state,
    born_distribution,
    fidelity,
    haar_random_state,
    make_state,
    measure_subsystem,
    project_subsystem,
    reduced_density,
    sample_index,
    tensor,
)
from .operators import (
    OMEGA,
    BellOutcome,
    HelperSum,
    XiOutcome,
    bell_family,
    bell_state,
    computational_family,
    ghz_state,
    pauli_x,
    pauli_z,
    recovery_operator,
    xi_family,
    xi_state,
)
from .protocol import (
    Announcement,
    ChannelVerdict,
    CheckRecord,
    SessionConfig,
    Transcript,
    channel_check_round,
    reconstruct,
    run_sharing_session,
    verify_correlations,
)

__version__ = "0.4.11"


def __getattr__(name: str):
    """Load the command line and its reports on first use, so that a library import skips them.
    ``cli`` and ``reporting`` stay reachable as attributes of the package."""
    if name in ("parse_secret", "run_command"):
        return getattr(importlib.import_module(".cli", __name__), name)
    if name in ("cli", "reporting"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Announcement",
    "AttackStats",
    "BellOutcome",
    "ChannelVerdict",
    "CheckRecord",
    "DensityMatrix",
    "HelperSum",
    "InsideAttack",
    "InsideTrialOutcome",
    "LiveSession",
    "MeasurementFamily",
    "MeasurementRecord",
    "OMEGA",
    "OutsideAttack",
    "PureState",
    "SessionConfig",
    "Transcript",
    "Unitary3",
    "XiOutcome",
    "apply_single",
    "basis_index",
    "basis_state",
    "bell_family",
    "bell_state",
    "born_distribution",
    "channel_check_round",
    "computational_family",
    "fidelity",
    "ghz_state",
    "haar_random_state",
    "inside_capture_and_fake",
    "make_state",
    "measure_subsystem",
    "outside_intercept_resend",
    "parse_secret",
    "pauli_x",
    "pauli_z",
    "project_subsystem",
    "reconstruct",
    "recovery_operator",
    "reduced_density",
    "run_check_rounds",
    "run_command",
    "run_inside_attack_experiment",
    "run_inside_trial",
    "run_outside_attack_experiment",
    "run_sharing_session",
    "sample_index",
    "start_session",
    "tensor",
    "verify_correlations",
    "xi_family",
    "xi_state",
]
