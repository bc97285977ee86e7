"""Urn-learning signaling games with compositional receivers and exact
information metrics."""

from .game import (
    GameSpec,
    InvalidSpecError,
    make_atomic_game,
    make_two_sender_game,
    validate,
)
from .agents import (
    ConventionalReceiver,
    GeneralistReceiver,
    MinimalistReceiver,
    Sender,
    make_receiver,
    tempered_softmax,
)
from .engine import (
    ReplacementEvent,
    Trajectory,
    TrajectoryConfig,
    run,
    run_batch,
)
from .infotheory import (
    InfoTable,
    PolicySnapshot,
    compositional_expectation,
    compositional_expected_average,
    info_table,
    mutual_info,
    pointwise_info,
    receiver_average_info,
    sender_average_info,
    signal_info,
)
from .reinforcement import ReinforcementTable, make_rng

__version__ = "0.1.0"

__all__ = [
    "GameSpec",
    "InvalidSpecError",
    "make_atomic_game",
    "make_two_sender_game",
    "validate",
    "Sender",
    "ConventionalReceiver",
    "MinimalistReceiver",
    "GeneralistReceiver",
    "make_receiver",
    "tempered_softmax",
    "ReplacementEvent",
    "TrajectoryConfig",
    "Trajectory",
    "run",
    "run_batch",
    "PolicySnapshot",
    "InfoTable",
    "pointwise_info",
    "signal_info",
    "mutual_info",
    "info_table",
    "sender_average_info",
    "receiver_average_info",
    "compositional_expectation",
    "compositional_expected_average",
    "ReinforcementTable",
    "make_rng",
]
