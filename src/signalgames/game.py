"""Game definitions: states, message alphabets, acts, priors, utilities.

A game is described by an immutable :class:`GameSpec`.  Compound signals are
plain tuples of atomic symbols, one slot per sender; ``None`` marks an absent
slot in a partial signal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .reinforcement import DegenerateContextError

PRIOR_TOL = 1e-12

# One slot per sender; None marks an absent slot.
CompoundSignal = tuple  # tuple[Optional[str], ...]


class InvalidSpecError(ValueError):
    """A game specification violates a structural invariant."""


@dataclass(frozen=True)
class GameSpec:
    """The tuple defining a signaling game.

    ``sender_alphabets`` holds one alphabet of atomic message symbols per
    sender; symbols are opaque strings, globally unique across senders so
    that replacement events can mint fresh names without collisions.
    ``utility`` is a dense (state, act) reward matrix.
    """

    num_states: int
    sender_alphabets: tuple[tuple[str, ...], ...]
    num_acts: int
    state_prior: tuple[float, ...]
    utility: tuple[tuple[float, ...], ...]

    @property
    def num_senders(self) -> int:
        return len(self.sender_alphabets)

    @cached_property
    def prior_cuts(self) -> tuple[tuple[float, ...], float]:
        """The prior's running left-fold totals but the last, and the last,
        its total, for drawing a state by ``sample_weights``' rule:
        ``bisect_right(cuts, draw * total)`` is the index of the first running
        total above the draw, or the last index, which absorbs rounding.
        ``DegenerateContextError`` unless the total is finite and positive."""
        *cuts, total = itertools.accumulate(self.state_prior, initial=0.0)
        if not 0.0 < total < math.inf:
            raise DegenerateContextError(f"cannot sample from weights totalling {total!r}")
        return tuple(cuts[1:]), total

    def prior_array(self) -> np.ndarray:
        return np.asarray(self.state_prior, dtype=float)

    def utility_array(self) -> np.ndarray:
        return np.asarray(self.utility, dtype=float)

    def all_symbols(self) -> list[str]:
        return [m for alphabet in self.sender_alphabets for m in alphabet]

    def to_json_dict(self) -> dict:
        return {
            "num_states": self.num_states,
            "sender_alphabets": [list(a) for a in self.sender_alphabets],
            "num_acts": self.num_acts,
            "state_prior": list(self.state_prior),
            "utility": [list(row) for row in self.utility],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GameSpec":
        """The spec ``data`` describes; ``InvalidSpecError`` unless it is valid."""
        spec = cls(
            num_states=_size(data, "num_states"),
            sender_alphabets=_tuples(data["sender_alphabets"], 2, _symbol, "sender_alphabets"),
            num_acts=_size(data, "num_acts"),
            state_prior=_tuples(data["state_prior"], 1, _number, "state_prior"),
            utility=_tuples(data["utility"], 2, _number, "utility"),
        )
        return _check(spec)


def _size(data: dict, name: str) -> int:
    """``data[name]``, which must be an integer; JSON's ``true`` is not one."""
    value = data[name]
    if type(value) is not int:
        raise InvalidSpecError(f"{name} must be an integer, not {value!r}")
    return value


def _symbol(value, name: str) -> str:
    if type(value) is not str:
        raise InvalidSpecError(f"{name} must be a string, not {value!r}")
    return value


def _number(value, name: str) -> float:
    if type(value) not in (int, float):  # JSON's ``true`` is no number
        raise InvalidSpecError(f"{name} must be a number, not {value!r}")
    return float(value)


def _tuples(value, depth: int, leaf, name: str) -> tuple:
    """JSON lists ``depth`` deep as tuples of ``leaf(item, path)``; a string is not a list."""
    if not isinstance(value, list):
        raise InvalidSpecError(f"{name} must be a list, not {value!r}")
    inner = leaf if depth == 1 else lambda v, path: _tuples(v, depth - 1, leaf, path)
    return tuple(inner(v, f"{name}[{i}]") for i, v in enumerate(value))


def validate(spec: GameSpec) -> list[str]:
    """Check structural invariants; returns a list of violations (empty = ok)."""
    problems: list[str] = []
    prior = spec.prior_array()
    if prior.shape != (spec.num_states,):
        problems.append(
            f"state_prior has length {prior.shape[0]}, expected {spec.num_states}"
        )
    if not (np.isfinite(prior).all() and (prior > 0).all()):
        problems.append("state_prior entries must be finite and positive")
    if abs(float(prior.sum()) - 1.0) > PRIOR_TOL:
        problems.append(f"state_prior sums to {float(prior.sum())!r}, not 1")
    if not spec.sender_alphabets:
        problems.append("sender_alphabets is empty: the game has no sender")
    for i, alphabet in enumerate(spec.sender_alphabets):
        if not alphabet:
            problems.append(f"sender {i} has an empty alphabet")
    symbols = spec.all_symbols()
    if len(symbols) != len(set(symbols)):
        problems.append("duplicate message symbols across senders")
    if spec.num_acts != spec.num_states:
        problems.append(f"num_acts is {spec.num_acts}, not num_states {spec.num_states}")
    utility = spec.utility_array()
    if utility.shape != (spec.num_states, spec.num_acts):
        problems.append(
            f"utility has shape {utility.shape}, expected "
            f"{(spec.num_states, spec.num_acts)}"
        )
    if not (np.isfinite(utility).all() and (utility >= 0).all()):
        problems.append("utility entries must be finite and non-negative")
    return problems


def _check(spec: GameSpec) -> GameSpec:
    problems = validate(spec)
    if problems:
        raise InvalidSpecError("; ".join(problems))
    return spec


def _identity_game(sender_alphabets: tuple[tuple[str, ...], ...]) -> GameSpec:
    """One equiprobable state per compound signal, as many acts, reward 1 for the matching act."""
    n = math.prod(map(len, sender_alphabets))
    return _check(
        GameSpec(
            num_states=n,
            sender_alphabets=sender_alphabets,
            num_acts=n,
            state_prior=tuple(1.0 / n for _ in range(n)),
            utility=tuple(
                tuple(1.0 if i == j else 0.0 for j in range(n)) for i in range(n)
            ),
        )
    )


def make_atomic_game(n: int) -> GameSpec:
    """The atomic n-game: one sender, n states/messages/acts, identity reward."""
    if n < 2:
        raise InvalidSpecError("atomic game needs at least 2 states")
    return _identity_game((tuple(f"m{i}" for i in range(n)),))


def make_two_sender_game() -> GameSpec:
    """The 4x4x4 two-sender game: two binary senders, four states and acts."""
    return _identity_game((("mA0", "mA1"), ("mB0", "mB1")))


def signal_label(signal: CompoundSignal) -> str:
    """Human-readable label for table rows, e.g. ``mA0 & mB1``."""
    return " & ".join("?" if m is None else str(m) for m in signal)
