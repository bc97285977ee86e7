"""Brute-force verification oracle.

Enumerates the full (state, compound signal, act) outcome space of a small
game and recomputes payoff and information metrics by direct summation with
``math.log2``.  Deliberately independent of the analytic infotheory path:
agreement between the two is a test target, not a design goal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .game import CompoundSignal, GameSpec
from .infotheory import PolicySnapshot

MAX_TUPLES = 10**6


class EnumerationTooLargeError(ValueError):
    pass


@dataclass
class OutcomeEnumeration:
    """Exhaustive outcome list: (state, signal, act, joint probability, reward)."""

    rows: list[tuple[int, CompoundSignal, int, float, float]]


@dataclass
class OracleMetrics:
    expected_payoff: float
    signal_marginal: dict[CompoundSignal, float]
    mutual_info: float
    sender_average_info: float
    receiver_average_info: float


def enumerate_outcomes(spec: GameSpec, snapshot: PolicySnapshot) -> OutcomeEnumeration:
    """Every (state, signal, act) tuple with its exact joint probability."""
    n_signals = 1
    for alphabet in snapshot.sender_alphabets:
        n_signals *= len(alphabet)
    if spec.num_states * n_signals * spec.num_acts > MAX_TUPLES:
        raise EnumerationTooLargeError("outcome space exceeds the enumeration guard")

    utility = spec.utility
    rows = []
    for s in range(spec.num_states):
        p_s = snapshot.state_prior[s]
        for sig in itertools.product(*snapshot.sender_alphabets):
            p_sig = 1.0
            index = []
            for sender, symbol in enumerate(sig):
                idx = snapshot.sender_alphabets[sender].index(symbol)
                index.append(idx)
                p_sig *= float(snapshot.sender_conditionals[sender][s, idx])
            rho = snapshot.receiver_conditionals[tuple(index)]
            for a in range(spec.num_acts):
                rows.append((s, sig, a, float(p_s * p_sig * rho[a]), utility[s][a]))
    return OutcomeEnumeration(rows)


def oracle_expected_payoff(enum: OutcomeEnumeration) -> float:
    return sum(p * r for (_, _, _, p, r) in enum.rows)


def oracle_metrics(enum: OutcomeEnumeration) -> OracleMetrics:
    """Recompute marginals and all information metrics by direct summation."""
    # marginals from the enumeration alone
    q: dict[CompoundSignal, float] = {}
    p_state: dict[int, float] = {}
    joint_state_sig: dict[tuple[int, CompoundSignal], float] = {}
    joint_sig_act: dict[tuple[CompoundSignal, int], float] = {}
    for s, sig, a, p, _ in enum.rows:
        q[sig] = q.get(sig, 0.0) + p
        p_state[s] = p_state.get(s, 0.0) + p
        joint_state_sig[(s, sig)] = joint_state_sig.get((s, sig), 0.0) + p
        joint_sig_act[(sig, a)] = joint_sig_act.get((sig, a), 0.0) + p

    # acts read against the state prior (one optimal act per state)
    act_prior = [p_state.get(i, 0.0) for i in range(max(p_state) + 1)]

    mutual = 0.0
    sender_avg = 0.0
    for (s, sig), p in joint_state_sig.items():
        if p > 0 and q[sig] > 0:
            term = p * math.log2((p / q[sig]) / p_state[s])
            mutual += term
            sender_avg += term  # Q here is the exact marginal, so they agree

    receiver_avg = 0.0
    for (sig, a), p in joint_sig_act.items():
        if p > 0 and q[sig] > 0:
            receiver_avg += p * math.log2((p / q[sig]) / act_prior[a])

    return OracleMetrics(
        expected_payoff=oracle_expected_payoff(enum),
        signal_marginal=q,
        mutual_info=mutual,
        sender_average_info=sender_avg,
        receiver_average_info=receiver_avg,
    )
