import numpy as np
import pytest

from signalgames.engine import snapshot_expected_payoff
from signalgames.game import GameSpec, make_atomic_game, make_two_sender_game
from signalgames.infotheory import (
    PolicySnapshot,
    mutual_info,
    receiver_average_info,
    sender_average_info,
)
from signalgames.oracle import (
    EnumerationTooLargeError,
    enumerate_outcomes,
    oracle_expected_payoff,
    oracle_metrics,
)
from signalgames.reinforcement import make_rng


def random_snapshot(spec, rng):
    conditionals = [
        rng.dirichlet(np.ones(len(alphabet)), size=spec.num_states)
        for alphabet in spec.sender_alphabets
    ]
    # one act distribution per signal, drawn in C order like one call per signal
    sizes = tuple(map(len, spec.sender_alphabets))
    return PolicySnapshot(
        state_prior=spec.prior_array(),
        sender_alphabets=spec.sender_alphabets,
        sender_conditionals=conditionals,
        receiver_conditionals=rng.dirichlet(np.ones(spec.num_acts), size=sizes),
    )


def state_signal_joint(snap):
    """P(state, signal) as a matrix, signals in ``snap.signals()`` order."""
    return snap.joint().reshape(snap.num_states, -1)


@pytest.mark.parametrize("make_game", [make_two_sender_game, lambda: make_atomic_game(2)])
def test_oracle_agreement_random_snapshots(make_game):
    spec = make_game()
    rng = make_rng(29)
    for _ in range(50):
        snap = random_snapshot(spec, rng)
        enum = enumerate_outcomes(spec, snap)
        metrics = oracle_metrics(enum)
        assert abs(metrics.expected_payoff - snapshot_expected_payoff(spec, snap)) < 1e-9
        assert abs(metrics.mutual_info - mutual_info(state_signal_joint(snap))) < 1e-9
        assert abs(metrics.sender_average_info - sender_average_info(snap)) < 1e-9
        assert abs(metrics.receiver_average_info - receiver_average_info(snap)) < 1e-9
        q = snap.signal_marginal()
        for sig, p in metrics.signal_marginal.items():
            assert abs(p - q[sig]) < 1e-9


def test_oracle_probabilities_sum_to_one():
    spec = make_two_sender_game()
    snap = random_snapshot(spec, make_rng(31))
    enum = enumerate_outcomes(spec, snap)
    assert abs(sum(p for (_, _, _, p, _) in enum.rows) - 1.0) < 1e-9
    assert len(enum.rows) == 4 * 4 * 4


def test_oracle_payoff_perfect_system():
    spec = make_two_sender_game()
    # state 2i + j is sent as (mAi, mBj) and read as act 2i + j
    sender_a = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
    sender_b = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float)
    snap = PolicySnapshot(
        state_prior=spec.prior_array(),
        sender_alphabets=spec.sender_alphabets,
        sender_conditionals=[sender_a, sender_b],
        receiver_conditionals=np.eye(4).reshape(2, 2, 4),
    )
    enum = enumerate_outcomes(spec, snap)
    assert abs(oracle_expected_payoff(enum) - 1.0) < 1e-12
    metrics = oracle_metrics(enum)
    assert abs(metrics.mutual_info - 2.0) < 1e-12
    assert abs(metrics.receiver_average_info - 2.0) < 1e-12


def test_enumeration_guard():
    spec = make_atomic_game(101)
    snap = PolicySnapshot(
        state_prior=spec.prior_array(),
        sender_alphabets=spec.sender_alphabets,
        sender_conditionals=[np.full((101, 101), 1.0 / 101)],
        receiver_conditionals=np.full((101, 101), 1.0 / 101),
    )
    with pytest.raises(EnumerationTooLargeError):
        enumerate_outcomes(spec, snap)
