import dataclasses
import math
import pickle

import numpy as np
import pytest

from signalgames.agents import ConventionalReceiver, GeneralistReceiver, MinimalistReceiver, Sender
from signalgames.engine import apply_event, take_snapshot, ReplacementEvent
from signalgames.game import make_atomic_game, make_two_sender_game
from signalgames.infotheory import (
    NEG_INF,
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
from signalgames.reinforcement import make_rng

GAME = make_two_sender_game()
BIG = 1e15  # reinforcement mass that drives urns to numerically exact corners
TOL = 1e-12

# the signaling-system convention used throughout: state index in binary,
# sender A gives the high bit, sender B the low bit, act equals state
SYSTEM_SIGNALS = {
    0: ("mA0", "mB0"),
    1: ("mA0", "mB1"),
    2: ("mA1", "mB0"),
    3: ("mA1", "mB1"),
}


def converged_agents(receiver=None):
    senders = [Sender(GAME, 0), Sender(GAME, 1)]
    receiver = receiver if receiver is not None else ConventionalReceiver(GAME)
    for state, sig in SYSTEM_SIGNALS.items():
        for sender, symbol in zip(senders, sig):
            sender.reinforce(state, symbol, BIG)
        receiver.reinforce(sig, state, BIG)
    return senders, receiver


def assert_rows(table: InfoTable, expected: dict):
    """Each expected row matches within TOL; -inf sentinels must be exact."""
    for label, values in expected.items():
        row = table.cells[table.row_labels.index(label)]
        for got, want in zip(row, values):
            if want == NEG_INF:
                assert got == NEG_INF, f"{label}: expected -inf, got {got}"
            else:
                assert abs(got - want) < TOL, f"{label}: expected {want}, got {got}"


# -- scalar measures --------------------------------------------------------


def test_pointwise_info_values():
    assert abs(pointwise_info(1.0, 0.25) - 2.0) < TOL
    assert pointwise_info(0.25, 0.25) == 0.0
    assert pointwise_info(0.0, 0.25) == NEG_INF
    with pytest.raises(ValueError):
        pointwise_info(0.5, 0.0)


def test_signal_info_is_kl():
    p = [0.5, 0.5, 0.0, 0.0]
    q = [0.25] * 4
    assert abs(signal_info(p, q) - 1.0) < TOL


def test_signal_info_nonnegative_property():
    rng = make_rng(13)
    for _ in range(2000):
        cond = rng.dirichlet(np.ones(4))
        prior = rng.dirichlet(np.ones(4)) + 1e-9
        prior = prior / prior.sum()
        assert signal_info(cond, prior) >= -1e-12


def test_mutual_info_of_product_is_zero():
    joint = np.outer([0.5, 0.5], [0.25, 0.25, 0.5])
    assert abs(mutual_info(joint)) < TOL


# -- snapshots --------------------------------------------------------------


def test_snapshot_marginal_and_posterior():
    senders, receiver = converged_agents()
    snap = take_snapshot(GAME, senders, receiver)
    q = snap.signal_marginal()
    assert abs(sum(q.values()) - 1.0) < 1e-9
    for state, sig in SYSTEM_SIGNALS.items():
        assert abs(q[sig] - 0.25) < 1e-9
        # P(state | signal) from the joint: each system signal names its state
        index = tuple(a.index(m) for a, m in zip(snap.sender_alphabets, sig))
        column = snap.joint()[(slice(None),) + index]
        assert abs(column[state] / column.sum() - 1.0) < 1e-9
    assert abs(snap.state_prior.sum() - 1.0) < 1e-9
    for matrix in snap.sender_conditionals:
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
    assert snap.receiver_conditionals.shape == (2, 2, 4)
    assert np.abs(snap.receiver_conditionals.sum(axis=-1) - 1.0).max() < 1e-9


def test_snapshot_checks_receiver_shape():
    prior = GAME.prior_array()
    senders = [np.full((4, 2), 0.5)] * 2
    rho = np.full((2, 2, 4), 0.25)
    snap = PolicySnapshot(prior, GAME.sender_alphabets, senders, rho)
    assert snap.num_acts == 4
    for bad in (rho[0], rho.reshape(4, 4), np.full((2, 3, 4), 0.25)):
        with pytest.raises(ValueError, match="alphabet sizes"):
            PolicySnapshot(prior, GAME.sender_alphabets, senders, bad)


def test_snapshot_is_read_only():
    senders, receiver = converged_agents()
    snap = take_snapshot(GAME, senders, receiver)
    for copy in (snap, pickle.loads(pickle.dumps(snap))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.receiver_conditionals = np.zeros((2, 2, 4))
        arrays = [copy.state_prior, *copy.sender_conditionals, copy.receiver_conditionals]
        for array in arrays + [copy.joint()]:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        np.testing.assert_array_equal(copy.joint(), snap.joint())


def test_snapshot_sender_of():
    snap = take_snapshot(GAME, [Sender(GAME, 0), Sender(GAME, 1)], ConventionalReceiver(GAME))
    assert snap.sender_of("mA1") == 0
    assert snap.sender_of("mB0") == 1
    with pytest.raises(KeyError):
        snap.sender_of("nope")


# -- converged-policy table fixtures ----------------------------------------


def test_atomic_two_game_tables():
    game = make_atomic_game(2)
    sender = Sender(game, 0)
    receiver = ConventionalReceiver(game)
    for state, symbol in ((0, "m0"), (1, "m1")):
        sender.reinforce(state, symbol, BIG)
        receiver.reinforce((symbol,), state, BIG)
    snap = take_snapshot(game, [sender], receiver)
    assert_rows(
        info_table(snap, rows="atomic", cols="states"),
        {"m0": [1.0, NEG_INF], "m1": [NEG_INF, 1.0]},
    )
    assert_rows(
        info_table(snap, rows="atomic", cols="acts"),
        {"m0": [1.0, NEG_INF], "m1": [NEG_INF, 1.0]},
    )


def test_fresh_policy_tables_are_zero():
    snap = take_snapshot(GAME, [Sender(GAME, 0), Sender(GAME, 1)], ConventionalReceiver(GAME))
    for table in (
        info_table(snap, rows="atomic", cols="states"),
        info_table(snap, rows="compound", cols="acts"),
    ):
        assert np.all(table.cells == 0.0)


def test_converged_atomic_states_table():
    senders, receiver = converged_agents()
    snap = take_snapshot(GAME, senders, receiver)
    assert_rows(
        info_table(snap, rows="atomic", cols="states"),
        {
            "mA0": [1.0, 1.0, NEG_INF, NEG_INF],
            "mA1": [NEG_INF, NEG_INF, 1.0, 1.0],
            "mB0": [1.0, NEG_INF, 1.0, NEG_INF],
            "mB1": [NEG_INF, 1.0, NEG_INF, 1.0],
        },
    )


def test_converged_compound_acts_table():
    senders, receiver = converged_agents()
    snap = take_snapshot(GAME, senders, receiver)
    assert_rows(
        info_table(snap, rows="compound", cols="acts"),
        {
            "mA0 & mB0": [2.0, NEG_INF, NEG_INF, NEG_INF],
            "mA0 & mB1": [NEG_INF, 2.0, NEG_INF, NEG_INF],
            "mA1 & mB0": [NEG_INF, NEG_INF, 2.0, NEG_INF],
            "mA1 & mB1": [NEG_INF, NEG_INF, NEG_INF, 2.0],
        },
    )
    assert abs(receiver_average_info(snap) - 2.0) < TOL


def test_post_replacement_tables_conventional():
    senders, receiver = converged_agents()
    apply_event(ReplacementEvent(0, 1, "mB0", "mB?"), senders, receiver)
    snap = take_snapshot(GAME, senders, receiver)
    # sender side: identical up to the relabelling
    assert_rows(
        info_table(snap, rows="atomic", cols="states"),
        {
            "mA0": [1.0, 1.0, NEG_INF, NEG_INF],
            "mA1": [NEG_INF, NEG_INF, 1.0, 1.0],
            "mB?": [1.0, NEG_INF, 1.0, NEG_INF],
            "mB1": [NEG_INF, 1.0, NEG_INF, 1.0],
        },
    )
    # receiver side: every signal containing the fresh symbol is a row of 0
    assert_rows(
        info_table(snap, rows="compound", cols="acts"),
        {
            "mA0 & mB?": [0.0, 0.0, 0.0, 0.0],
            "mA0 & mB1": [NEG_INF, 2.0, NEG_INF, NEG_INF],
            "mA1 & mB?": [0.0, 0.0, 0.0, 0.0],
            "mA1 & mB1": [NEG_INF, NEG_INF, NEG_INF, 2.0],
        },
    )
    # one full bit is lost on average
    assert abs(receiver_average_info(snap) - 1.0) < TOL


def test_compositional_expectation_table():
    senders, receiver = converged_agents()
    pre = take_snapshot(GAME, senders, receiver)
    assert_rows(
        compositional_expectation(pre, "mB0", "mB?"),
        {
            "mA0 & mB?": [1.0, 1.0, NEG_INF, NEG_INF],
            "mA0 & mB1": [NEG_INF, 2.0, NEG_INF, NEG_INF],
            "mA1 & mB?": [NEG_INF, NEG_INF, 1.0, 1.0],
            "mA1 & mB1": [NEG_INF, NEG_INF, NEG_INF, 2.0],
        },
    )
    # a compositional interpreter would lose only half a bit
    assert abs(compositional_expected_average(pre, "mB0", "mB?") - 1.5) < TOL


def minimalist_system_receiver():
    recv = MinimalistReceiver(GAME, temperature=2000.0)
    for state, sig in SYSTEM_SIGNALS.items():
        recv.reinforce(sig, state, BIG)
    return recv


def minimalist_atomic_acts_row(recv, symbol, slot):
    signal = tuple(symbol if i == slot else None for i in range(2))
    dist = recv.naive_distribution(signal)
    return [pointwise_info(p, 0.25) for p in dist]


def test_minimalist_acts_tables():
    recv = minimalist_system_receiver()
    rows = {
        "mA0": minimalist_atomic_acts_row(recv, "mA0", 0),
        "mA1": minimalist_atomic_acts_row(recv, "mA1", 0),
        "mB0": minimalist_atomic_acts_row(recv, "mB0", 1),
        "mB1": minimalist_atomic_acts_row(recv, "mB1", 1),
    }
    expected = {
        "mA0": [1.0, 1.0, NEG_INF, NEG_INF],
        "mA1": [NEG_INF, NEG_INF, 1.0, 1.0],
        "mB0": [1.0, NEG_INF, 1.0, NEG_INF],
        "mB1": [NEG_INF, 1.0, NEG_INF, 1.0],
    }
    for label, values in expected.items():
        for got, want in zip(rows[label], values):
            if want == NEG_INF:
                assert got == NEG_INF
            else:
                assert abs(got - want) < TOL


def test_minimalist_acts_table_after_replacement():
    recv = minimalist_system_receiver()
    recv.on_replacement("mB0", "mB?")
    # only the replaced message's own information is lost; the fresh urn is
    # uninformative and every other row is untouched
    fresh = minimalist_atomic_acts_row(recv, "mB?", 1)
    assert fresh == [0.0, 0.0, 0.0, 0.0]
    kept = minimalist_atomic_acts_row(recv, "mA0", 0)
    assert abs(kept[0] - 1.0) < TOL and abs(kept[1] - 1.0) < TOL
    assert kept[2] == NEG_INF and kept[3] == NEG_INF
    b1 = minimalist_atomic_acts_row(recv, "mB1", 1)
    assert b1[0] == NEG_INF and abs(b1[1] - 1.0) < TOL


def test_generalist_erasing_table():
    senders, receiver = converged_agents(
        GeneralistReceiver(GAME, introduction_mode="erasing")
    )
    apply_event(ReplacementEvent(0, 1, "mB0", "mB?"), senders, receiver)
    snap = take_snapshot(GAME, senders, receiver)
    assert_rows(
        info_table(snap, rows="compound", cols="acts"),
        {
            "mA0 & mB?": [0.0, 0.0, 0.0, 0.0],
            "mA0 & mB1": [NEG_INF, 2.0, NEG_INF, NEG_INF],
            "mA1 & mB?": [0.0, 0.0, 0.0, 0.0],
            "mA1 & mB1": [NEG_INF, NEG_INF, NEG_INF, 2.0],
        },
    )


def test_generalist_preserving_table():
    senders, receiver = converged_agents(
        GeneralistReceiver(GAME, introduction_mode="preserving", alpha=1.0)
    )
    apply_event(ReplacementEvent(0, 1, "mB0", "mB?"), senders, receiver)
    snap = take_snapshot(GAME, senders, receiver)
    assert_rows(
        info_table(snap, rows="compound", cols="acts"),
        {
            "mA0 & mB?": [1.0, 1.0, NEG_INF, NEG_INF],
            "mA0 & mB1": [NEG_INF, 2.0, NEG_INF, NEG_INF],
            "mA1 & mB?": [NEG_INF, NEG_INF, 1.0, 1.0],
            "mA1 & mB1": [NEG_INF, NEG_INF, NEG_INF, 2.0],
        },
    )


# -- misc -------------------------------------------------------------------


def test_sender_average_info_converged():
    senders, receiver = converged_agents()
    snap = take_snapshot(GAME, senders, receiver)
    assert abs(sender_average_info(snap) - 2.0) < 1e-9


def test_info_table_rejects_bad_cols():
    senders, receiver = converged_agents()
    snap = take_snapshot(GAME, senders, receiver)
    with pytest.raises(ValueError):
        info_table(snap, cols="rewards")


def test_info_table_csv_sentinel():
    table = InfoTable(["r"], ["c0", "c1"], np.array([[1.0, NEG_INF]]))
    csv = table.to_csv()
    assert "-inf" in csv
    assert csv.splitlines()[0] == ",c0,c1"
