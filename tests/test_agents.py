import math

import numpy as np
import pytest

from signalgames.agents import (
    RECEIVERS,
    ConventionalReceiver,
    GeneralistReceiver,
    MinimalistReceiver,
    Sender,
    make_receiver,
    receiver_from_json_dict,
    tempered_softmax,
)
from signalgames.game import make_two_sender_game
from signalgames.reinforcement import SymbolCollisionError, make_rng

GAME = make_two_sender_game()


# -- tempered softmax -------------------------------------------------------


def test_softmax_shift_invariance():
    rng = make_rng(21)
    for _ in range(200):
        scores = list(rng.normal(size=6) * 10)
        shift = float(rng.normal() * 100)
        t = float(rng.random() * 10 + 0.1)
        base = tempered_softmax(scores, t)
        shifted = tempered_softmax([s + shift for s in scores], t)
        assert max(abs(a - b) for a, b in zip(base, shifted)) < 1e-12


def test_softmax_limits():
    # high temperature flattens, low temperature sharpens
    scores = [10.0, 0.0, 0.0, 0.0]
    flat = tempered_softmax(scores, 1e6)
    sharp = tempered_softmax(scores, 0.1)
    assert all(abs(p - 0.25) < 1e-4 for p in flat)
    assert sharp[0] > 0.999


def test_softmax_example_value():
    # scores c*(2, 1, 1, 0) with c = T*ln(4): exp factors are 16, 4, 4, 1
    t = 2000.0
    c = t * math.log(4.0)
    dist = tempered_softmax([2 * c, c, c, 0.0], t)
    expected = [16 / 25, 4 / 25, 4 / 25, 1 / 25]
    assert max(abs(a - b) for a, b in zip(dist, expected)) < 1e-12


def test_softmax_and_naive_totals_fold_left_to_right():
    # A compensated sum (``sum`` from Python 3.12 on) keeps the two tiny terms
    # and totals 1 + 2**-52; a left fold absorbs each into 1.0.
    assert tempered_softmax([0.0, -36.84, -36.84], 1.0)[0] == 1.0
    receiver = MinimalistReceiver(GAME, temperature=1.0)
    receiver.table.entries["mA0"] = [1e16, 1.0, 1.0, 0.0]
    assert receiver.naive_distribution(("mA0", None))[0] == 1.0


def test_softmax_rejects_bad_input():
    with pytest.raises(ValueError):
        tempered_softmax([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        tempered_softmax([1.0, float("inf")], 1.0)


# -- sender -----------------------------------------------------------------


def conditional_matrix(sender):
    """Row per state: probability of each symbol, in alphabet order."""
    return np.array([sender.table.distribution(s) for s in range(sender.num_states)])


def test_sender_matching_law():
    sender = Sender(GAME, 0)
    sender.reinforce(0, "mA0", 3.0)
    assert sender.table.distribution(0) == [0.8, 0.2]  # (1+3)/5, 1/5
    assert sender.table.distribution(1) == [0.5, 0.5]  # untouched state stays uniform


def test_sender_replace_message_exact():
    sender = Sender(GAME, 1)
    sender.reinforce(2, "mB0", 7.0)
    before = conditional_matrix(sender)
    sender.replace_message("mB0", "mB?")
    assert sender.alphabet == ["mB?", "mB1"]
    # weights (and hence the conditional matrix) carry over exactly
    assert np.array_equal(conditional_matrix(sender), before)
    with pytest.raises(KeyError):
        sender.replace_message("mB0", "mBx")
    with pytest.raises(SymbolCollisionError):
        sender.replace_message("mB?", "mB1")
    with pytest.raises(SymbolCollisionError):
        sender.replace_message("mB1", "mB1")


def test_sender_json_round_trip():
    sender = Sender(GAME, 0)
    sender.reinforce(3, "mA1", 2.5)
    sender.replace_message("mA0", "mA?")
    data = sender.to_json_dict()
    assert "alphabet" not in data  # the table's options are the alphabet
    copy = Sender.from_json_dict(GAME, data)
    assert copy.alphabet == sender.alphabet == ["mA?", "mA1"]
    assert np.array_equal(conditional_matrix(copy), conditional_matrix(sender))


# -- conventional receiver --------------------------------------------------


def test_conventional_lazy_uniform_and_reinforce():
    recv = ConventionalReceiver(GAME)
    sig = ("mA0", "mB0")
    assert recv.act_distribution(sig) == [0.25] * 4
    recv.reinforce(sig, 2, 1.0)
    assert recv.act_distribution(sig) == [0.2, 0.2, 0.4, 0.2]
    # unrewarded rounds leave the urn unchanged
    recv.reinforce(sig, 0, 0.0)
    assert recv.act_distribution(sig) == [0.2, 0.2, 0.4, 0.2]


def test_conventional_replacement_keeps_urns():
    recv = ConventionalReceiver(GAME)
    recv.reinforce(("mA0", "mB1"), 1, 5.0)
    recv.on_replacement("mB0", "mB?")
    # old urn untouched, fresh-symbol urn materializes uniform
    assert recv.act_distribution(("mA0", "mB1"))[1] == 6 / 9
    assert recv.act_distribution(("mA0", "mB?")) == [0.25] * 4


# -- minimalist receiver ----------------------------------------------------


def test_minimalist_scores_are_summed_urns():
    recv = MinimalistReceiver(GAME, temperature=2000.0)
    recv.reinforce(("mA0", "mB0"), 0, 1.0)  # one ball in each atomic urn
    # each urn starts at weight 1 per act, so two urns sum to 2 + the ball
    assert recv.naive_scores(("mA0", "mB0")) == [4.0, 2.0, 2.0, 2.0]
    # partial signals read a single urn
    assert recv.naive_scores(("mA0", None)) == [2.0, 1.0, 1.0, 1.0]
    assert recv.naive_distribution(("mA0", None)) == [0.4, 0.2, 0.2, 0.2]


def test_minimalist_naive_long_run_distribution():
    # converged urns: mA0 holds acts {a0, a1}, mB0 holds {a0, a2}; the naive
    # rule then picks the right act only half the time
    recv = MinimalistReceiver(GAME, temperature=2000.0, initial_weight=0.0)
    n = 1000.0
    for act in (0, 1):
        recv.table.reinforce("mA0", act, n)
    for act in (0, 2):
        recv.table.reinforce("mB0", act, n)
    dist = recv.naive_distribution(("mA0", "mB0"))
    expected = [0.5, 0.25, 0.25, 0.0]
    assert max(abs(a - b) for a, b in zip(dist, expected)) < 1e-12


def test_minimalist_act_distribution_softmax_on_raw_counts():
    recv = MinimalistReceiver(GAME, temperature=2000.0, initial_weight=0.0)
    c = 2000.0 * math.log(4.0)
    recv.table.reinforce("mA0", 0, c)
    recv.table.reinforce("mA0", 1, c)
    recv.table.reinforce("mB0", 0, c)
    recv.table.reinforce("mB0", 2, c)
    dist = recv.act_distribution(("mA0", "mB0"))
    expected = [16 / 25, 4 / 25, 4 / 25, 1 / 25]
    assert max(abs(a - b) for a, b in zip(dist, expected)) < 1e-12


def test_minimalist_json_round_trip():
    recv = MinimalistReceiver(GAME, temperature=5.0)
    recv.reinforce(("mA1", "mB1"), 3, 1.0)
    copy = receiver_from_json_dict(GAME, recv.to_json_dict())
    assert copy.temperature == 5.0
    assert copy.act_distribution(("mA1", "mB1")) == recv.act_distribution(("mA1", "mB1"))


# -- generalist receiver ----------------------------------------------------


@pytest.mark.parametrize(
    "receiver, full, partial",
    [
        (
            ConventionalReceiver(GAME),
            (("mA0", "mB1"), (("mA0", "mB1"),)),
            (("mA0", None), (("mA0", None),)),
        ),
        (
            MinimalistReceiver(GAME, temperature=2000.0),
            (("mA0", "mB1"), ("mA0", "mB1")),
            (("mA0",), ("mA0",)),
        ),
        (
            GeneralistReceiver(GAME, "preserving"),
            (
                frozenset({"mA0", "mB1"}),
                (frozenset({"mA0"}), frozenset({"mB1"}), frozenset({"mA0", "mB1"})),
            ),
            (frozenset({"mA0"}), (frozenset({"mA0"}),)),
        ),
    ],
    ids=["conventional", "minimalist", "generalist"],
)
def test_urns_map_each_signal_to_its_read_and_writes(receiver, full, partial):
    # (the urn the act is drawn from, the urns a reward adds an act ball to)
    assert receiver.urns[("mA0", "mB1")] == full
    assert receiver.urns[("mA0", None)] == partial
    assert receiver.context(("mA0", None)) == partial[0]
    assert receiver.table.entries == {}  # the map stores no urn


def test_generalist_reinforce_bookkeeping():
    recv = GeneralistReceiver(GAME)
    sig = ("mA0", "mB0")
    recv.reinforce(sig, 0, 1.0)
    # every sub-combination of the signal is reinforced
    assert recv.table.weights(frozenset({"mA0"}))[0] == 2.0  # initial 1 + 1
    assert recv.table.weights(frozenset({"mB0"}))[0] == 2.0
    assert recv.table.weights(frozenset({"mA0", "mB0"}))[0] == 2.0
    # selection conditions on the full combination
    assert recv.act_distribution(sig) == [0.4, 0.2, 0.2, 0.2]


def test_generalist_partial_and_empty_signals():
    recv = GeneralistReceiver(GAME)
    recv.reinforce(("mA0", None), 1, 2.0)
    assert set(recv.table.entries) == {frozenset({"mA0"})}
    assert recv.act_distribution(("mA0", None)) == [1 / 6, 3 / 6, 1 / 6, 1 / 6]
    # a signal with no present slot reads and stores the empty combination
    recv.reinforce((None, None), 0, 1.0)
    assert set(recv.table.entries) == {frozenset({"mA0"})}
    recv.choose((None, None), make_rng(0))
    assert recv.table.entries[frozenset()] == [1.0] * 4
    # what the receiver derives from signals is not part of its policy
    assert set(recv.to_json_dict()) == {
        "kind", "introduction_mode", "alpha", "symbol_sender", "table"
    }


def test_generalist_erasing_introduction():
    recv = GeneralistReceiver(GAME, introduction_mode="erasing")
    recv.reinforce(("mA0", "mB0"), 0, 1.0)
    recv.on_replacement("mB0", "mB?")
    # all combinations with the fresh symbol start uninformative
    assert recv.act_distribution(("mA0", "mB?")) == [0.25] * 4
    # ... because they are unseen: erasing stores no urn
    assert not any("mB?" in combo for combo in recv.table.entries)
    # existing urns are untouched
    assert recv.act_distribution(("mA0", "mB0"))[0] == 0.4


def test_generalist_preserving_introduction_exact():
    recv = GeneralistReceiver(GAME, introduction_mode="preserving", alpha=1.0)
    for _ in range(10):
        recv.reinforce(("mA0", "mB0"), 0, 1.0)
    pre_single = recv.table.weights(frozenset({"mA0"})).copy()
    recv.on_replacement("mB0", "mB?")
    # the extended urn is an exact alpha-copy of the single-message urn
    assert recv.table.weights(frozenset({"mA0", "mB?"})) == pre_single
    assert recv.act_distribution(("mA0", "mB?")) == recv.table.distribution(
        frozenset({"mA0"})
    )


def test_generalist_preserving_alpha_scales_copied_mass():
    r1 = GeneralistReceiver(GAME, introduction_mode="preserving", alpha=0.5)
    for _ in range(4):
        r1.reinforce(("mA1", "mB1"), 3, 1.0)
    half = [0.5 * w for w in r1.table.weights(frozenset({"mA1"}))]
    r1.on_replacement("mB1", "mB?")
    assert r1.table.weights(frozenset({"mA1", "mB?"})) == half


def test_generalist_collision_rejected():
    recv = GeneralistReceiver(GAME)
    with pytest.raises(SymbolCollisionError):
        recv.on_replacement("mB0", "mB1")


def test_generalist_json_round_trip():
    recv = GeneralistReceiver(GAME, introduction_mode="preserving", alpha=2.0)
    recv.reinforce(("mA0", "mB1"), 1, 1.0)
    data = recv.to_json_dict()
    assert "act_counts" not in data and "num_senders" not in data
    assert "combo_counts" not in data
    copy = receiver_from_json_dict(GAME, data)
    assert copy.alpha == 2.0
    assert copy.introduction_mode == "preserving"
    assert copy.symbol_sender == recv.symbol_sender
    assert copy.act_distribution(("mA0", "mB1")) == recv.act_distribution(("mA0", "mB1"))
    # files that still hold the former arrival tally load; it is ignored
    old = receiver_from_json_dict(GAME, dict(data, combo_counts=[[{"set": ["mA0"]}, 2.0]]))
    assert not hasattr(old, "combo_counts")
    assert old.table.entries == recv.table.entries


def test_generalist_preserving_extends_unrewarded_arrivals():
    # a signal that arrived but was never rewarded still gets its extension
    recv = GeneralistReceiver(GAME, introduction_mode="preserving", alpha=0.5)
    recv.choose(("mA0", "mB0"), make_rng(0))
    recv.on_replacement("mB0", "mB?")
    assert recv.table.weights(frozenset({"mA0", "mB?"})) == [0.5] * 4
    assert recv.table.weights(frozenset({"mB?"})) == [1.0] * 4  # 0.5 x (mB0 + mB1)
    # mA1 never arrived, so nothing extends it
    assert frozenset({"mA1", "mB?"}) not in recv.table.entries


# -- factory ----------------------------------------------------------------


def test_make_receiver_kinds():
    assert make_receiver(GAME, "conventional").kind == "conventional"
    assert make_receiver(GAME, "minimalist", temperature=7.0).temperature == 7.0
    general = make_receiver(GAME, "generalist", introduction_mode="preserving")
    assert general.introduction_mode == "preserving"
    # settings of other kinds are ignored
    assert make_receiver(GAME, "conventional", temperature=7.0, alpha=2.0).kind == "conventional"
    with pytest.raises(ValueError):
        make_receiver(GAME, "transformer")
    assert sorted(RECEIVERS) == ["conventional", "generalist", "minimalist"]


@pytest.mark.parametrize(
    "kind, settings, message",
    [
        ("minimalist", dict(temperature=0.0), "temperature must be positive"),
        ("minimalist", dict(temperature=float("nan")), "temperature must be positive"),
        ("generalist", dict(introduction_mode="forgetting"), "unknown introduction mode"),
        ("generalist", dict(alpha=0.0), "alpha must be positive"),
        ("generalist", dict(alpha=-1.0, introduction_mode="erasing"), "alpha must be positive"),
    ],
)
def test_constructors_reject_bad_settings(kind, settings, message):
    with pytest.raises(ValueError, match=message):
        make_receiver(GAME, kind, **settings)


@pytest.mark.parametrize(
    "agent, context, choice",
    [
        (Sender(GAME, 0), 0, "mA0"),
        (ConventionalReceiver(GAME), ("mA0", "mB0"), 0),
        (MinimalistReceiver(GAME, temperature=50.0), ("mA0", "mB0"), 0),
        (GeneralistReceiver(GAME, "preserving"), ("mA0", "mB0"), 0),
    ],
    ids=["sender", "conventional", "minimalist", "generalist"],
)
def test_reinforce_rejects_negative_reward(agent, context, choice):
    before = agent.to_json_dict()
    with pytest.raises(ValueError, match="negative reinforcement is out of scope"):
        agent.reinforce(context, choice, -1.0)
    assert agent.to_json_dict() == before


def test_choices_are_deterministic_given_seed():
    recv = ConventionalReceiver(GAME)
    recv.reinforce(("mA0", "mB0"), 1, 3.0)
    choices = [recv.choose(("mA0", "mB0"), make_rng(4)) for _ in range(3)]
    assert choices == [choices[0]] * 3
