import numpy as np
import pytest

from signalgames.game import (
    GameSpec,
    InvalidSpecError,
    make_atomic_game,
    make_two_sender_game,
    signal_label,
    validate,
)


# The bundled games spelled out: repr tells 1 from 1.0 and shows every bit.
ATOMIC_GAMES = {
    2: GameSpec(
        num_states=2,
        sender_alphabets=(("m0", "m1"),),
        num_acts=2,
        state_prior=(0.5, 0.5),
        utility=((1.0, 0.0), (0.0, 1.0)),
    ),
    3: GameSpec(
        num_states=3,
        sender_alphabets=(("m0", "m1", "m2"),),
        num_acts=3,
        state_prior=(1 / 3, 1 / 3, 1 / 3),
        utility=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    ),
    5: GameSpec(
        num_states=5,
        sender_alphabets=(("m0", "m1", "m2", "m3", "m4"),),
        num_acts=5,
        state_prior=(0.2, 0.2, 0.2, 0.2, 0.2),
        utility=(
            (1.0, 0.0, 0.0, 0.0, 0.0),
            (0.0, 1.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 1.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 1.0, 0.0),
            (0.0, 0.0, 0.0, 0.0, 1.0),
        ),
    ),
}

TWO_SENDER_GAME = GameSpec(
    num_states=4,
    sender_alphabets=(("mA0", "mA1"), ("mB0", "mB1")),
    num_acts=4,
    state_prior=(0.25, 0.25, 0.25, 0.25),
    utility=(
        (1.0, 0.0, 0.0, 0.0),
        (0.0, 1.0, 0.0, 0.0),
        (0.0, 0.0, 1.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
    ),
)


def test_atomic_game_shape():
    game = make_atomic_game(3)
    assert game.num_states == 3
    assert game.num_acts == 3
    assert game.sender_alphabets == (("m0", "m1", "m2"),)
    assert validate(game) == []
    assert np.allclose(game.prior_array(), [1 / 3] * 3)
    # identity utility: act i pays off exactly in state i
    assert np.allclose(game.utility_array(), np.eye(3))
    for n, expected in ATOMIC_GAMES.items():
        assert repr(make_atomic_game(n)) == repr(expected)


def test_atomic_game_rejects_tiny():
    with pytest.raises(InvalidSpecError):
        make_atomic_game(1)


def test_two_sender_game_shape():
    game = make_two_sender_game()
    assert game.num_states == 4
    assert game.num_acts == 4
    assert game.sender_alphabets == (("mA0", "mA1"), ("mB0", "mB1"))
    assert game.num_senders == 2
    assert validate(game) == []
    assert repr(game) == repr(TWO_SENDER_GAME)


def test_validate_flags_problems():
    game = make_two_sender_game()
    bad_prior = GameSpec(
        num_states=4,
        sender_alphabets=game.sender_alphabets,
        num_acts=4,
        state_prior=(0.5, 0.5, 0.5, 0.5),
        utility=game.utility,
    )
    assert any("prior" in p for p in validate(bad_prior))

    dup = GameSpec(
        num_states=4,
        sender_alphabets=(("m", "m"), ("mB0", "mB1")),
        num_acts=4,
        state_prior=game.state_prior,
        utility=game.utility,
    )
    assert any("symbol" in p or "duplicate" in p for p in validate(dup))


def test_json_round_trip():
    game = make_two_sender_game()
    copy = GameSpec.from_json_dict(game.to_json_dict())
    assert copy == game


def test_signal_label():
    assert signal_label(("mA0", "mB1")) == "mA0 & mB1"


def spec_with(**fields):
    game = make_atomic_game(2)
    values = dict(
        num_states=2,
        sender_alphabets=game.sender_alphabets,
        num_acts=2,
        state_prior=game.state_prior,
        utility=game.utility,
    )
    values.update(fields)
    return GameSpec(**values)


@pytest.mark.parametrize(
    "prior",
    [(float("nan"), float("nan")), (1.0, 0.0), (float("inf"), 0.5), (1.5, -0.5)],
    ids=["nan", "zero", "infinite", "negative"],
)
def test_validate_rejects_prior_not_finite_and_positive(prior):
    problems = validate(spec_with(state_prior=prior))
    assert "state_prior entries must be finite and positive" in problems


@pytest.mark.parametrize(
    "utility",
    [((1.0, -1.0), (-1.0, 1.0)), ((1.0, float("nan")), (0.0, 1.0)), ((float("inf"), 0.0), (0.0, 1.0))],
    ids=["negative", "nan", "infinite"],
)
def test_validate_rejects_utility_not_finite_and_non_negative(utility):
    assert validate(spec_with(utility=utility)) == [
        "utility entries must be finite and non-negative"
    ]


def test_from_json_dict_validates():
    data = dict(make_atomic_game(2).to_json_dict(), state_prior=[1.0, 0.0])
    with pytest.raises(InvalidSpecError, match="state_prior"):
        GameSpec.from_json_dict(data)
