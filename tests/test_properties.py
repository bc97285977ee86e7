"""The run loop's invariants over generated games.

The golden tests pin a few configs bit for bit; these check general claims
on small games the figure configs miss: 1-3 senders of 2-3 symbols each,
2-4 states with as many acts, a positive prior, utilities in {0, 0.25, 1},
every receiver setting, and 0-3 chained replacement events on distinct
turns.  For each generated run:

* the reports equal the brute-force oracle's metrics to 1e-9 at every event
  snapshot, and at the end when the last report falls on the last turn;
* ``run`` leaves the agents a plain loop leaves that composes each turn
  from the agents' methods (``sample_weights`` on the prior, each
  ``Sender.choose``, ``receiver.choose``, then on a rewarded turn each
  ``reinforce``) and calls ``apply_event`` on the same seed, so its
  snapshots change no policy, and the draws ``step`` writes out choose as
  those methods do on a bare ``Generator``;
* the reports ``run`` computes in one pass after its last turn equal, bit for
  bit, those ``take_snapshot`` and ``make_report`` give at each stop of that
  plain loop, its event snapshots are array-equal to the loop's, and each
  payoff is the left fold of its terms;
* the policy file ``--dump-policy`` writes loads back through
  ``load_policy`` to the same game, equal agents and array-equal snapshots.

And the audit reads any policy file with one field changed to a value of
another JSON type or shape without a traceback: it exits 0, 2 or 3.
"""

import contextlib
import functools
import io
import json
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from signalgames import cli, engine
from signalgames.game import GameSpec, make_two_sender_game
from signalgames.oracle import enumerate_outcomes, oracle_metrics
from signalgames.reinforcement import make_rng, sample_weights

RECEIVERS = st.one_of(
    st.just(dict(receiver_kind="conventional")),
    st.builds(
        dict, receiver_kind=st.just("minimalist"), temperature=st.sampled_from([50.0, 2000.0])
    ),
    st.just(dict(receiver_kind="generalist", introduction_mode="erasing")),
    st.builds(
        dict,
        receiver_kind=st.just("generalist"),
        introduction_mode=st.just("preserving"),
        alpha=st.sampled_from([0.5, 1.0, 2.0]),
    ),
)


@st.composite
def games(draw) -> GameSpec:
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    n = draw(st.integers(2, 4))
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    rows = st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=n, max_size=n)
    utility = draw(st.lists(rows, min_size=n, max_size=n))
    paying = draw(st.integers(0, n * n - 1))  # at least one cell pays
    utility[paying // n][paying % n] = draw(st.sampled_from([0.25, 1.0]))
    return GameSpec(
        num_states=n,
        sender_alphabets=tuple(
            tuple(f"s{i}m{j}" for j in range(size)) for i, size in enumerate(sizes)
        ),
        num_acts=n,
        state_prior=tuple(w / sum(weights) for w in weights),
        utility=tuple(map(tuple, utility)),
    )


@st.composite
def configs(draw) -> engine.TrajectoryConfig:
    spec = draw(games())
    total_turns = draw(st.integers(0, 600))
    turns = draw(
        st.lists(st.integers(1, max(total_turns, 1)), max_size=min(total_turns, 3), unique=True)
    )
    # each event renames a symbol live at its turn, so later ones may rename
    # an earlier one's fresh symbol
    alphabets = [list(alphabet) for alphabet in spec.sender_alphabets]
    events = []
    for k, turn in enumerate(sorted(turns)):
        sender = draw(st.integers(0, len(alphabets) - 1))
        old = draw(st.sampled_from(alphabets[sender]))
        alphabets[sender][alphabets[sender].index(old)] = f"r{k}"
        events.append(engine.ReplacementEvent(turn, sender, old, f"r{k}"))
    return engine.TrajectoryConfig(
        spec=spec,
        total_turns=total_turns,
        events=tuple(events),
        snapshot_every=draw(st.integers(1, 200)),
        seed=draw(st.integers(0, 2**16)),
        **draw(RECEIVERS),
    )


def policy(senders, receiver) -> list[dict]:
    return [sender.to_json_dict() for sender in senders] + [receiver.to_json_dict()]


def report_bits(report) -> tuple:
    return (report.turn, report.phase, *(getattr(report, m).hex() for m in engine.METRICS))


def payoff_terms(spec, snapshot) -> list[float]:
    joint, rho = snapshot.joint(), snapshot.receiver_conditionals
    payoff = (spec.utility_array() @ rho.reshape(-1, rho.shape[-1]).T).reshape(joint.shape)
    return np.where(joint > 0, joint * payoff, 0.0).ravel().tolist()


def assert_same_snapshot(actual, expected):
    assert actual.sender_alphabets == expected.sender_alphabets
    np.testing.assert_array_equal(actual.state_prior, expected.state_prior)
    for a, b in zip(actual.sender_conditionals, expected.sender_conditionals, strict=True):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(actual.receiver_conditionals, expected.receiver_conditionals)
    np.testing.assert_array_equal(actual.joint(), expected.joint())


@pytest.fixture(scope="module")
def policy_file(tmp_path_factory):
    return tmp_path_factory.mktemp("policy") / "policy.json"


@settings(max_examples=60)
@given(config=configs())
def test_run_invariants(policy_file, config):
    spec = config.spec
    trajectory = engine.run(config)
    senders, receiver = trajectory.senders, trajectory.receiver

    assert len(trajectory.event_snapshots) == 2 * len(config.events)
    snapshots = dict(trajectory.event_snapshots)
    last = trajectory.reports[-1]
    if last.turn == config.total_turns:
        snapshots[(last.turn, last.phase)] = engine.take_snapshot(spec, senders, receiver)
    reports = {(r.turn, r.phase): r for r in trajectory.reports}
    for key, snapshot in snapshots.items():
        expected = oracle_metrics(enumerate_outcomes(spec, snapshot))
        report = reports[key]
        assert math.isclose(report.expected_payoff, expected.expected_payoff, abs_tol=1e-9)
        assert math.isclose(report.sender_info_bits, expected.sender_average_info, abs_tol=1e-9)
        assert math.isclose(
            report.receiver_info_bits, expected.receiver_average_info, abs_tol=1e-9
        )

    plain_senders, plain_receiver = engine.build_agents(config)
    rng = make_rng(config.seed)
    events = {event.turn: event for event in config.events}
    replayed = {}

    def replay_report(turn, phase):
        snapshot = engine.take_snapshot(spec, plain_senders, plain_receiver)
        replayed[(turn, phase)] = engine.make_report(spec, snapshot, turn, phase), snapshot

    def reference_step():
        state = sample_weights(spec.state_prior, rng)
        signal = tuple([sender.choose(state, rng) for sender in plain_senders])
        act = plain_receiver.choose(signal, rng)
        reward = spec.utility[state][act]
        if reward:
            for sender, symbol in zip(plain_senders, signal):
                sender.reinforce(state, symbol, reward)
            plain_receiver.reinforce(signal, act, reward)

    replay_report(0, "regular")
    for turn in range(1, config.total_turns + 1):
        reference_step()
        if turn in events:
            replay_report(turn, "pre")
            engine.apply_event(events[turn], plain_senders, plain_receiver)
            replay_report(turn, "post")
        elif turn % config.snapshot_every == 0:
            replay_report(turn, "regular")
    assert policy(plain_senders, plain_receiver) == policy(senders, receiver)
    replayed_reports = [report for report, _ in replayed.values()]
    assert list(map(report_bits, replayed_reports)) == list(map(report_bits, trajectory.reports))
    for key, snapshot in trajectory.event_snapshots.items():
        assert_same_snapshot(snapshot, replayed[key][1])
    # make_report is the run's pass at N = 1, so the two above agree however
    # the pass sums; this pins the sum to a left fold
    for report, snapshot in replayed.values():
        terms = payoff_terms(spec, snapshot)
        assert report.expected_payoff == functools.reduce(operator.add, terms, 0.0)

    policy_file.write_text(cli._policy_json(trajectory))
    loaded_spec, loaded, loaded_senders, loaded_receiver = cli.load_policy(policy_file)
    assert loaded_spec == spec
    assert policy(loaded_senders, loaded_receiver) == policy(senders, receiver)
    assert_same_snapshot(loaded, engine.take_snapshot(spec, senders, receiver))


def small_dump(**settings) -> dict:
    spec = make_two_sender_game()
    config = engine.TrajectoryConfig(spec=spec, total_turns=300, snapshot_every=300, **settings)
    return json.loads(cli._policy_json(engine.run(config)))


DUMPS = {
    "conventional": small_dump(),
    # a retired symbol, mB0, and the urns its replacement's extension stored
    "preserving": small_dump(
        receiver_kind="generalist",
        introduction_mode="preserving",
        events=(engine.ReplacementEvent(150, 1, "mB0", "mB?"),),
    ),
}


def paths(node, prefix=()):
    """The path of every value inside ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


FIELDS = [(name, path) for name, dump in DUMPS.items() for path in paths(dump)]
VALUES = [
    None,
    True,
    *(0, 1, -1, 7, 2**70),
    *(0.5, 1.5, -0.5, 1e308, math.inf, math.nan),
    *("", "mA0", "mB?", "zz"),
    *([], ["mA0"], [1, 2]),
    *({}, {"tuple": ["mA0"]}, {"set": ["mA0", "zz"]}, {"tuple": [{"tuple": ["mA0"]}]}),
]


@settings(max_examples=600)
@given(field=st.sampled_from(FIELDS), value=st.sampled_from(VALUES))
# a sender symbol that is not a string, and a generalist key that is not a
# set, used to fail as a TypeError
@example(field=("conventional", ("senders", 0, "table", "options", 1)), value=7)
@example(field=("preserving", ("receiver", "table", "entries", 0, "context")), value="mA0")
# the fresh symbol's urns sum to zero or overflow; a game size int() cannot take
@example(field=("conventional", ("receiver", "table", "initial_weight")), value=0)
@example(field=("conventional", ("receiver", "table", "initial_weight")), value=1e308)
@example(field=("conventional", ("game", "num_states")), value=math.inf)
# a sender urn key that is no state used to load, its urn unread
@example(field=("conventional", ("senders", 0, "table", "entries", 0, "context")), value="zz")
def test_audit_of_a_changed_field_exits_without_a_traceback(policy_file, field, value):
    name, path = field
    document = json.loads(json.dumps(DUMPS[name]))
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    policy_file.write_text(json.dumps(document))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--audit", str(policy_file), "--replace", "mA0"])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG_ERROR, cli.EXIT_NON_COMPOSITIONAL)
