import copy
import gc
import itertools
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from signalgames import engine
from signalgames.agents import ConventionalReceiver
from signalgames.engine import (
    EventError,
    ReplacementEvent,
    TrajectoryConfig,
    build_agents,
    run,
    run_batch,
    step,
    take_snapshot,
)
from signalgames.game import GameSpec, InvalidSpecError, make_atomic_game, make_two_sender_game
from signalgames.infotheory import compositional_expected_average, sender_average_info
from signalgames.reinforcement import DegenerateContextError, make_rng, sample_weights

GAME = make_two_sender_game()


def small_config(**overrides):
    base = dict(
        spec=GAME,
        receiver_kind="conventional",
        total_turns=2000,
        snapshot_every=500,
        seed=0,
    )
    base.update(overrides)
    return TrajectoryConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(total_turns=-1).check()
    with pytest.raises(ValueError):
        small_config(snapshot_every=0).check()
    with pytest.raises(ValueError):
        small_config(events=(ReplacementEvent(5000, 1, "mB0", "mB?"),)).check()
    small_config().check()


def test_config_check_bounds_urn_weights_for_any_turn_count():
    # a count no float holds is compared, not converted, so it cannot raise
    # OverflowError past the config check's ValueError
    with pytest.raises(ValueError, match="game.utility: urn weights could total inf"):
        small_config(total_turns=10**400, events=()).check()


@pytest.mark.parametrize("count, fits", [(1000, True), (1100, False)])
def test_config_check_bounds_preserving_copies(count, fits):
    # at alpha 1 each event on a sender about doubles the sum of its singleton
    # urns, which the fresh symbol's urn copies: past 1,024 events it overflows
    names = ["mA0"] + [f"a{k}" for k in range(count)]
    events = tuple(ReplacementEvent(k + 1, 0, names[k], names[k + 1]) for k in range(count))
    config = small_config(
        receiver_kind="generalist", introduction_mode="preserving", total_turns=count, events=events
    )
    if fits:
        config.check()
    else:
        with pytest.raises(ValueError, match="alpha: urn weights could total inf"):
            config.check()


@pytest.mark.parametrize(
    "alpha, second, fits",
    [
        (1e-150, ReplacementEvent(20, 0, "mA0", "mA?"), True),
        (1e-160, ReplacementEvent(20, 0, "mA0", "mA?"), False),
        (1e-300, ReplacementEvent(20, 1, "mB?", "mB!"), True),
    ],
    ids=["both-senders-fits", "both-senders", "one-sender"],
)
def test_config_check_bounds_preserving_copies_from_below(alpha, second, fits):
    # with events on both senders the copy for {mA?, mB?} is alpha ** 2, no
    # longer a normal float below about 1.5e-154 (at 1e-170 it rounds to 0);
    # with events on one sender no copy falls below alpha
    events = (ReplacementEvent(10, 1, "mB0", "mB?"), second)
    config = small_config(
        receiver_kind="generalist",
        introduction_mode="preserving",
        alpha=alpha,
        total_turns=400,
        events=events,
    )
    if fits:
        run(config)
    else:
        message = r"^alpha: copies could weigh 1e-160 \*\* 2, not a normal float$"
        with pytest.raises(ValueError, match=message):
            config.check()


def test_config_check_rejects_a_game_spec_built_directly():
    # GameSpec's constructor checks nothing; from_json_dict and the game
    # builders do, so check() is the only guard for a spec built in code
    spec = GameSpec(
        num_states=2,
        sender_alphabets=(("a", "b"),),
        num_acts=2,
        state_prior=(0.5, 0.5),
        utility=((1.0, 0.0),),
    )
    with pytest.raises(InvalidSpecError, match=r"utility has shape \(1, 2\), expected \(2, 2\)"):
        small_config(spec=spec, events=()).check()


def test_step_round_shape():
    senders, receiver = build_agents(small_config())
    rng = make_rng(0)
    state, signal, act, reward = step(GAME, senders, receiver, rng)
    assert 0 <= state < 4 and 0 <= act < 4
    assert signal[0] in ("mA0", "mA1") and signal[1] in ("mB0", "mB1")
    assert reward in (0.0, 1.0)


def test_run_is_deterministic():
    t1 = run(small_config())
    t2 = run(small_config())
    assert [r.__dict__ for r in t1.reports] == [r.__dict__ for r in t2.reports]
    t3 = run(small_config(seed=1))
    assert [r.__dict__ for r in t1.reports] != [r.__dict__ for r in t3.reports]


def test_snapshot_cadence_and_phases():
    event = ReplacementEvent(1000, 1, "mB0", "mB?")
    trajectory = run(small_config(events=(event,)))
    turns = [(r.turn, r.phase) for r in trajectory.reports]
    assert turns[0] == (0, "regular")
    assert (1000, "pre") in turns and (1000, "post") in turns
    assert (1000, "regular") not in turns
    assert turns[-1] == (2000, "regular")
    assert set(trajectory.event_snapshots) == {(1000, "pre"), (1000, "post")}


def test_run_reports_the_last_turn():
    # the last turn used to go unreported unless a stop fell on it
    trajectory = run(small_config(total_turns=1000, snapshot_every=300))
    assert [r.turn for r in trajectory.reports] == [0, 300, 600, 900, 1000]
    event = ReplacementEvent(400, 1, "mB0", "mB?")
    trajectory = run(small_config(total_turns=1000, snapshot_every=5000, events=(event,)))
    assert [(r.turn, r.phase) for r in trajectory.reports] == [
        (0, "regular"),
        (400, "pre"),
        (400, "post"),
        (1000, "regular"),
    ]
    assert [r.turn for r in run(small_config(total_turns=0, events=())).reports] == [0]


def test_run_names_the_context_of_a_row_it_cannot_normalize(monkeypatch):
    # the config check rules such a row out; a patched read-out forces one
    act_weights = ConventionalReceiver.act_weights

    def zero_after_event(self, signal):
        return [0.0] * 4 if "mB?" in signal else act_weights(self, signal)

    monkeypatch.setattr(ConventionalReceiver, "act_weights", zero_after_event)
    event = ReplacementEvent(1000, 1, "mB0", "mB?")
    message = r"^weights for context \('mA0', 'mB\?'\) total 0\.0$"
    with pytest.raises(DegenerateContextError, match=message):
        run(small_config(events=(event,)))


def test_replacement_preserves_sender_info_exactly():
    event = ReplacementEvent(1000, 1, "mB0", "mB?")
    trajectory = run(small_config(events=(event,)))
    pre = next(r for r in trajectory.reports if r.phase == "pre")
    post = next(r for r in trajectory.reports if r.phase == "post")
    # relabelling is weight-preserving: the sender side loses nothing
    assert pre.sender_info_bits == post.sender_info_bits
    assert trajectory.senders[1].alphabet == ["mB?", "mB1"]
    # and the snapshots agree with a direct recomputation
    assert (
        abs(sender_average_info(trajectory.event_snapshots[(1000, "post")]) - post.sender_info_bits)
        < 1e-12
    )


def test_learning_increases_payoff():
    trajectory = run(small_config(total_turns=5000))
    assert trajectory.reports[-1].expected_payoff > trajectory.reports[0].expected_payoff
    assert trajectory.reports[0].expected_payoff == 0.25


def test_atomic_game_reaches_signaling_system():
    config = TrajectoryConfig(
        spec=make_atomic_game(2), total_turns=10_000, snapshot_every=10_000, seed=3
    )
    trajectory = run(config)
    assert trajectory.reports[-1].expected_payoff >= 0.95


def test_run_batch_aggregates():
    batch = run_batch(small_config(), 3)
    assert len(batch.trajectories) == 3
    # seeds are consecutive, so runs differ
    payoffs = [t.reports[-1].expected_payoff for t in batch.trajectories]
    assert len(set(payoffs)) > 1
    row = batch.aggregate_row(2000)
    assert abs(row.mean_payoff - np.mean(payoffs)) < 1e-12
    with pytest.raises(KeyError):
        batch.aggregate_row(12345)
    with pytest.raises(ValueError):
        run_batch(small_config(), 0)


def test_minimalist_and_generalist_run():
    for kind, extra in (
        ("minimalist", dict(temperature=2000.0)),
        ("generalist", dict(introduction_mode="preserving")),
    ):
        trajectory = run(small_config(receiver_kind=kind, total_turns=500, **extra))
        assert trajectory.reports[-1].turn == 500


def test_generalist_event_mid_run():
    event = ReplacementEvent(300, 1, "mB0", "mB?")
    trajectory = run(
        small_config(
            receiver_kind="generalist",
            introduction_mode="preserving",
            total_turns=600,
            events=(event,),
        )
    )
    assert "mB?" in trajectory.receiver.symbol_sender
    post = trajectory.event_snapshots[(300, "post")]
    assert post.sender_alphabets[1] == ("mB?", "mB1")
    assert post.receiver_conditionals.shape == (2, 2, 4)


# -- reads are pure ---------------------------------------------------------


def policy_state(senders, receiver):
    return json.dumps(
        [s.to_json_dict() for s in senders] + [receiver.to_json_dict()], sort_keys=True
    )


def urn_entries(senders, receiver):
    return [len(s.table.entries) for s in senders] + [len(receiver.table.entries)]


RECEIVERS = [
    dict(receiver_kind="conventional"),
    dict(receiver_kind="minimalist"),
    dict(receiver_kind="generalist", introduction_mode="erasing"),
    dict(receiver_kind="generalist", introduction_mode="preserving"),
]


@pytest.mark.parametrize("receiver", RECEIVERS)
def test_snapshot_leaves_policies_unchanged(receiver):
    fresh_senders, fresh_receiver = build_agents(small_config(**receiver))
    event = ReplacementEvent(300, 1, "mB0", "mB?")
    trained = run(small_config(total_turns=300, events=(event,), **receiver))
    for senders, receiver_agent in (
        (fresh_senders, fresh_receiver),
        (trained.senders, trained.receiver),
    ):
        before = policy_state(senders, receiver_agent)
        entries = urn_entries(senders, receiver_agent)
        take_snapshot(GAME, senders, receiver_agent)
        assert urn_entries(senders, receiver_agent) == entries
        assert policy_state(senders, receiver_agent) == before
    assert urn_entries(fresh_senders, fresh_receiver) == [0, 0, 0]


def hexes(row):
    return [float(p).hex() for p in row]


@pytest.mark.parametrize("receiver", RECEIVERS)
def test_scalar_reads_equal_the_snapshot_rows(receiver):
    # the one-row reads and a snapshot normalize through the same function,
    # so each read is its snapshot row to the last bit
    event = ReplacementEvent(300, 1, "mB0", "mB?")
    trained = run(small_config(total_turns=600, events=(event,), **receiver))
    senders, agent = trained.senders, trained.receiver
    snapshot = take_snapshot(GAME, senders, agent)
    rho = snapshot.receiver_conditionals
    signals = itertools.product(*snapshot.sender_alphabets)
    for index, signal in zip(np.ndindex(rho.shape[:-1]), signals, strict=True):
        assert hexes(agent.act_distribution(signal)) == hexes(rho[index]), signal
    for sender, conditional in zip(senders, snapshot.sender_conditionals, strict=True):
        for state in range(GAME.num_states):
            assert hexes(sender.table.distribution(state)) == hexes(conditional[state])


@pytest.mark.parametrize("receiver", RECEIVERS)
def test_reads_store_no_urns_after_fresh_symbols(receiver):
    # after events mint fresh symbols, every signal holding one reads an urn
    # that was never stored; no read may store it
    events = (ReplacementEvent(300, 1, "mB0", "mB?"), ReplacementEvent(600, 0, "mA1", "mA?"))
    trained = run(small_config(total_turns=600, events=events, **receiver))
    senders, agent = trained.senders, trained.receiver
    entries = urn_entries(senders, agent)
    snapshot = take_snapshot(GAME, senders, agent)
    symbols = [["mA0", "mA1", "mA?"], ["mB0", "mB1", "mB?"]]  # live and retired
    for signal in itertools.product(*symbols):
        agent.act_distribution(signal)
        if receiver["receiver_kind"] == "minimalist":
            agent.naive_distribution(signal)
    agent.to_json_dict()
    for sender in senders:
        sender.to_json_dict()
    compositional_expected_average(snapshot, "mA?")
    compositional_expected_average(snapshot, "mB1")
    assert urn_entries(senders, agent) == entries


@pytest.mark.parametrize("receiver", RECEIVERS)
def test_pickled_agents_keep_storing_and_learning(receiver):
    # batch workers send trajectories back pickled; the agents that arrive
    # must go on storing unseen urns and choose exactly as the originals do
    event = ReplacementEvent(300, 1, "mB0", "mB?")
    config = small_config(total_turns=300, events=(event,), **receiver)
    original = run(config)
    copy = pickle.loads(pickle.dumps(original))
    rng, copy_rng = make_rng(5), make_rng(5)
    for _ in range(300):
        played = step(GAME, original.senders, original.receiver, rng)
        assert step(GAME, copy.senders, copy.receiver, copy_rng) == played
    assert urn_entries(copy.senders, copy.receiver) == urn_entries(
        original.senders, original.receiver
    )
    assert policy_state(copy.senders, copy.receiver) == policy_state(
        original.senders, original.receiver
    )


@pytest.mark.parametrize("receiver", RECEIVERS)
def test_agents_are_freed_without_the_cycle_collector(receiver):
    # urn tables that referred back to themselves lived on until a cycle
    # collection, which raised the churn benchmark's peak memory by 9 MB
    trajectory = run(small_config(total_turns=300, **receiver))
    agents = [*trajectory.senders, trajectory.receiver]
    refs = [weakref.ref(x) for x in agents + [agent.table for agent in agents]]
    gc.disable()
    try:
        del trajectory, agents
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


class Draws:
    """An ``rng`` that returns ``values`` in order."""

    def __init__(self, *values):
        self.random = iter(values).__next__


def test_step_draws_the_first_running_total_above_the_draw():
    spec = make_atomic_game(2)
    senders, receiver = build_agents(TrajectoryConfig(spec=spec))
    senders[0].table.entries[0] = [0.0, 1.0]
    # state 0; then 0.0 on the sender's row, whose running totals are 0.0 and
    # 1.0: the first above 0.0 is index 1 (a ``<=`` scan picks index 0)
    assert step(spec, senders, receiver, Draws(0.0, 0.0, 0.0)) == (0, ("m1",), 0, 1.0)
    assert senders[0].table.entries[0] == [0.0, 2.0]
    # a receiver row that totals 0 fails as ``sample_weights`` does
    receiver.table.entries[("m1",)] = [0.0, 0.0]
    with pytest.raises(DegenerateContextError) as expected:
        sample_weights([0.0, 0.0], Draws(0.5))
    with pytest.raises(DegenerateContextError) as raised:
        step(spec, senders, receiver, Draws(0.0, 0.0, 0.5))
    assert str(raised.value) == str(expected.value)


def test_step_rejects_a_negative_reward_before_reinforcing():
    spec = replace(make_atomic_game(2), utility=((-1.0, 0.0), (0.0, 1.0)))
    senders, receiver = build_agents(TrajectoryConfig(spec=spec))
    with pytest.raises(ValueError, match="negative reinforcement is out of scope"):
        step(spec, senders, receiver, Draws(0.0, 0.0, 0.0))
    # the rows drawn from are stored, as the agents' ``choose`` stores them
    assert senders[0].table.entries == {0: [1.0, 1.0]}
    assert receiver.table.entries == {("m0",): [1.0, 1.0]}


@pytest.mark.parametrize("receiver", RECEIVERS)
def test_step_writes_the_urns_that_receiver_reinforce_writes(receiver):
    # ``step`` adds the act ball to the receiver's urns itself; one rewarded
    # turn must leave the table as the reference methods leave a copy
    event = ReplacementEvent(300, 1, "mB0", "mB?")
    trained = run(small_config(total_turns=300, events=(event,), **receiver))
    agent = trained.receiver
    reference = copy.deepcopy(agent)
    before = copy.deepcopy(agent.table.entries)
    # state 0, the first symbol of each sender, then act 0, whose reward is 1
    played = step(GAME, trained.senders, agent, Draws(0.0, 0.0, 0.0, 0.0))
    assert played == (0, ("mA0", "mB?"), 0, 1.0)
    assert reference.choose(("mA0", "mB?"), Draws(0.0)) == 0
    reference.reinforce(("mA0", "mB?"), 0, 1.0)
    assert agent.table.entries == reference.table.entries
    assert agent.table.entries != before  # the turn wrote


# -- events are checked before the first turn -------------------------------


@pytest.mark.parametrize(
    "events, index",
    [
        # two events on one turn: one of them used to be dropped silently
        ((ReplacementEvent(100, 1, "mB0", "mB?"), ReplacementEvent(100, 0, "mA0", "mA?")), 1),
        ((ReplacementEvent(100, 2, "mB0", "mB?"),), 0),  # no sender 2
        ((ReplacementEvent(100, 0, "mB0", "mB?"),), 0),  # mB0 belongs to sender 1
        # mB0 was already renamed at turn 100 (events are replayed in turn order)
        ((ReplacementEvent(200, 1, "mB0", "mBx"), ReplacementEvent(100, 1, "mB0", "mB?")), 0),
        ((ReplacementEvent(100, 1, "mB0", "mA1"),), 0),  # live symbol of sender 0
        # a retired symbol is not fresh either
        ((ReplacementEvent(100, 1, "mB0", "mB?"), ReplacementEvent(200, 1, "mB?", "mB0")), 1),
    ],
    ids=["same-turn", "bad-sender", "wrong-sender", "old-renamed", "new-in-use", "new-retired"],
)
def test_config_rejects_bad_events(events, index):
    config = small_config(events=events)
    with pytest.raises(EventError) as err:
        config.check()
    assert err.value.index == index
    with pytest.raises(EventError):
        run(config)


def test_config_accepts_chained_events():
    events = (
        ReplacementEvent(200, 1, "mB?", "mB!"),
        ReplacementEvent(100, 1, "mB0", "mB?"),
        ReplacementEvent(150, 0, "mA1", "mA?"),
    )
    trajectory = run(small_config(total_turns=300, events=events))
    assert trajectory.senders[1].alphabet == ["mB!", "mB1"]
    assert trajectory.senders[0].alphabet == ["mA0", "mA?"]


# -- batches run in worker processes ----------------------------------------


@pytest.fixture
def two_workers(monkeypatch):
    """Take the pooled path whatever the host's CPU count."""
    monkeypatch.setattr(engine, "_workers", lambda num_runs: 2)


def test_batch_worker_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert engine._workers(20) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert engine._workers(1) == 1
    assert engine._workers(2) == 2
    assert engine._workers(20) == 3
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert engine._workers(20) == 1


@pytest.mark.parametrize("receiver", RECEIVERS)
def test_run_batch_in_workers_matches_serial_runs(two_workers, receiver):
    config = small_config(
        total_turns=600,
        snapshot_every=100,
        seed=4,
        events=(ReplacementEvent(300, 1, "mB0", "mB?"),),
        **receiver,
    )
    batch = run_batch(config, 3)
    serial = [run(replace(config, seed=config.seed + i)) for i in range(3)]
    for pooled, expected in zip(batch.trajectories, serial, strict=True):
        assert pooled.config == expected.config
        assert [r.__dict__ for r in pooled.reports] == [r.__dict__ for r in expected.reports]
        assert pooled.event_snapshots.keys() == expected.event_snapshots.keys()
        for key, snapshot in expected.event_snapshots.items():
            for field in fields(snapshot):
                np.testing.assert_array_equal(
                    getattr(pooled.event_snapshots[key], field.name),
                    getattr(snapshot, field.name),
                )
        assert policy_state(pooled.senders, pooled.receiver) == policy_state(
            expected.senders, expected.receiver
        )


def test_run_batch_rejects_bad_events_before_forking(two_workers):
    # EventError cannot cross back from a worker, so the parent checks first
    config = small_config(events=(ReplacementEvent(100, 2, "mB0", "mB?"),))
    with pytest.raises(EventError) as err:
        run_batch(config, 3)
    assert err.value.index == 0


def test_batch_workers_do_not_outlive_the_call(two_workers, monkeypatch):
    config = small_config(total_turns=200, snapshot_every=100)
    run_batch(config, 3)
    assert multiprocessing.active_children() == []

    def failing_step(*args):
        raise RuntimeError("step failed")

    monkeypatch.setattr(engine, "step", failing_step)  # fork carries the patch
    with pytest.raises(RuntimeError, match="step failed"):
        run_batch(config, 3)
    assert multiprocessing.active_children() == []


def batch_reports(config):
    """The worker count and reports of a 3-run batch, in plain values."""
    reports = [[r.__dict__ for r in t.reports] for t in run_batch(config, 3).trajectories]
    return engine._workers(3), reports


@pytest.mark.parametrize("outer", ["Pool", "ProcessPoolExecutor"])
def test_run_batch_in_a_pool_worker_runs_in_process(monkeypatch, outer):
    # A daemonic Pool worker may not start processes; a ProcessPoolExecutor
    # worker may, but (cpus + 1) pools of (cpus + 1) workers oversubscribe.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # fork carries it
    config = small_config(total_turns=300, snapshot_every=100)
    context = multiprocessing.get_context("fork")
    if outer == "Pool":
        with context.Pool(1) as pool:
            workers, reports = pool.apply(batch_reports, (config,))
    else:
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            workers, reports = pool.submit(batch_reports, config).result()
    assert workers == 1
    serial = [run(replace(config, seed=config.seed + i)) for i in range(3)]
    assert reports == [[r.__dict__ for r in t.reports] for t in serial]


KILLED_CALLER = """
import os, sys, time
from signalgames import engine
from signalgames.game import make_two_sender_game

def record_and_wait(config):
    with open(sys.argv[1], "a") as out:
        out.write(f"{os.getpid()}\\n")
    time.sleep(60)

engine._run_seeded = record_and_wait
engine._workers = lambda num_runs: 2
config = engine.TrajectoryConfig(
    spec=make_two_sender_game(), receiver_kind="conventional", total_turns=100, snapshot_every=50
)
engine.run_batch(config, 2)
"""


def running(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:  # an orphan that exited is a zombie until its new parent reaps it
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
def test_batch_workers_exit_when_the_caller_is_killed(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    pids_file = tmp_path / "workers"
    caller = subprocess.Popen([sys.executable, "-c", KILLED_CALLER, str(pids_file)], env=env)
    pids = []
    try:
        deadline = time.monotonic() + 30
        while len(pids) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            if pids_file.exists():
                pids = [int(line) for line in pids_file.read_text().split()]
        assert len(pids) == 2, "the workers did not start"
        caller.send_signal(signal.SIGKILL)  # no chance to join its pool
        caller.wait()
        deadline = time.monotonic() + 10
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids))
    finally:
        caller.kill()
        caller.wait()
        for pid in filter(running, pids):
            os.kill(pid, signal.SIGKILL)
