"""The benchmark's tracer patches program callables by name; keep them there.

``perfbench/spans.py`` wraps receiver methods, engine functions and CLI
entry points where the program looks them up.  A refactor that deletes or
renames one of them makes the benchmark fail at set-up, so this test installs
the tracer, checks that it patched something, and checks that leaving the
block restores every attribute it touched.
"""

import importlib.util
import pickle
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from signalgames import agents, cli, engine, infotheory, reinforcement
from signalgames.engine import ReplacementEvent, TrajectoryConfig
from signalgames.game import make_two_sender_game

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

OWNERS = (
    agents,
    cli,
    engine,
    infotheory,
    reinforcement,
    reinforcement.ReinforcementTable,
    agents.Sender,
    agents.ConventionalReceiver,
    agents.MinimalistReceiver,
    agents.GeneralistReceiver,
)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_call_sites():
    before = [dict(vars(owner)) for owner in OWNERS]
    with load_spans().Tracer().installed():
        patched = [
            (owner, name, value)
            for owner, saved in zip(OWNERS, before)
            for name, value in saved.items()
            if vars(owner).get(name) is not value
        ]
    assert patched
    names = {(owner.__name__, name) for owner, name, _ in patched}
    for cls in ("ConventionalReceiver", "MinimalistReceiver", "GeneralistReceiver"):
        for method in ("choose", "reinforce", "on_signal", "on_replacement"):
            assert (cls, method) in names
    for owner, name, value in patched:
        assert vars(owner)[name] is value, f"{owner.__name__}.{name} not restored"


def test_run_calls_step_through_module_once_per_turn(monkeypatch):
    # The benchmark's choice digest wraps ``engine.step`` and hashes what it
    # returns; a run loop that stopped calling it there would hash nothing.
    step = engine.step
    returned = []

    def counting_step(*args):
        result = step(*args)
        returned.append(result)
        return result

    monkeypatch.setattr(engine, "step", counting_step)
    config = TrajectoryConfig(
        spec=make_two_sender_game(),
        receiver_kind="generalist",
        total_turns=300,
        snapshot_every=100,
        events=(ReplacementEvent(150, 1, "mB0", "mB?"),),
    )
    engine.run(config)
    assert len(returned) == config.total_turns
    assert all(len(signal) == 2 for _, signal, _, _ in returned)


def test_batch_workers_run_under_the_tracer(monkeypatch):
    # The tracer replaces ``engine.run`` with a closure, which cannot be
    # pickled; a pooled batch must still run, and give the untraced reports.
    # The pool's task is pickled here first: on Python 3.11 a task that fails
    # to pickle in the pool's feeder thread hangs the pool's shutdown.
    pool_map = ProcessPoolExecutor.map

    def pickling_map(self, fn, *iterables, **kwargs):
        pickle.dumps(fn)
        return pool_map(self, fn, *iterables, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "map", pickling_map)
    monkeypatch.setattr(engine, "_workers", lambda num_runs: 2)
    config = TrajectoryConfig(
        spec=make_two_sender_game(),
        receiver_kind="generalist",
        total_turns=300,
        snapshot_every=100,
        events=(ReplacementEvent(150, 1, "mB0", "mB?"),),
    )
    expected = engine.run_batch(config, 3)
    with load_spans().Tracer().installed():
        traced = engine.run_batch(config, 3)
    assert [[r.__dict__ for r in t.reports] for t in traced.trajectories] == [
        [r.__dict__ for r in t.reports] for t in expected.trajectories
    ]


@pytest.mark.parametrize(
    "receiver",
    (
        dict(receiver_kind="conventional"),
        dict(receiver_kind="minimalist", temperature=2000.0),
        dict(receiver_kind="generalist", introduction_mode="erasing"),
        dict(receiver_kind="generalist", introduction_mode="preserving"),
    ),
    ids=lambda receiver: "_".join(map(str, receiver.values())),
)
def test_traced_per_turn_call_counts(monkeypatch, receiver):
    # A turn draws inside ``engine.step``, calls the receiver only to read its
    # act's weights, and writes the rewarded urns itself.  So under a run no
    # sampler, choose, reinforce, sender or ``on_signal`` span fires, though
    # turns are rewarded; nor does the normalized softmax, since a turn draws
    # from the minimalist's softmax numerators and a stop normalizes rows in
    # bulk.
    config = TrajectoryConfig(
        spec=make_two_sender_game(),
        total_turns=300,
        snapshot_every=100,
        events=(ReplacementEvent(150, 1, "mB0", "mB?"),),
        **receiver,
    )
    with load_spans().Tracer().installed() as tracer:
        engine.run(config)
    step = engine.step
    rewarded = []

    def counting_step(*args):
        result = step(*args)
        rewarded.append(bool(result[3]))
        return result

    monkeypatch.setattr(engine, "step", counting_step)
    engine.run(config)
    rewarded_turns = sum(rewarded)
    assert 0 < rewarded_turns < 300
    assert tracer.calls("engine.step") == 300
    for name in (
        "reinforcement.sample_weights",
        "agents.sender.choose",
        "agents.sender.reinforce",
        "agents.receiver.choose",
        "agents.receiver.reinforce",
        "agents.receiver.on_signal",
        "agents.tempered_softmax",
    ):
        assert tracer.calls(name) == 0, name


@pytest.mark.parametrize(
    "receiver",
    (dict(receiver_kind="conventional"), dict(receiver_kind="generalist")),
    ids=lambda receiver: receiver["receiver_kind"],
)
def test_run_reports_around_each_event_in_order(receiver):
    # ``engine.event_handling.s`` sums the spans around every ``apply_event``
    # among ``engine.run``'s children.  A run reads the agents at each stop
    # without a traced call and computes its reports after the last turn, so
    # those children are the config check and one ``apply_event`` per event,
    # in turn order.  The event at turn 200 also falls on the cadence.
    config = TrajectoryConfig(
        spec=make_two_sender_game(),
        total_turns=300,
        snapshot_every=100,
        events=(ReplacementEvent(150, 1, "mB0", "mB?"), ReplacementEvent(200, 0, "mA1", "mA?")),
        **receiver,
    )
    with load_spans().Tracer().installed() as tracer:
        engine.run(config)
    (run,) = [i for i, record in enumerate(tracer.records) if record[0] == "engine.run"]
    children = [name for name, _, _, parent in tracer.records if parent == run]
    assert children == ["game.validate", "engine.apply_event", "engine.apply_event"]
