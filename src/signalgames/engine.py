"""Seeded trajectory runner for repeated signaling games.

One trajectory is a strictly sequential loop: draw a state, let each sender
emit a message, let the receiver act, reward and reinforce, with scheduled
symbol-replacement events and metric snapshots at a fixed cadence.  Batches
run independent trajectories on consecutive seeds and aggregate by turn.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .agents import Receiver, Sender, make_receiver
from .game import GameSpec, InvalidSpecError, validate
from .infotheory import (
    PolicySnapshot,
    receiver_average_info,
    sender_average_info,
    stacked_joint,
    stacked_receiver_info,
    stacked_sender_info,
)
from .reinforcement import BlockUniforms, DegenerateContextError, fold, make_rng, normalize
# ``step`` writes ``sample_weights`` out; the name stays here, where the
# benchmark's tracer patches it
from .reinforcement import sample_weights


@dataclass(frozen=True)
class ReplacementEvent:
    """At ``turn``, sender ``sender_index`` renames ``old_symbol`` to a fresh
    ``new_symbol``; the receiver reacts per its architecture."""

    turn: int
    sender_index: int
    old_symbol: str
    new_symbol: str


class EventError(ValueError):
    """A replacement event that cannot fire; ``index`` is its position in
    ``TrajectoryConfig.events``."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


@dataclass
class TrajectoryConfig:
    spec: GameSpec
    receiver_kind: str = "conventional"
    temperature: float = 2000.0
    introduction_mode: str = "erasing"
    alpha: float = 1.0
    total_turns: int = 100_000
    events: tuple[ReplacementEvent, ...] = ()
    snapshot_every: int = 100
    seed: int = 0

    def check(self) -> tuple[list[Sender], Receiver]:
        """Raise ``ValueError`` (``EventError`` for an event) unless the
        config can run from turn 1 to the end; return the agents built to
        check their settings."""
        problems = validate(self.spec)
        if problems:
            raise InvalidSpecError("; ".join(problems))
        if self.total_turns < 0:
            raise ValueError("total_turns must be non-negative")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        self._check_events()
        return build_agents(self)  # the agents' constructors check their settings

    def _check_events(self) -> None:
        """Replay the events in turn order against the alphabets they rewrite,
        carrying a bound on every urn weight: ``ValueError`` naming ``alpha``
        or ``game.utility`` if a row's total, or the minimalist's sum over
        slots, could overflow a float."""
        spec = self.spec
        alphabets = [list(a) for a in spec.sender_alphabets]
        # retired symbols stay in use: a receiver may still hold urns for them
        used = set(spec.all_symbols())
        turns = set()
        # Every urn weight is its starting value plus at most ``growth``.  A
        # preserving event starts each extended combination's urn at alpha
        # times a weight, and the new symbol's at alpha times the sum of its
        # sender's singleton urns, whose starting values ``singletons`` holds:
        # a turn rewards one singleton of each sender.
        growth = min(self.total_turns, sys.float_info.max) * max(map(max, spec.utility))
        start = 1.0  # the initial weight
        singletons = [float(len(a)) for a in alphabets]
        preserving = self.receiver_kind == "generalist" and self.introduction_mode == "preserving"
        for index, event in sorted(enumerate(self.events), key=lambda ie: ie[1].turn):
            if not (1 <= event.turn <= self.total_turns):
                raise EventError(index, f"turn {event.turn} outside [1, {self.total_turns}]")
            if event.turn in turns:
                raise EventError(index, f"a second event at turn {event.turn}")
            if not (0 <= event.sender_index < len(alphabets)):
                raise EventError(
                    index, f"sender {event.sender_index} outside [0, {len(alphabets) - 1}]"
                )
            alphabet = alphabets[event.sender_index]
            if event.old_symbol not in alphabet:
                raise EventError(
                    index,
                    f"{event.old_symbol!r} is not in sender {event.sender_index}'s "
                    f"alphabet {alphabet} at turn {event.turn}",
                )
            if event.new_symbol in used:
                raise EventError(index, f"new symbol {event.new_symbol!r} is already in use")
            turns.add(event.turn)
            used.add(event.new_symbol)
            alphabet[alphabet.index(event.old_symbol)] = event.new_symbol
            if preserving:
                singleton = self.alpha * (singletons[event.sender_index] + growth)
                singletons[event.sender_index] += singleton
                start = max(start, self.alpha * (start + growth), singleton)
        widest = max(spec.num_acts, *map(len, alphabets))
        if self.receiver_kind == "minimalist":
            widest = max(widest, spec.num_senders)
        for name, bound in (("game.utility", 1.0 + growth), ("alpha", start + growth)):
            if not math.isfinite(bound * widest):
                raise ValueError(
                    f"{name}: urn weights could total {bound * widest!r} by turn "
                    f"{self.total_turns}, more than a float holds"
                )


# The metric fields of InfoReport, in the order the CSVs write them.
METRICS = ("expected_payoff", "sender_info_bits", "receiver_info_bits")


@dataclass
class InfoReport:
    """One metric record; phase is 'regular', or 'pre'/'post' at an event."""

    turn: int
    phase: str
    expected_payoff: float
    sender_info_bits: float
    receiver_info_bits: float


@dataclass
class Trajectory:
    config: TrajectoryConfig
    reports: list[InfoReport]
    senders: list[Sender]
    receiver: Receiver
    # (turn, phase) -> PolicySnapshot captured on either side of each event
    event_snapshots: dict[tuple[int, str], PolicySnapshot] = field(default_factory=dict)


def build_agents(config: TrajectoryConfig) -> tuple[list[Sender], Receiver]:
    """The senders and the receiver, which takes the config fields its
    constructor names."""
    spec = config.spec
    senders = [Sender(spec, i) for i in range(spec.num_senders)]
    return senders, make_receiver(spec, config.receiver_kind, **vars(config))


def step(
    spec: GameSpec,
    senders: Sequence[Sender],
    receiver: Receiver,
    rng: np.random.Generator | BlockUniforms,
) -> tuple[int, tuple, int, float]:
    """One full round of play, including reinforcement.

    Consumes 2 + num_senders draws of ``rng.random()``: state, each sender,
    then the receiver.  Returns (state, signal, act, reward).  Every kind's
    turn is the same: it looks up ``(read, writes) = receiver.urns[signal]``,
    draws the act from ``receiver.draw_weights(read)`` and, when rewarded,
    adds the act ball to each urn in ``writes``; no other agent method is called.
    """
    # Every draw follows ``sample_weights``, with its float operations in the
    # same order: the left-fold total, which must be finite and positive, then
    # the first running total above draw * total, the last index absorbing
    # rounding.  The state's bisects the prior's totals (``prior_cuts``); the
    # agents' are its loop written out.
    random = rng.random
    cuts, total = spec.prior_cuts
    state = bisect_right(cuts, random() * total)
    drawn = []
    symbols = []
    for sender in senders:
        table = sender.table
        row = table.entries[state]
        total = 0.0
        for w in row:
            total += w
        if not 0.0 < total < math.inf:
            raise DegenerateContextError(f"cannot sample from weights totalling {total!r}")
        r = random() * total
        acc = 0.0
        i = 0
        for w in row:
            acc += w
            if r < acc:
                break
            i += 1
        else:
            i -= 1
        drawn.append((row, i))
        symbols.append(table.options[i])
    signal = tuple(symbols)
    read, writes = receiver.urns[signal]
    row = receiver.draw_weights(read)
    total = 0.0
    for w in row:
        total += w
    if not 0.0 < total < math.inf:
        raise DegenerateContextError(f"cannot sample from weights totalling {total!r}")
    r = random() * total
    acc = 0.0
    act = 0
    for w in row:
        acc += w
        if r < acc:
            break
        act += 1
    else:
        act -= 1
    reward = spec.utility[state][act]
    if reward:
        if reward < 0:
            raise ValueError("negative reinforcement is out of scope")
        for row, i in drawn:
            row[i] += reward
        entries = receiver.table.entries
        for key in writes:
            entries[key][act] += reward
    return state, signal, act, reward


def apply_event(
    event: ReplacementEvent, senders: Sequence[Sender], receiver: Receiver
) -> None:
    senders[event.sender_index].replace_message(event.old_symbol, event.new_symbol)
    receiver.on_replacement(event.old_symbol, event.new_symbol)


def _capture(senders: Sequence[Sender], receiver: Receiver, values: list) -> tuple:
    """Append the agents' urn rows, as ``peek`` reads them, and the receiver's
    act weights for every live signal to ``values``; return the live
    alphabets.  Stores nothing in any table."""
    alphabets = tuple(tuple(sender.alphabet) for sender in senders)
    for sender in senders:
        peek = sender.table.peek
        for state in range(sender.num_states):
            values += peek(state)
    act_weights = receiver.act_weights
    for signal in itertools.product(*alphabets):
        values += act_weights(signal)
    return alphabets


def _policies(
    spec: GameSpec, receiver: Receiver, alphabets: Sequence[tuple], values: list, labels
) -> tuple[list[np.ndarray], np.ndarray]:
    """The sender conditionals, one (N, S, |M_i|) array per sender, and the
    receiver conditionals, (N, |M_1|, ..., |M_k|, A), of N stops' ``values``
    as ``_capture`` appended them; ``alphabets[n]`` is stop n's."""
    sizes = tuple(map(len, alphabets[0]))
    weights = np.array(values).reshape(len(alphabets), -1)
    conditionals = []
    start = 0
    for size in sizes:
        block = weights[:, start:start + spec.num_states * size]
        block = block.reshape(len(weights), spec.num_states, size)
        conditionals.append(normalize(block, lambda n, state: state, labels))
        start += block[0].size

    def signal_context(n, row):
        return receiver.context(list(itertools.product(*alphabets[n]))[row])

    rows = weights[:, start:].reshape(len(weights), -1, spec.num_acts)
    rho = normalize(rows, signal_context, labels)
    return conditionals, rho.reshape((len(weights),) + sizes + (spec.num_acts,))


def take_snapshot(
    spec: GameSpec, senders: Sequence[Sender], receiver: Receiver
) -> PolicySnapshot:
    """Freeze current conditional distributions over the live alphabets.

    Reading a policy never changes it: agents report unseen urns at their
    initial weights without storing them.
    """
    values = []
    alphabets = _capture(senders, receiver, values)
    conditionals, rho = _policies(spec, receiver, [alphabets], values, ("",))
    return PolicySnapshot(spec.prior_array(), alphabets, [c[0] for c in conditionals], rho[0])


def _expected_payoffs(utility: np.ndarray, joint: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Exact expected payoff per snapshot of the stacked joint and receiver
    conditionals."""
    # E[utility | state, signal], laid out like the joint: one product per
    # snapshot, since a batched one may group the dot products otherwise
    payoff = np.stack([utility @ r.reshape(-1, r.shape[-1]).T for r in rho])
    return fold(np.where(joint > 0, joint * payoff.reshape(joint.shape), 0.0))


def snapshot_expected_payoff(spec: GameSpec, snapshot: PolicySnapshot) -> float:
    """Exact expected payoff of the snapshotted policies."""
    joint, rho = snapshot.joint()[None], snapshot.receiver_conditionals[None]
    return float(_expected_payoffs(spec.utility_array(), joint, rho)[0])


def make_report(spec: GameSpec, snapshot: PolicySnapshot, turn: int, phase: str) -> InfoReport:
    return InfoReport(
        turn=turn,
        phase=phase,
        expected_payoff=snapshot_expected_payoff(spec, snapshot),
        sender_info_bits=sender_average_info(snapshot),
        receiver_info_bits=receiver_average_info(snapshot),
    )


def _measure(trajectory: Trajectory, stops: list, alphabets: list, values: list) -> None:
    """Fill the trajectory's reports and event snapshots from the rows
    ``_capture`` took at each (turn, phase) of ``stops``, in one pass."""
    spec = trajectory.config.spec
    labels = [f"turn {turn} {phase}: " for turn, phase in stops]
    conditionals, rho = _policies(spec, trajectory.receiver, alphabets, values, labels)
    prior = spec.prior_array()
    joint = stacked_joint(prior, conditionals)
    metrics = (
        _expected_payoffs(spec.utility_array(), joint, rho),
        stacked_sender_info(joint, prior, labels),
        stacked_receiver_info(joint, rho, prior, labels),
    )
    trajectory.reports = [
        InfoReport(turn, phase, *row)
        for (turn, phase), *row in zip(stops, *(m.tolist() for m in metrics))
    ]
    # copies of the event stops alone, so a snapshot keeps no other stop alive
    at = [n for n, (_, phase) in enumerate(stops) if phase != "regular"]
    conditionals, rho, joint = [c[at] for c in conditionals], rho[at], joint[at]
    for k, n in enumerate(at):
        trajectory.event_snapshots[stops[n]] = PolicySnapshot(
            prior, alphabets[n], [c[k] for c in conditionals], rho[k], joint[k]
        )


def run(config: TrajectoryConfig) -> Trajectory:
    """Execute one seeded trajectory, returning its metric reports.

    The loop steps from stop to stop.  A stop is a cadence turn, or an event
    turn, where the event fires after the turn's step and the agents are
    read on both sides of it.  A stop only copies the agents' urn rows; one
    pass after the last turn computes every report and event snapshot.
    """
    senders, receiver = config.check()
    spec = config.spec
    rng = BlockUniforms(make_rng(config.seed))
    events_by_turn = {event.turn: event for event in config.events}
    every = config.snapshot_every
    stops, alphabets, values = [], [], []

    def capture(turn: int, phase: str) -> None:
        stops.append((turn, phase))
        alphabets.append(_capture(senders, receiver, values))

    capture(0, "regular")
    turn = 0
    for stop in sorted({*range(every, config.total_turns + 1, every), *events_by_turn}):
        for _ in range(stop - turn):
            step(spec, senders, receiver, rng)
        turn = stop
        event = events_by_turn.get(stop)
        if event is None:
            capture(stop, "regular")
        else:
            capture(stop, "pre")
            apply_event(event, senders, receiver)
            capture(stop, "post")
    for _ in range(config.total_turns - turn):
        step(spec, senders, receiver, rng)

    trajectory = Trajectory(config=config, reports=[], senders=senders, receiver=receiver)
    _measure(trajectory, stops, alphabets, values)
    return trajectory


@dataclass
class AggregateRow:
    """Mean and standard deviation over a batch's runs of each of ``METRICS``."""

    turn: int
    phase: str
    mean_payoff: float
    std_payoff: float
    mean_sender_info: float
    std_sender_info: float
    mean_receiver_info: float
    std_receiver_info: float


@dataclass
class BatchResult:
    trajectories: list[Trajectory]
    aggregate: list[AggregateRow]

    def aggregate_row(self, turn: int, phase: str = "regular") -> AggregateRow:
        for row in self.aggregate:
            if row.turn == turn and row.phase == phase:
                return row
        raise KeyError(f"no aggregate row at turn {turn} phase {phase!r}")


def _run_seeded(config: TrajectoryConfig) -> Trajectory:
    """One run of a batch.  Workers get this module-level function, which
    looks ``run`` up when it is called, so a wrapped ``run`` (the benchmark's
    tracer installs a closure) need not be picklable."""
    return run(config)


def _exit_with_parent(parent: int) -> None:
    """Worker initializer: end the worker once the batch's caller is gone.

    A caller that is killed never joins its pool, and an idle worker would
    wait on the call queue for ever, since its forked siblings hold the
    queue's write end open.
    """
    import threading
    import time

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _workers(num_runs: int) -> int:
    """Processes for a batch; 1 runs it in-process.

    One more than the usable CPUs: the runs are equal in length, so with
    exactly one worker per CPU the last round of a 3-run batch on 2 CPUs
    leaves a core idle.  A caller that is itself a ``multiprocessing`` child
    runs its batch in-process: the callers are then already spread over the
    CPUs, and a daemonic pool worker may not start processes at all.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    if cpus < 2 or num_runs == 1:
        return 1
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        return 1
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(num_runs, cpus + 1)


def run_batch(config: TrajectoryConfig, num_runs: int) -> BatchResult:
    """Run trajectories on seeds seed, seed+1, ... and aggregate by turn.

    The runs are independent and each depends only on its config, so on a
    machine with two or more usable CPUs they run in forked worker processes
    and come back in seed order, the same as a loop in this process gives.
    """
    if num_runs < 1:
        raise ValueError("num_runs must be at least 1")
    config.check()  # before any fork: EventError does not survive pickling
    configs = [replace(config, seed=config.seed + i) for i in range(num_runs)]
    workers = _workers(num_runs)
    if workers == 1:
        trajectories = list(map(_run_seeded, configs))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # numpy 2 imports numpy.random on first use, which would otherwise
        # happen again in every worker of every batch
        import numpy.random

        # "fork" stated, since Python 3.14 changes the default on Linux.  On
        # an exception, ``map`` cancels the queued runs and ``with`` joins
        # every worker before it propagates.
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            workers,
            mp_context=context,
            initializer=_exit_with_parent,
            initargs=(os.getpid(),),
        ) as pool:
            trajectories = list(pool.map(_run_seeded, configs))
    # (report, metric, run): reducing the contiguous last axis sums each
    # metric's runs in the order a 1-D array of them would
    reports = [t.reports for t in trajectories]
    values = np.array([[[getattr(r, m) for r in slot] for m in METRICS] for slot in zip(*reports)])
    stats = np.stack([values.mean(axis=-1), values.std(axis=-1)], axis=-1)
    aggregate = [
        AggregateRow(report.turn, report.phase, *row)
        for report, row in zip(reports[0], stats.reshape(len(values), -1).tolist())
    ]
    return BatchResult(trajectories=trajectories, aggregate=aggregate)
