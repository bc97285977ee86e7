"""Output checks and behaviour digests; nothing here is timed.

A trajectory fails when it raised, when any report is non-finite or out of
range (payoff outside [0, 1], an info outside [0, log2 |S|]), or when the
analytic payoff or information at an event snapshot or the final snapshot
differs from the brute-force oracle by more than ``ORACLE_TOL``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import tempfile
from pathlib import Path

ORACLE_TOL = 1e-9
RANGE_TOL = 1e-9


def _in_range(value: float, top: float) -> bool:
    return math.isfinite(value) and -RANGE_TOL <= value <= top + RANGE_TOL


def _oracle_problems(spec, report, snapshot) -> list[str]:
    from signalgames.oracle import enumerate_outcomes, oracle_metrics

    metrics = oracle_metrics(enumerate_outcomes(spec, snapshot))
    pairs = (
        ("payoff", report.expected_payoff, metrics.expected_payoff),
        ("sender info", report.sender_info_bits, metrics.sender_average_info),
        ("receiver info", report.receiver_info_bits, metrics.receiver_average_info),
    )
    return [
        f"turn {report.turn} {report.phase}: {what} {got!r} vs oracle {want!r}"
        for what, got, want in pairs
        if not abs(got - want) <= ORACLE_TOL
    ]


def trajectory_problems(trajectory, audit=()) -> list[str]:
    """Every way a finished trajectory (and its audit values) is wrong."""
    from signalgames.engine import take_snapshot

    config = trajectory.config
    spec = config.spec
    top = math.log2(spec.num_states)
    problems = []
    for r in trajectory.reports:
        if not _in_range(r.expected_payoff, 1.0):
            problems.append(f"turn {r.turn} {r.phase}: payoff {r.expected_payoff!r}")
        for what, value in (("sender", r.sender_info_bits), ("receiver", r.receiver_info_bits)):
            if not _in_range(value, top):
                problems.append(f"turn {r.turn} {r.phase}: {what} info {value!r}")
    by_key = {(r.turn, r.phase): r for r in trajectory.reports}
    for key, snapshot in sorted(trajectory.event_snapshots.items()):
        problems += _oracle_problems(spec, by_key[key], snapshot)
    final = trajectory.reports[-1]
    if final.turn != config.total_turns:
        problems.append(f"last report at turn {final.turn}, not {config.total_turns}")
    else:
        # Snapshotting the finished agents again reads the same policies.
        snapshot = take_snapshot(spec, trajectory.senders, trajectory.receiver)
        problems += _oracle_problems(spec, final, snapshot)
    for expected, actual in audit:
        if not (_in_range(expected, top) and _in_range(actual, top)):
            problems.append(f"audit values out of range: {expected!r}, {actual!r}")
    return problems


def outcome(trajectory, audit=()) -> tuple:
    """Everything a repeated unit must reproduce exactly."""
    return (
        [(r.turn, r.phase, r.expected_payoff, r.sender_info_bits, r.receiver_info_bits)
         for r in trajectory.reports],
        list(audit),
    )


# -- behaviour digests ------------------------------------------------------


def figures_digests(paths: dict[str, Path], scratch: Path) -> dict[str, str]:
    """SHA-256 of each config's ``*_runs.csv`` as written by ``cli.main``."""
    from signalgames import cli

    digests = {}
    for kind, path in paths.items():
        (experiment,) = cli.parse_config(path)
        with tempfile.TemporaryDirectory(dir=scratch) as out:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["--config", str(path), "--out", out])
            csv = Path(out) / f"{experiment.name}_runs.csv"
            digests[kind] = (
                hashlib.sha256(csv.read_bytes()).hexdigest() if code == 0 else "failed"
            )
    return digests


def learn_digests(paths: dict[str, Path]) -> dict[str, str]:
    """SHA-256 of each trajectory's per-turn (state, signal, act) sequence,
    read from the results of ``engine.step``."""
    from signalgames import cli, engine

    step = engine.step
    digests = {}
    for kind, path in paths.items():
        (experiment,) = cli.parse_config(path)
        hasher = hashlib.sha256()

        def hashing_step(*args):
            state, signal, act, reward = step(*args)
            hasher.update(f"{state},{'|'.join(signal)},{act}\n".encode())
            return state, signal, act, reward

        engine.step = hashing_step
        try:
            engine.run(experiment.trajectory)
            digests[kind] = hasher.hexdigest()
        except Exception as exc:  # reported as a mismatch, not a crash
            digests[kind] = f"raised {type(exc).__name__}"
        finally:
            engine.step = step
    return digests
