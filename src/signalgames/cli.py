"""Command-line harness: run experiment configs, write CSV/SVG artifacts,
and audit replacement outcomes against the compositional expectation.

Exit codes: 0 success, 1 experiment failure, 2 config error,
3 audit flagged non-compositional.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Optional

from .agents import Sender, receiver_from_json_dict
from .engine import (
    METRICS,
    AggregateRow,
    BatchResult,
    EventError,
    ReplacementEvent,
    Trajectory,
    TrajectoryConfig,
    apply_event,
    run_batch,
    take_snapshot,
)
from .game import GameSpec, make_atomic_game, make_two_sender_game, signal_label
from .infotheory import (
    NEG_INF,
    PolicySnapshot,
    compositional_conditionals,
    csv_cell,
    csv_text,
    info_table,
    receiver_average_info,
    signal_info,
)
from .reinforcement import SymbolCollisionError, _key_from_json, _key_parts
from .svgplot import line_chart

EXIT_OK = 0
EXIT_EXPERIMENT_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NON_COMPOSITIONAL = 3

DEFAULT_AUDIT_THRESHOLD = 0.25  # bits


class ConfigError(ValueError):
    """A config file problem, reported with its location in the document."""


@dataclass
class ExperimentConfig:
    name: str
    trajectory: TrajectoryConfig
    num_runs: int = 20
    comment: str = ""


# ---------------------------------------------------------------------------
# config parsing

# JSON keys that differ from the field names they set
_ALIASES = {"receiver_kind": "receiver"}


def _settable(cls) -> dict:
    """JSON key -> (field, type of its default) for each field of ``cls`` a
    config may set: those with a default, which an absent key keeps."""
    return {
        _ALIASES.get(f.name, f.name): (f.name, type(f.default))
        for f in fields(cls)
        if f.default is not MISSING
    }


_TRAJECTORY_FIELDS = _settable(TrajectoryConfig)
_EXPERIMENT_FIELDS = _settable(ExperimentConfig)
_EXPERIMENT_KEYS = {"name", "game"} | set(_TRAJECTORY_FIELDS) | set(_EXPERIMENT_FIELDS)
_EVENT_KEYS = {"turn", "sender", "old", "new"}

# what a config file must hold for a field of each type
_KINDS = {
    int: "an integer",
    float: "a finite number",
    bool: "a boolean",
    str: "a string",
    tuple: "a list",
}


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{where}: {message}")


def _reject_unknown(unknown: set, where: str) -> None:
    if unknown:
        raise ConfigError(f"{where}: unknown key {sorted(unknown)[0]!r}")


def _field(data: dict, key: str, kind: type, where: str):
    """``data[key]``, which must be JSON for a ``kind`` field: a list for a
    tuple, any finite number for a float (returned as a float)."""
    value = data[key]
    json_kind = {float: (int, float), tuple: list}.get(kind, kind)
    ok = isinstance(value, json_kind) and isinstance(value, bool) == (kind is bool)
    if ok and kind is float:
        value = float(value)  # json reads NaN and Infinity as floats
        ok = math.isfinite(value)
    _require(ok, f"{where}.{key}", f"must be {_KINDS[kind]}, not {json.dumps(value)}")
    return value


def _fields(data: dict, schema: dict, where: str) -> dict:
    """The keys of ``schema`` present in ``data``, checked, by field name."""
    return {
        name: _field(data, key, kind, where)
        for key, (name, kind) in schema.items()
        if key in data
    }


def _parse_game(value, where: str) -> GameSpec:
    if value is None or value == "two_sender":
        return make_two_sender_game()
    if isinstance(value, dict):
        if set(value) == {"atomic"}:
            _require(
                isinstance(value["atomic"], int) and value["atomic"] >= 2,
                where,
                "atomic game needs an integer size >= 2",
            )
            return make_atomic_game(value["atomic"])
        try:
            return GameSpec.from_json_dict(value)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: bad game spec ({exc})") from exc
    raise ConfigError(f"{where}: game must be 'two_sender', {{'atomic': n}}, or a spec dict")


def _parse_event(data, where: str) -> ReplacementEvent:
    _require(isinstance(data, dict), where, "event must be an object")
    _reject_unknown(set(data) - _EVENT_KEYS, where)
    for key in sorted(_EVENT_KEYS):
        _require(key in data, where, f"missing key {key!r}")
    return ReplacementEvent(
        turn=_field(data, "turn", int, where),
        sender_index=_field(data, "sender", int, where),
        old_symbol=_field(data, "old", str, where),
        new_symbol=_field(data, "new", str, where),
    )


def _parse_experiment(data, where: str) -> ExperimentConfig:
    _require(isinstance(data, dict), where, "experiment must be an object")
    _reject_unknown(set(data) - _EXPERIMENT_KEYS, where)
    _require("name" in data, where, "missing key 'name'")
    name = data["name"]
    _require(isinstance(name, str) and name != "", where, "name must be a non-empty string")
    # the name is the stem of every artifact written into --out
    unsafe = name in (".", "..") or any(c in name for c in ("/", "\0", os.sep, os.altsep) if c)
    _require(not unsafe, f"{where}.name", f"{name!r} is not a file name")

    spec = _parse_game(data.get("game"), f"{where}.game")
    settings = _fields(data, _TRAJECTORY_FIELDS, where)
    if "events" in settings:
        settings["events"] = tuple(
            _parse_event(e, f"{where}.events[{i}]") for i, e in enumerate(settings["events"])
        )
    trajectory = TrajectoryConfig(spec=spec, **settings)
    exp = ExperimentConfig(name, trajectory, **_fields(data, _EXPERIMENT_FIELDS, where))
    _check_experiment(exp, where, f"{where}.num_runs")
    return exp


def _check_experiment(exp: ExperimentConfig, where: str, runs_where: str) -> None:
    """Raise ``ConfigError`` at ``where`` (``runs_where`` for ``num_runs``)
    unless ``exp`` can run from turn 1 to the end."""
    try:
        exp.trajectory.check()
    except EventError as exc:
        raise ConfigError(f"{where}.events[{exc.index}]: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    _require(exp.num_runs >= 1, runs_where, "must be positive")


def _with_overrides(exp: ExperimentConfig, seed: Optional[int], runs: Optional[int]):
    """``exp`` with ``seed`` and ``runs`` (``--seed`` and ``--runs``) applied and
    checked by the rules a config file's values pass; ``exp`` if both are None."""
    if seed is None and runs is None:
        return exp
    if seed is not None:
        exp = replace(exp, trajectory=replace(exp.trajectory, seed=seed))
    if runs is not None:
        exp = replace(exp, num_runs=runs)
    _check_experiment(exp, "--seed", "--runs")
    return exp


def parse_config(path) -> list[ExperimentConfig]:
    """Load and validate a config file; unknown keys are rejected."""
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config file ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    _require(isinstance(document, dict), str(path), "top level must be an object")
    _reject_unknown(set(document) - {"experiments", "comment"}, str(path))
    _require("experiments" in document, str(path), "missing key 'experiments'")
    experiments_raw = document["experiments"]
    _require(isinstance(experiments_raw, list), f"{path}.experiments", "must be a list")
    experiments = [
        _parse_experiment(e, f"{path}.experiments[{i}]")
        for i, e in enumerate(experiments_raw)
    ]
    names = [e.name for e in experiments]
    _require(
        len(set(names)) == len(names), f"{path}.experiments", "duplicate experiment names"
    )
    return experiments


# ---------------------------------------------------------------------------
# experiment artifacts


def _runs_csv(batch: BatchResult) -> str:
    rows = [("run_id", "turn", "phase") + METRICS]
    for run_id, trajectory in enumerate(batch.trajectories):
        for report in trajectory.reports:
            cells = [csv_cell(getattr(report, metric)) for metric in METRICS]
            rows.append([run_id, report.turn, report.phase, *cells])
    return csv_text(rows)


def _aggregate_csv(batch: BatchResult) -> str:
    columns = [f.name for f in fields(AggregateRow)]
    rows = [columns]
    for row in batch.aggregate:
        # after turn and phase, a mean and a std per metric
        cells = [csv_cell(getattr(row, column)) for column in columns[2:]]
        rows.append([row.turn, row.phase, *cells])
    return csv_text(rows)


def _policy_json(trajectory: Trajectory) -> str:
    document = {
        "format": "signalgames-policy",
        "turn": trajectory.config.total_turns,
        "game": trajectory.config.spec.to_json_dict(),
        "senders": [sender.to_json_dict() for sender in trajectory.senders],
        "receiver": trajectory.receiver.to_json_dict(),
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _plot_svg(exp: ExperimentConfig, batch: BatchResult) -> str:
    xs = [row.turn for row in batch.aggregate]
    ys = [row.mean_receiver_info for row in batch.aggregate]
    return line_chart(
        "mean receiver info",
        xs,
        ys,
        title=exp.name,
        xlabel="turn",
        ylabel="average information (bits)",
        vlines=[event.turn for event in exp.trajectory.events],
    )


def run_experiment(
    exp: ExperimentConfig,
    out_dir: Path,
    num_runs: Optional[int] = None,
    seed: Optional[int] = None,
    plot: bool = True,
    dump_policy: bool = False,
) -> list[str]:
    """Run one experiment batch and write its artifacts; returns filenames."""
    exp = _with_overrides(exp, seed, num_runs)
    batch = run_batch(exp.trajectory, exp.num_runs)

    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    def emit(filename: str, text: str) -> None:
        (out_dir / filename).write_text(text, newline="")
        written.append(filename)

    emit(f"{exp.name}_runs.csv", _runs_csv(batch))
    emit(f"{exp.name}_aggregate.csv", _aggregate_csv(batch))
    # event-boundary acts tables from the first run of the batch
    first = batch.trajectories[0]
    for (turn, phase), snapshot in sorted(first.event_snapshots.items()):
        table = info_table(snapshot, rows="compound", cols="acts")
        emit(f"{exp.name}_event{turn}_{phase}_acts.csv", table.to_csv())
    if plot:
        emit(f"{exp.name}.svg", _plot_svg(exp, batch))
    if dump_policy:
        emit(f"{exp.name}_policy.json", _policy_json(first))
    return written


# ---------------------------------------------------------------------------
# audit


def _check_senders(spec: GameSpec, senders: list[dict]) -> None:
    """``ValueError`` naming ``senders[i]`` unless it is game sender i, at its
    alphabet size, holds no other sender's symbol and keys its urns by the
    game's states."""
    found = dict(enumerate((s["sender_index"], len(s["table"]["options"])) for s in senders))
    expected = dict(enumerate((i, len(a)) for i, a in enumerate(spec.sender_alphabets)))
    for i in sorted(found.keys() | expected.keys()):
        got, want = found.get(i), expected.get(i)
        if got != want:
            raise ValueError(f"senders[{i}]: (sender_index, alphabet size) is {got}, not {want}")
    owner: dict = {}
    for i, sender in enumerate(senders):
        for m in sender["table"]["options"]:
            if type(m) is not str:
                raise ValueError(f"senders[{i}].table.options: {json.dumps(m)} is not a string")
            if owner.setdefault(m, i) != i:
                raise ValueError(f"senders[{i}].table.options: {m!r} is also sender {owner[m]}'s")
        for j, entry in enumerate(sender["table"]["entries"]):
            state = entry["context"]
            if type(state) is not int or not 0 <= state < spec.num_states:
                where = f"senders[{i}].table.entries[{j}].context"
                raise ValueError(f"{where}: {json.dumps(state)} is not a state of the game")


def _check_receiver(spec: GameSpec, senders: list[Sender], receiver: dict) -> None:
    """``ValueError`` naming the ``receiver`` key at fault unless its options are
    the game's acts, it reads raw urn sums, a generalist's ``symbol_sender``
    maps each live symbol to its sender and every symbol to a game sender, and
    its urn keys are its kind's: full signals, symbols or sets of known symbols."""
    acts, options = list(range(spec.num_acts)), receiver["table"]["options"]
    if options != acts or not all(type(a) is int for a in options):
        raise ValueError(f"receiver.table.options: {options} are not the game's acts {acts}")
    if receiver.get("normalized", False) is not False:
        raise ValueError("receiver.normalized: only false, softmax over raw urn sums, is read")
    sender_of = dict(receiver.get("symbol_sender", {}))
    for m, i in sender_of.items():
        if type(i) is not int or not 0 <= i < spec.num_senders:
            raise ValueError(f"receiver.symbol_sender.{m}: {i!r} is not a sender of the game")
    for i, sender in enumerate(senders):
        for m in sender.alphabet:
            if "symbol_sender" in receiver and sender_of.get(m) != i:
                raise ValueError(f"receiver.symbol_sender.{m}: {sender_of.get(m)!r}, not {i}")
    kind = receiver.get("kind")
    fits = {
        "conventional": lambda key: type(key) is tuple and len(key) == spec.num_senders,
        "minimalist": lambda key: type(key) is str,
        "generalist": lambda key: type(key) is frozenset and key <= sender_of.keys(),
    }.get(kind, lambda key: True)
    for j, entry in enumerate(receiver["table"]["entries"]):
        key = _key_from_json(entry["context"])
        if not (fits(key) and all(type(m) is str for m in _key_parts(key))):
            context = json.dumps(entry["context"])
            raise ValueError(f"receiver.table.entries[{j}].context: {context} is not a {kind} key")


def load_policy(path) -> tuple[GameSpec, PolicySnapshot, list[Sender], object]:
    """Rebuild agents from a --dump-policy file and snapshot their policies."""
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read policy file ({exc})") from exc
    try:
        spec = GameSpec.from_json_dict(document["game"])
        _check_senders(spec, document["senders"])
        senders = [Sender.from_json_dict(spec, data) for data in document["senders"]]
        _check_receiver(spec, senders, document["receiver"])
        receiver = receiver_from_json_dict(spec, document["receiver"])
        snapshot = take_snapshot(spec, senders, receiver)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: malformed policy file ({exc})") from exc
    return spec, snapshot, senders, receiver


def _format_table(table) -> str:
    width = max(len(label) for label in table.row_labels + [""])
    header = " " * width + "  " + "  ".join(f"{c:>8}" for c in table.col_labels)
    lines = [header]
    for label, row in zip(table.row_labels, table.cells):
        cells = "  ".join(
            f"{'-inf':>8}" if v == NEG_INF else f"{v:8.3f}" for v in row
        )
        lines.append(f"{label:<{width}}  {cells}")
    return "\n".join(lines)


def audit_command(
    policy_path,
    replaced_symbol: str,
    threshold: float = DEFAULT_AUDIT_THRESHOLD,
    out=None,
) -> int:
    """Compare actual post-replacement information against the compositional
    expectation; returns the exit code."""
    out = sys.stdout if out is None else out
    if not 0.0 <= threshold < math.inf:
        raise ConfigError(f"--threshold: must be finite and at least 0, not {threshold}")
    spec, pre_snapshot, senders, receiver = load_policy(policy_path)
    symbols = [m for a in pre_snapshot.sender_alphabets for m in a]
    if replaced_symbol not in symbols:
        raise ConfigError(f"symbol {replaced_symbol!r} not in any sender alphabet")
    new_symbol = replaced_symbol + "?"
    if new_symbol in symbols:
        raise ConfigError(f"fresh symbol {new_symbol!r} is already in a sender alphabet")
    # a retired symbol's urns outlive it; reading them would fake a fresh symbol
    if receiver.table.uses(new_symbol):
        raise ConfigError(f"fresh symbol {new_symbol!r} is already in a receiver urn")
    sender_index = pre_snapshot.sender_of(replaced_symbol)

    event = ReplacementEvent(0, sender_index, replaced_symbol, new_symbol)
    try:
        apply_event(event, senders, receiver)
        post_snapshot = take_snapshot(spec, senders, receiver)
    except SymbolCollisionError as exc:
        raise ConfigError(f"fresh symbol {new_symbol!r} is already in use ({exc})") from exc
    except ValueError as exc:  # the fresh symbol's urns read the file's initial weight
        raise ConfigError(f"{policy_path}: malformed policy file ({exc})") from exc

    expected_snapshot = compositional_conditionals(pre_snapshot, replaced_symbol, new_symbol)
    actual = info_table(post_snapshot, rows="compound", cols="acts")
    expected = info_table(expected_snapshot, rows="compound", cols="acts")

    print(f"replacing {replaced_symbol!r} with fresh symbol {new_symbol!r}", file=out)
    print("\nactual post-replacement information about acts (bits):", file=out)
    print(_format_table(actual), file=out)
    print("\ncompositional expectation (bits):", file=out)
    print(_format_table(expected), file=out)

    # per-row average transmitted info, actual vs expected
    prior = post_snapshot.state_prior
    num_acts = post_snapshot.num_acts
    print("\nper-signal transmitted info, actual vs expected (bits):", file=out)
    for (sig, q), actual_row, expected_row in zip(
        expected_snapshot.signal_marginal().items(),
        post_snapshot.receiver_conditionals.reshape(-1, num_acts),
        expected_snapshot.receiver_conditionals.reshape(-1, num_acts),
    ):
        actual_bits = signal_info(actual_row, prior) if q > 0 else 0.0
        expected_bits = signal_info(expected_row, prior) if q > 0 else 0.0
        label = signal_label(sig)
        print(
            f"  {label:<16} actual {actual_bits:6.3f}  expected {expected_bits:6.3f}"
            f"  delta {actual_bits - expected_bits:+6.3f}",
            file=out,
        )

    actual_avg = receiver_average_info(post_snapshot)
    expected_avg = receiver_average_info(expected_snapshot)
    gap = expected_avg - actual_avg
    print(
        f"\naverage transmitted info: actual {actual_avg:.4f}, "
        f"expected {expected_avg:.4f}, gap {gap:.4f} bits "
        f"(threshold {threshold:g})",
        file=out,
    )
    if gap > threshold:
        print("verdict: NON-COMPOSITIONAL (more information lost than expected)", file=out)
        return EXIT_NON_COMPOSITIONAL
    print("verdict: compositional within threshold", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signalgames",
        description="Run urn-learning signaling game experiments and audits.",
    )
    parser.add_argument("--config", type=Path, help="experiment config JSON file")
    parser.add_argument("--experiment", help="run only the named experiment")
    parser.add_argument("--runs", type=int, help="override num_runs for every experiment")
    parser.add_argument("--seed", type=int, help="override the base seed")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--no-plot", dest="plot", action="store_false")
    parser.add_argument(
        "--dump-policy",
        action="store_true",
        help="write final-turn agent snapshots as JSON",
    )
    parser.add_argument("--audit", metavar="POLICY", type=Path, help="policy JSON to audit")
    parser.add_argument("--replace", metavar="SYMBOL", help="symbol replaced in the audit")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_AUDIT_THRESHOLD,
        help="audit gap threshold in bits (default %(default)s)",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.audit is not None:
            if not args.replace:
                parser.error("--audit requires --replace SYMBOL")
            return audit_command(args.audit, args.replace, args.threshold)

        if args.config is None:
            parser.error("either --config or --audit is required")
        experiments = parse_config(args.config)
        if args.experiment is not None:
            experiments = [e for e in experiments if e.name == args.experiment]
            if not experiments:
                raise ConfigError(f"no experiment named {args.experiment!r}")
        experiments = [_with_overrides(e, args.seed, args.runs) for e in experiments]
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: cannot create output directory ({exc})") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    manifest: dict[str, list[str]] = {}
    failed = False
    for exp in experiments:
        try:
            manifest[exp.name] = run_experiment(
                exp,
                args.out,
                plot=args.plot,
                dump_policy=args.dump_policy,
            )
            print(f"{exp.name}: wrote {len(manifest[exp.name])} artifacts")
        except Exception as exc:  # keep going; partial outputs stay on disk
            failed = True
            manifest[exp.name] = [f"FAILED: {exc}"]
            print(f"{exp.name}: FAILED ({exc})", file=sys.stderr)
    (args.out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return EXIT_EXPERIMENT_FAILURE if failed else EXIT_OK


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
