import csv
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from signalgames.cli import (
    ConfigError,
    EXIT_CONFIG_ERROR,
    EXIT_NON_COMPOSITIONAL,
    EXIT_OK,
    ExperimentConfig,
    audit_command,
    load_policy,
    main,
    parse_config,
)
from signalgames.engine import TrajectoryConfig
from signalgames.svgplot import line_chart

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, experiments, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"experiments": experiments}))
    return path


def tiny_experiment(**overrides):
    exp = {
        "name": "tiny",
        "receiver": "conventional",
        "total_turns": 400,
        "snapshot_every": 100,
        "num_runs": 2,
        "seed": 0,
        "events": [{"turn": 200, "sender": 1, "old": "mB0", "new": "mB?"}],
    }
    exp.update(overrides)
    return exp


# -- parsing ----------------------------------------------------------------


def test_bundled_configs_parse():
    for name in (
        "fig2_conventional.json",
        "fig3_minimalist.json",
        "fig4_generalist_erasing.json",
        "fig5_generalist_preserving.json",
    ):
        experiments = parse_config(CONFIG_DIR / name)
        assert len(experiments) == 1
        exp = experiments[0]
        assert exp.trajectory.total_turns == 100_000
        assert exp.trajectory.events[0].turn == 50_000
        assert exp.num_runs == 20
    minimalist = parse_config(CONFIG_DIR / "fig3_minimalist.json")[0]
    assert minimalist.trajectory.receiver_kind == "minimalist"
    assert minimalist.trajectory.temperature == 2000.0


def test_parse_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, [tiny_experiment(funky=1)])
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "funky" in str(err.value)
    assert "experiments[0]" in str(err.value)


def test_parse_rejects_negative_turns(tmp_path):
    path = write_config(tmp_path, [tiny_experiment(total_turns=-5)])
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "total_turns" in str(err.value)


def test_parse_reports_json_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"experiments": [\n  {"name" "oops"}\n]}')
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "line 2" in str(err.value)


def test_parse_rejects_duplicate_names(tmp_path):
    path = write_config(tmp_path, [tiny_experiment(), tiny_experiment()])
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_atomic_game(tmp_path):
    path = write_config(
        tmp_path, [tiny_experiment(game={"atomic": 3}, events=[])]
    )
    exp = parse_config(path)[0]
    assert exp.trajectory.spec.num_states == 3


BAD_EVENTS = {
    "same-turn": [
        {"turn": 200, "sender": 1, "old": "mB0", "new": "mB?"},
        {"turn": 200, "sender": 0, "old": "mA0", "new": "mA?"},
    ],
    "bad-sender": [
        {"turn": 100, "sender": 0, "old": "mA0", "new": "mA?"},
        {"turn": 200, "sender": 5, "old": "mB0", "new": "mB?"},
    ],
    "old-not-live": [
        {"turn": 100, "sender": 1, "old": "mB0", "new": "mB?"},
        {"turn": 200, "sender": 1, "old": "mB0", "new": "mBx"},
    ],
    "new-in-use": [
        {"turn": 100, "sender": 0, "old": "mA0", "new": "mA?"},
        {"turn": 200, "sender": 1, "old": "mB0", "new": "mA?"},
    ],
}


@pytest.mark.parametrize("case", sorted(BAD_EVENTS))
def test_run_rejects_bad_event(tmp_path, capsys, case):
    path = write_config(tmp_path, [tiny_experiment(events=BAD_EVENTS[case])])
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert "experiments[0].events[1]:" in capsys.readouterr().err
    assert not out.exists()  # rejected before the first turn


def overflowing_alpha() -> dict:
    # figure 5 with alpha 1e308: the copies at the event overflow
    (exp,) = json.loads((CONFIG_DIR / "fig5_generalist_preserving.json").read_text())["experiments"]
    exp.update(alpha=1e308, total_turns=2000, num_runs=2)
    exp["events"][0]["turn"] = 1000
    return exp


def overflowing_utility() -> dict:
    # two rewards of 1e308 on one urn overflow
    game = {
        "num_states": 2,
        "sender_alphabets": [["m0", "m1"]],
        "num_acts": 2,
        "state_prior": [0.5, 0.5],
        "utility": [[1e308, 0], [0, 1e308]],
    }
    return {"name": "huge", "game": game, "total_turns": 500}


@pytest.mark.parametrize(
    "experiment, key",
    [(overflowing_alpha(), "alpha"), (overflowing_utility(), "game.utility")],
    ids=["alpha", "utility"],
)
def test_run_rejects_urn_weights_that_could_overflow(tmp_path, capsys, experiment, key):
    # such a run used to stop halfway, unable to sample from an infinite total
    path = write_config(tmp_path, [experiment])
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert f"experiments[0]: {key}: urn weights could total inf" in capsys.readouterr().err
    assert not out.exists()  # rejected before the first turn


def test_run_rejects_preserving_copies_that_could_round_to_zero(tmp_path, capsys):
    # the copy for {mA?, mB?} is alpha ** 2, about 1e-340, which rounds to 0:
    # this run used to fail after it started, unable to sample from a total of 0
    events = [
        {"turn": 10, "sender": 1, "old": "mB0", "new": "mB?"},
        {"turn": 20, "sender": 0, "old": "mA0", "new": "mA?"},
    ]
    experiment = tiny_experiment(
        receiver="generalist", introduction_mode="preserving", alpha=1e-170, events=events
    )
    path = write_config(tmp_path, [experiment])
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert "experiments[0]: alpha: copies could weigh 1e-170 ** 2" in capsys.readouterr().err
    assert not out.exists()  # rejected before the first turn


def test_urn_weight_bound_accepts_the_benchmark_churn_schedules(tmp_path, monkeypatch):
    # about 100 chained events, preserving at alpha 1 among them
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", CONFIG_DIR.parent / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    for seed in range(3):
        documents = workloads.generate("churn", seed, CONFIG_DIR)
        for path in workloads.write_documents(documents, tmp_path / str(seed)).values():
            (exp,) = parse_config(path)
            assert len(exp.trajectory.events) > 90


# JSON key -> (a value a config may give, the field it sets, that field's
# value, a wrongly typed value), for every setting a config file can make
SETTINGS = {
    "receiver": ("minimalist", "trajectory.receiver_kind", "minimalist", 1),
    "temperature": (50, "trajectory.temperature", 50.0, "hot"),
    "introduction_mode": ("preserving", "trajectory.introduction_mode", "preserving", None),
    "alpha": (2, "trajectory.alpha", 2.0, True),
    "total_turns": (300, "trajectory.total_turns", 300, 300.0),
    "events": ([], "trajectory.events", (), {}),
    "snapshot_every": (50, "trajectory.snapshot_every", 50, "50"),
    "seed": (7, "trajectory.seed", 7, 1.5),
    "num_runs": (3, "num_runs", 3, True),
    "comment": ("why", "comment", "why", ["why"]),
}
# the settings whose wrongly typed value no case below names already
WRONGLY_TYPED = sorted(set(SETTINGS) - {"temperature", "seed"})


@pytest.mark.parametrize(
    "overrides, key_path",
    [
        ({"temperature": "hot"}, "experiments[0].temperature"),
        # json writes and reads these as NaN and Infinity
        ({"temperature": float("nan")}, "experiments[0].temperature"),
        ({"alpha": float("inf")}, "experiments[0].alpha"),
        ({"seed": "a"}, "experiments[0].seed"),
        (
            {"events": [{"turn": "5", "sender": 1, "old": "mB0", "new": "mB?"}]},
            "experiments[0].events[0].turn",
        ),
    ]
    + [({key: SETTINGS[key][3]}, f"experiments[0].{key}") for key in WRONGLY_TYPED],
    ids=["temperature", "temperature-nan", "alpha-infinite", "seed", "event-turn"]
    + WRONGLY_TYPED,
)
def test_run_rejects_wrongly_typed_field(tmp_path, capsys, overrides, key_path):
    path = write_config(tmp_path, [tiny_experiment(**overrides)])
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    assert f"{key_path}: must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"receiver": "minimalist", "temperature": 0}, "temperature must be positive"),
        ({"receiver": "minimalist", "temperature": -3.5}, "temperature must be positive"),
        ({"receiver": "generalist", "introduction_mode": "forgetting"}, "unknown introduction mode"),
        (
            {"receiver": "generalist", "introduction_mode": "preserving", "alpha": 0},
            "alpha must be positive",
        ),
        ({"receiver": "transformer"}, "unknown receiver kind"),
        ({"seed": -1}, "seed must be non-negative"),
    ],
    ids=["temperature-zero", "temperature-negative", "introduction-mode", "alpha", "kind", "seed"],
)
def test_run_rejects_bad_setting(tmp_path, capsys, overrides, message):
    path = write_config(tmp_path, [tiny_experiment(**overrides)])
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert f"experiments[0]: {message}" in capsys.readouterr().err
    assert not out.exists()  # rejected before the first turn


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "--seed: seed must be non-negative"),
        (["--runs", "0"], "--runs: must be positive"),
    ],
    ids=["seed", "runs"],
)
def test_run_rejects_bad_override(tmp_path, capsys, flags, message):
    path = write_config(tmp_path, [tiny_experiment()])
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)] + flags) == EXIT_CONFIG_ERROR
    assert message in capsys.readouterr().err
    assert not out.exists()  # rejected before the first turn


def test_settings_cover_every_settable_field():
    settable = {
        f.name
        for cls in (TrajectoryConfig, ExperimentConfig)
        for f in fields(cls)
        if f.default is not MISSING
    }
    assert {path.split(".")[-1] for _, path, _, _ in SETTINGS.values()} == settable


@pytest.mark.parametrize("key", sorted(SETTINGS))
def test_parse_accepts_setting(tmp_path, key):
    value, path, expected, _ = SETTINGS[key]
    (exp,) = parse_config(write_config(tmp_path, [tiny_experiment(**{key: value})]))
    parsed = exp
    for name in path.split("."):
        parsed = getattr(parsed, name)
    assert parsed == expected and type(parsed) is type(expected)


def test_parse_rejects_unreadable_file(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(tmp_path)  # a directory
    assert str(tmp_path) in str(err.value)
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps({"experiments": []}).encode("utf-16-le"))
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "game",
    [
        {"state_prior": [float("nan"), float("nan")]},
        {"state_prior": [1.0, 0.0]},
        {"utility": [[1, -1], [-1, 1]]},
        {"utility": [[1, float("nan")], [0, 1]]},
        # acts are read against the state prior; this game used to fail at its
        # first snapshot ("operands could not be broadcast"), exit 1
        {"num_acts": 3, "utility": [[1, 0, 0], [0, 1, 0]]},
        {"state_prior": [1.0]},
        {"sender_alphabets": [["m0", "m1"], []]},
        {"utility": [[1, 0]]},
        # a string where a list belongs used to be read as its characters,
        # and these three ran with exit 0
        {"utility": ["10", "01"]},
        {"sender_alphabets": ["m0"]},
        {"sender_alphabets": "ab"},
        # int() of JSON's Infinity used to fail as an OverflowError, exit 1
        {"num_states": float("inf")},
        # int() used to read these as 2, and the game ran with exit 0
        {"num_states": 2.7},
        {"num_acts": "2"},
        {"num_states": True, "num_acts": True},
    ],
    ids=[
        "prior-nan",
        "prior-zero",
        "utility-negative",
        "utility-nan",
        "acts-not-states",
        "prior-length",
        "empty-alphabet",
        "utility-shape",
        "utility-row-string",
        "alphabet-string",
        "alphabets-string",
        "states-infinite",
        "states-fraction",
        "acts-string",
        "sizes-true",
    ],
)
def test_run_rejects_game_that_cannot_run(tmp_path, capsys, game):
    spec = {
        "num_states": 2,
        "sender_alphabets": [["m0", "m1"]],
        "num_acts": 2,
        "state_prior": [0.5, 0.5],
        "utility": [[1, 0], [0, 1]],
    }
    experiment = tiny_experiment(game=dict(spec, **game), total_turns=300, events=[])
    path = write_config(tmp_path, [experiment])
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert "experiments[0].game: " in capsys.readouterr().err
    assert not out.exists()  # rejected before the first turn


@pytest.mark.parametrize(
    "sizes, where",
    [
        ({"num_states": 2.7}, "num_states must be an integer, not 2.7"),
        ({"num_acts": "2"}, "num_acts must be an integer, not '2'"),
        # read as 1 state and 1 act, this used to blame the prior's length
        ({"num_states": True, "num_acts": True}, "num_states must be an integer, not True"),
    ],
    ids=["states-fraction", "acts-string", "sizes-true"],
)
def test_game_sizes_must_be_integers(tmp_path, capsys, sizes, where):
    spec = {
        "num_states": 2,
        "sender_alphabets": [["m0", "m1"]],
        "num_acts": 2,
        "state_prior": [0.5, 0.5],
        "utility": [[1, 0], [0, 1]],
    }
    experiment = tiny_experiment(game=dict(spec, **sizes), events=[])
    path = write_config(tmp_path, [experiment])
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    assert f"experiments[0].game: bad game spec ({where})" in capsys.readouterr().err


def test_audit_rejects_game_size_that_is_not_an_integer(tmp_path, capsys):
    # int() used to read 4.0 as 4, and the audit ran
    path = dump_tiny_policy(tmp_path, total_turns=500)
    policy = json.loads(path.read_text())
    policy["game"]["num_states"] = 4.0
    path.write_text(json.dumps(policy))
    capsys.readouterr()
    assert main(["--audit", str(path), "--replace", "mA0"]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "malformed policy file (num_states must be an integer, not 4.0)" in err


NO_SENDER = {
    "num_states": 2,
    "sender_alphabets": [],
    "num_acts": 2,
    "state_prior": [0.5, 0.5],
    "utility": [[1, 0], [0, 1]],
}


def test_run_rejects_a_game_with_no_sender(tmp_path, capsys):
    # this used to fail at the urn-weight bound with a TypeError, exit 1
    experiment = tiny_experiment(game=NO_SENDER, events=[])
    path = write_config(tmp_path, [experiment])
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "experiments[0].game: bad game spec (sender_alphabets is empty: the game has no sender)" in err


def test_audit_rejects_a_game_with_no_sender(tmp_path, capsys):
    # this used to fail in the joint distribution with an IndexError, exit 1
    code, err = audit_rewritten_policy(
        tmp_path, capsys, lambda policy: policy.update(game=NO_SENDER, senders=[])
    )
    assert code == EXIT_CONFIG_ERROR
    assert "malformed policy file (sender_alphabets is empty: the game has no sender)" in err


# JSON values that used to load as other types: str(null) is 'None', float("0.5")
# reads a string and float(true) is 1.0
MISTYPED_GAME = [
    ({"sender_alphabets": [[None, "m1"]]}, "sender_alphabets[0][0] must be a string, not None"),
    ({"sender_alphabets": [["m0", True]]}, "sender_alphabets[0][1] must be a string, not True"),
    ({"state_prior": ["0.5", "0.5"]}, "state_prior[0] must be a number, not '0.5'"),
    ({"utility": [[1, 0], [False, True]]}, "utility[1][0] must be a number, not False"),
]


@pytest.mark.parametrize(
    "game, where", MISTYPED_GAME, ids=["symbol-null", "symbol-true", "prior-string", "utility-bool"]
)
def test_run_rejects_game_values_of_the_wrong_json_type(tmp_path, capsys, game, where):
    spec = {
        "num_states": 2,
        "sender_alphabets": [["m0", "m1"]],
        "num_acts": 2,
        "state_prior": [0.5, 0.5],
        "utility": [[1, 0], [0, 1]],
    }
    experiment = tiny_experiment(game=dict(spec, **game), events=[])
    path = write_config(tmp_path, [experiment])
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    assert f"experiments[0].game: bad game spec ({where})" in capsys.readouterr().err


@pytest.mark.parametrize(
    "game, where",
    [
        ({"sender_alphabets": [["mA0", None], ["mB0", "mB1"]]}, "sender_alphabets[0][1]"),
        ({"state_prior": [0.25, 0.25, 0.25, "0.25"]}, "state_prior[3]"),
        ({"utility": [[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}, "utility[0][0]"),
    ],
    ids=["symbol-null", "prior-string", "utility-bool"],
)
def test_audit_rejects_game_values_of_the_wrong_json_type(tmp_path, capsys, game, where):
    code, err = audit_rewritten_policy(tmp_path, capsys, lambda policy: policy["game"].update(game))
    assert code == EXIT_CONFIG_ERROR
    assert f"malformed policy file ({where} must be a " in err


# -- run command ------------------------------------------------------------


def test_run_writes_artifacts(tmp_path):
    path = write_config(tmp_path, [tiny_experiment()])
    out = tmp_path / "out"
    code = main(["--config", str(path), "--out", str(out), "--dump-policy"])
    assert code == EXIT_OK
    assert (out / "tiny_runs.csv").exists()
    assert (out / "tiny_aggregate.csv").exists()
    assert (out / "tiny_event200_pre_acts.csv").exists()
    assert (out / "tiny_event200_post_acts.csv").exists()
    assert (out / "tiny.svg").exists()
    assert (out / "tiny_policy.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "tiny" in manifest
    header = (out / "tiny_runs.csv").read_text().splitlines()[0]
    assert header == "run_id,turn,phase,expected_payoff,sender_info_bits,receiver_info_bits"


def test_run_determinism_byte_identical(tmp_path):
    path = write_config(tmp_path, [tiny_experiment()])
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["--config", str(path), "--runs", "1", "--seed", "42", "--out", str(out1)]) == EXIT_OK
    assert main(["--config", str(path), "--runs", "1", "--seed", "42", "--out", str(out2)]) == EXIT_OK
    for name in ("tiny_runs.csv", "tiny_aggregate.csv", "tiny.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_no_plot(tmp_path):
    path = write_config(tmp_path, [tiny_experiment()])
    out = tmp_path / "out"
    assert main(["--config", str(path), "--no-plot", "--out", str(out)]) == EXIT_OK
    assert not (out / "tiny.svg").exists()


@pytest.mark.parametrize("key", ["normalized_scores", "plot"])
def test_run_rejects_removed_setting(tmp_path, capsys, key):
    path = write_config(tmp_path, [tiny_experiment(**{key: False})])
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert f"experiments[0]: unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()  # rejected before the first turn


def test_run_rejects_plot_flag(tmp_path, capsys):
    path = write_config(tmp_path, [tiny_experiment()])
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main(["--config", str(path), "--out", str(out), "--plot"])
    assert exit_.value.code == EXIT_CONFIG_ERROR
    assert "unrecognized arguments: --plot" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_out_that_is_a_file(tmp_path, capsys):
    path = write_config(tmp_path, [tiny_experiment()])
    out = tmp_path / "afile"
    out.write_text("")
    assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "config error: --out: cannot create output directory" in err
    assert "FAILED" not in err  # rejected before the first turn


@pytest.mark.parametrize("name", ["a/b", "../escaped", ".", ".."])
def test_run_rejects_name_that_is_not_a_file_name(tmp_path, capsys, name):
    path = write_config(tmp_path, [tiny_experiment(name=name)])
    out = tmp_path / "work" / "out"
    assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert f"experiments[0].name: {name!r} is not a file name" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]  # nothing written


def test_run_quotes_table_labels_that_hold_a_comma(tmp_path):
    event = {"turn": 200, "sender": 1, "old": "mB0", "new": "mB,x"}
    path = write_config(tmp_path, [tiny_experiment(events=[event])])
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--no-plot"]) == EXIT_OK
    tables = {}
    for phase in ("pre", "post"):
        text = (out / f"tiny_event200_{phase}_acts.csv").read_text()
        tables[phase] = list(csv.reader(io.StringIO(text)))
        assert len(tables[phase]) == 5
        assert all(len(row) == 1 + 4 for row in tables[phase])  # label, a0 ... a3
    assert '\n"mA0 & mB,x",' in (out / "tiny_event200_post_acts.csv").read_text()
    labels = [row[0] for row in tables["post"][1:]]
    assert labels == ["mA0 & mB,x", "mA0 & mB1", "mA1 & mB,x", "mA1 & mB1"]


def test_run_unknown_experiment_name(tmp_path):
    path = write_config(tmp_path, [tiny_experiment()])
    assert main(["--config", str(path), "--experiment", "nope"]) == EXIT_CONFIG_ERROR


def test_run_missing_config_file(tmp_path):
    assert main(["--config", str(tmp_path / "absent.json")]) == EXIT_CONFIG_ERROR


# -- policy dump and audit --------------------------------------------------


def dump_tiny_policy(tmp_path, total_turns=20_000):
    # a well-trained conventional policy, no replacement yet
    path = write_config(
        tmp_path,
        [
            tiny_experiment(
                total_turns=total_turns,
                snapshot_every=max(total_turns, 1),
                events=[],
                num_runs=1,
            )
        ],
    )
    out = tmp_path / "dump"
    assert main(["--config", str(path), "--no-plot", "--dump-policy", "--out", str(out)]) == EXIT_OK
    return out / "tiny_policy.json"


def test_policy_round_trip(tmp_path):
    policy = dump_tiny_policy(tmp_path, total_turns=500)
    spec, snapshot, senders, receiver = load_policy(policy)
    assert spec.num_states == 4
    assert abs(snapshot.state_prior.sum() - 1.0) < 1e-9
    for matrix in snapshot.sender_conditionals:
        assert abs(matrix.sum(axis=1) - 1.0).max() < 1e-9
    assert abs(snapshot.receiver_conditionals.sum(axis=-1) - 1.0).max() < 1e-9


def test_policy_dump_independent_of_string_hashing(tmp_path):
    # frozenset urn keys iterate in string-hash order; the dump must not
    path = write_config(
        tmp_path,
        [
            tiny_experiment(
                receiver="generalist",
                introduction_mode="preserving",
                total_turns=600,
                events=[{"turn": 300, "sender": 1, "old": "mB0", "new": "mB?"}],
                num_runs=1,
            )
        ],
    )
    src = Path(__file__).resolve().parent.parent / "src"
    dumps = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"out{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        command = [sys.executable, "-m", "signalgames.cli", "--config", str(path)]
        command += ["--out", str(out), "--no-plot", "--dump-policy"]
        subprocess.run(command, env=env, check=True, capture_output=True)
        dumps.append((out / "tiny_policy.json").read_bytes())
    assert dumps[0] == dumps[1]
    receiver = json.loads(dumps[0])["receiver"]
    assert any("mB?" in json.dumps(entry) for entry in receiver["table"]["entries"])


def test_audit_converged_conventional_flags(tmp_path, capsys):
    policy = dump_tiny_policy(tmp_path)
    code = audit_command(policy, "mB0")
    out = capsys.readouterr().out
    assert code == EXIT_NON_COMPOSITIONAL
    assert "NON-COMPOSITIONAL" in out
    assert "compositional expectation" in out


def test_audit_fresh_policy_not_flagged(tmp_path, capsys):
    policy = dump_tiny_policy(tmp_path, total_turns=0)
    code = audit_command(policy, "mB0")
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "gap 0.0000" in out


def test_audit_minimalist_policy_not_flagged(tmp_path, capsys):
    # a minimalist policy keeps the other sender's information: small gap
    path = write_config(
        tmp_path,
        [
            tiny_experiment(
                name="mini",
                receiver="minimalist",
                temperature=50.0,
                total_turns=20_000,
                snapshot_every=20_000,
                events=[],
                num_runs=1,
            )
        ],
    )
    out = tmp_path / "dump"
    assert main(["--config", str(path), "--no-plot", "--dump-policy", "--out", str(out)]) == EXIT_OK
    code = audit_command(out / "mini_policy.json", "mB0")
    assert code in (EXIT_OK, EXIT_NON_COMPOSITIONAL)


def test_audit_unknown_symbol(tmp_path):
    policy = dump_tiny_policy(tmp_path, total_turns=100)
    with pytest.raises(ConfigError):
        audit_command(policy, "zzz")


@pytest.mark.parametrize(
    "events, replaced",
    [
        # the fresh symbol mB0? is in sender 1's alphabet
        ([("mB1", "mB0?")], "mB0"),
        # the fresh symbol mB1? was retired; the generalist still knows it
        ([("mB0", "mB1?"), ("mB1?", "z")], "mB1"),
    ],
    ids=["in-alphabet", "retired"],
)
def test_audit_fresh_symbol_in_use(tmp_path, capsys, events, replaced):
    path = write_config(
        tmp_path,
        [
            tiny_experiment(
                receiver="generalist",
                introduction_mode="preserving",
                events=[
                    {"turn": 100 * (i + 1), "sender": 1, "old": old, "new": new}
                    for i, (old, new) in enumerate(events)
                ],
                num_runs=1,
            )
        ],
    )
    out = tmp_path / "dump"
    assert main(["--config", str(path), "--no-plot", "--dump-policy", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    policy = out / "tiny_policy.json"
    assert main(["--audit", str(policy), "--replace", replaced]) == EXIT_CONFIG_ERROR
    assert f"fresh symbol '{replaced}?' is already in" in capsys.readouterr().err


@pytest.mark.parametrize("receiver", ["conventional", "minimalist"])
def test_audit_fresh_symbol_in_stale_urn(tmp_path, capsys, receiver):
    # mB1? is retired at turn 3,000, but the receiver keeps the urns it
    # learned for it; reading them as a fresh symbol's would report 1.886 bits
    path = write_config(
        tmp_path,
        [
            tiny_experiment(
                receiver=receiver,
                total_turns=4_000,
                snapshot_every=1_000,
                events=[
                    {"turn": 2_000, "sender": 1, "old": "mB0", "new": "mB1?"},
                    {"turn": 3_000, "sender": 1, "old": "mB1?", "new": "z"},
                ],
                num_runs=1,
            )
        ],
    )
    out = tmp_path / "dump"
    assert main(["--config", str(path), "--no-plot", "--dump-policy", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    policy = out / "tiny_policy.json"
    assert main(["--audit", str(policy), "--replace", "mB1"]) == EXIT_CONFIG_ERROR
    assert "fresh symbol 'mB1?' is already in a receiver urn" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1"])
def test_audit_rejects_bad_threshold(tmp_path, capsys, threshold):
    policy = dump_tiny_policy(tmp_path, total_turns=100)
    capsys.readouterr()
    argv = ["--audit", str(policy), "--replace", "mA0", "--threshold", threshold]
    assert main(argv) == EXIT_CONFIG_ERROR
    assert "--threshold: must be finite and at least 0" in capsys.readouterr().err


def short_receiver_row(policy):
    policy["receiver"]["table"]["entries"][0]["weights"] = [1.0, 1.0, 1.0]


def negative_sender_row(policy):
    policy["senders"][0]["table"]["entries"][0]["weights"] = [-5.0, 1.0]


def repeated_sender_options(policy):
    policy["senders"][0]["table"]["options"] = ["mA0", "mA0"]


@pytest.mark.parametrize(
    "corrupt", [short_receiver_row, negative_sender_row, repeated_sender_options]
)
def test_audit_rejects_malformed_policy(tmp_path, capsys, corrupt):
    path = dump_tiny_policy(tmp_path, total_turns=500)
    policy = json.loads(path.read_text())
    corrupt(policy)
    path.write_text(json.dumps(policy))
    capsys.readouterr()
    assert main(["--audit", str(path), "--replace", "mA0"]) == EXIT_CONFIG_ERROR
    assert f"{path}: malformed policy file" in capsys.readouterr().err


def test_audit_reads_symbol_sender_pairs(tmp_path, capsys):
    # policy files before symbol_sender became an object held [symbol, sender] pairs
    path = write_config(
        tmp_path,
        [tiny_experiment(receiver="generalist", introduction_mode="preserving", num_runs=1)],
    )
    out = tmp_path / "dump"
    assert main(["--config", str(path), "--no-plot", "--dump-policy", "--out", str(out)]) == EXIT_OK
    path = out / "tiny_policy.json"
    policy = json.loads(path.read_text())
    assert policy["receiver"]["symbol_sender"] == {"mA0": 0, "mA1": 0, "mB0": 1, "mB1": 1, "mB?": 1}
    capsys.readouterr()
    code = main(["--audit", str(path), "--replace", "mA0"])
    report = capsys.readouterr().out
    policy["receiver"]["symbol_sender"] = sorted(policy["receiver"]["symbol_sender"].items())
    path.write_text(json.dumps(policy))
    assert main(["--audit", str(path), "--replace", "mA0"]) == code
    assert capsys.readouterr().out == report


def test_audit_cli_exit_code(tmp_path):
    policy = dump_tiny_policy(tmp_path)
    assert main(["--audit", str(policy), "--replace", "mB0"]) == EXIT_NON_COMPOSITIONAL


# -- svg --------------------------------------------------------------------


def test_line_chart_deterministic_svg():
    xs = list(range(0, 1000, 100))
    ys = [x / 500 for x in xs]
    svg1 = line_chart("info", xs, ys, vlines=[500])
    svg2 = line_chart("info", xs, ys, vlines=[500])
    assert svg1 == svg2
    assert svg1.startswith("<svg")
    assert "stroke-dasharray" in svg1  # the event marker
    with pytest.raises(ValueError):
        line_chart("empty", [], [])


# -- the policy's senders are the game's senders ----------------------------


def dump_figure_policy(tmp_path, figure="fig2_conventional"):
    # a figure config at 1 run x 4,000 turns, its event (mB0 -> mB?) at turn 2,000
    document = json.loads((CONFIG_DIR / f"{figure}.json").read_text())
    (experiment,) = document["experiments"]
    (event,) = experiment["events"]
    experiment.update(
        total_turns=4_000, num_runs=1, snapshot_every=1_000, events=[dict(event, turn=2_000)]
    )
    path = write_config(tmp_path, [experiment])
    out = tmp_path / "dump"
    assert main(["--config", str(path), "--no-plot", "--dump-policy", "--out", str(out)]) == EXIT_OK
    return out / f"{figure}_policy.json"


def audit_rewritten_policy(tmp_path, capsys, rewrite, figure="fig2_conventional", replaced="mA0"):
    path = dump_figure_policy(tmp_path, figure)
    policy = json.loads(path.read_text())
    rewrite(policy)
    path.write_text(json.dumps(policy))
    capsys.readouterr()
    code = main(["--audit", str(path), "--replace", replaced])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def test_audit_rejects_policy_cut_to_one_sender(tmp_path, capsys):
    # this policy used to audit as "gap 0.0000 ... compositional", exit 0
    code, err = audit_rewritten_policy(
        tmp_path, capsys, lambda policy: policy.update(senders=policy["senders"][:1])
    )
    assert code == EXIT_CONFIG_ERROR
    assert "malformed policy file (senders[1]: " in err


def test_audit_rejects_policy_with_senders_reversed(tmp_path, capsys):
    # so did this one
    code, err = audit_rewritten_policy(
        tmp_path, capsys, lambda policy: policy.update(senders=policy["senders"][::-1])
    )
    assert code == EXIT_CONFIG_ERROR
    assert "malformed policy file (senders[0]: " in err


def add_sender(policy):
    extra = json.loads(json.dumps(policy["senders"][1]))
    extra["sender_index"] = 2
    extra["table"]["options"] = ["mC0", "mC1"]
    policy["senders"].append(extra)


def misnumber_sender(policy):
    policy["senders"][1]["sender_index"] = 0


def shrink_alphabet(policy):
    table = policy["senders"][1]["table"]
    table["options"] = table["options"][:1]
    for entry in table["entries"]:
        entry["weights"] = entry["weights"][:1]


@pytest.mark.parametrize(
    "rewrite, where",
    [(add_sender, "senders[2]"), (misnumber_sender, "senders[1]"), (shrink_alphabet, "senders[1]")],
    ids=["sender-count", "sender-index", "alphabet-size"],
)
def test_audit_rejects_policy_senders_unlike_the_game(tmp_path, capsys, rewrite, where):
    code, err = audit_rewritten_policy(tmp_path, capsys, rewrite)
    assert code == EXIT_CONFIG_ERROR
    assert f"malformed policy file ({where}: " in err
    with pytest.raises(ConfigError, match=rf"{re.escape(where)}: \(sender_index, alphabet size\)"):
        load_policy(tmp_path / "dump" / "fig2_conventional_policy.json")


def share_a_symbol(policy):
    policy["senders"][1]["table"]["options"] = ["mA1", "mB1"]


def test_audit_rejects_a_symbol_held_by_two_senders(tmp_path, capsys):
    # this policy used to audit as "gap 0.1986 ... compositional", exit 0
    code, err = audit_rewritten_policy(tmp_path, capsys, share_a_symbol)
    assert code == EXIT_CONFIG_ERROR
    assert "malformed policy file (senders[1].table.options: 'mA1' is also sender 0's)" in err


# -- the policy's receiver is the game's and its senders' --------------------


def cut_acts(policy):
    table = policy["receiver"]["table"]
    table["options"] = table["options"][:3]
    for entry in table["entries"]:
        entry["weights"] = entry["weights"][:3]


def reverse_acts(policy):
    policy["receiver"]["table"]["options"] = [3, 2, 1, 0]


def label_acts(policy):
    policy["receiver"]["table"]["options"] = ["a", "b", "c", "d"]


def float_acts(policy):
    policy["receiver"]["table"]["options"] = [0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize(
    "rewrite",
    [cut_acts, reverse_acts, label_acts, float_acts],
    ids=["three-acts", "reversed", "labels", "floats"],
)
def test_audit_rejects_receiver_options_other_than_the_acts(tmp_path, capsys, rewrite):
    # three acts used to fail as a numpy traceback, exit 1; the others loaded
    code, err = audit_rewritten_policy(tmp_path, capsys, rewrite)
    assert code == EXIT_CONFIG_ERROR
    assert "malformed policy file (receiver.table.options: " in err


def three_acts_game(policy):
    cut_acts(policy)
    game = policy["game"]
    game["num_acts"] = 3
    game["utility"] = [row[:3] for row in game["utility"]]


def test_audit_rejects_policy_whose_acts_are_not_its_states(tmp_path, capsys):
    # this policy used to fail as a numpy traceback from info_table, exit 1
    code, err = audit_rewritten_policy(tmp_path, capsys, three_acts_game)
    assert code == EXIT_CONFIG_ERROR
    assert "malformed policy file (num_acts is 3, not num_states 4)" in err


def reassign_symbol(policy):
    policy["receiver"]["symbol_sender"]["mA0"] = 1


def forget_symbol(policy):
    del policy["receiver"]["symbol_sender"]["mB1"]


def add_symbol_of_no_sender(policy):
    policy["receiver"]["symbol_sender"]["zz"] = 7


@pytest.mark.parametrize(
    "rewrite, symbol",
    [(reassign_symbol, "mA0"), (forget_symbol, "mB1"), (add_symbol_of_no_sender, "zz")],
    ids=["other-sender", "missing", "no-such-sender"],
)
def test_audit_rejects_symbol_sender_unlike_the_senders(tmp_path, capsys, rewrite, symbol):
    # these used to exit 3, exit 1 with a KeyError, and exit 0
    code, err = audit_rewritten_policy(
        tmp_path, capsys, rewrite, "fig5_generalist_preserving", "mB1"
    )
    assert code == EXIT_CONFIG_ERROR
    assert f"malformed policy file (receiver.symbol_sender.{symbol}: " in err


def test_audit_reads_retired_symbols_in_symbol_sender(tmp_path):
    path = dump_figure_policy(tmp_path, "fig5_generalist_preserving")
    assert json.loads(path.read_text())["receiver"]["symbol_sender"]["mB0"] == 1  # retired
    assert main(["--audit", str(path), "--replace", "mB1"]) == EXIT_OK


def test_audit_reads_minimalist_policy_that_records_normalized_false(tmp_path, capsys):
    # minimalist policy files used to record "normalized": false
    path = dump_figure_policy(tmp_path, "fig3_minimalist")
    capsys.readouterr()
    code = main(["--audit", str(path), "--replace", "mB1"])
    report = capsys.readouterr().out
    policy = json.loads(path.read_text())
    assert "normalized" not in policy["receiver"]
    policy["receiver"]["normalized"] = False
    path.write_text(json.dumps(policy))
    assert main(["--audit", str(path), "--replace", "mB1"]) == code
    assert capsys.readouterr().out == report


def test_audit_rejects_minimalist_policy_with_normalized_scores(tmp_path, capsys):
    code, err = audit_rewritten_policy(
        tmp_path,
        capsys,
        lambda policy: policy["receiver"].update(normalized=True),
        "fig3_minimalist",
        "mB1",
    )
    assert code == EXIT_CONFIG_ERROR
    assert "malformed policy file (receiver.normalized: " in err


# -- the policy's symbols and urn keys have the shapes the agents read ------


@pytest.mark.parametrize(
    "sender, symbol", [(0, 7), (0, None), (0, 1.5), (0, True), (1, 7)], ids=str
)
def test_audit_rejects_sender_symbol_that_is_not_a_string(tmp_path, capsys, sender, symbol):
    # these used to fail as a TypeError in the audit's row labels, exit 1
    def rewrite(policy):
        policy["senders"][sender]["table"]["options"][1] = symbol

    code, err = audit_rewritten_policy(tmp_path, capsys, rewrite)
    assert code == EXIT_CONFIG_ERROR
    where = f"senders[{sender}].table.options"
    assert f"malformed policy file ({where}: {json.dumps(symbol)} is not a string)" in err


@pytest.mark.parametrize(
    "figure, context",
    [
        # a generalist key is a set of symbols; these used to fail as a
        # TypeError in the preserving introduction, exit 1
        ("fig5_generalist_preserving", "mA0"),
        ("fig5_generalist_preserving", 7),
        ("fig5_generalist_preserving", None),
        ("fig5_generalist_preserving", True),
        ("fig5_generalist_preserving", {"tuple": ["mA0"]}),
        # a symbol no sender has held; this used to audit with exit 0
        ("fig5_generalist_preserving", {"set": ["mA0", "zz"]}),
        # a conventional key is a full signal and a minimalist key a symbol;
        # these used to load, their urns unread
        ("fig2_conventional", {"tuple": ["mA0"]}),
        ("fig2_conventional", {"tuple": ["mA0", 7]}),
        ("fig2_conventional", {"tuple": [{"tuple": ["mA0"]}, "mB0"]}),
        ("fig2_conventional", {"set": ["mA0", "mB0"]}),
        ("fig3_minimalist", {"tuple": ["mA0", "mB0"]}),
        ("fig3_minimalist", 7),
    ],
    ids=[
        "generalist-symbol",
        "generalist-int",
        "generalist-null",
        "generalist-true",
        "generalist-tuple",
        "generalist-unknown-symbol",
        "conventional-one-slot",
        "conventional-int-slot",
        "conventional-nested",
        "conventional-set",
        "minimalist-tuple",
        "minimalist-int",
    ],
)
def test_audit_rejects_urn_key_unlike_its_receiver(tmp_path, capsys, figure, context):
    def rewrite(policy):
        policy["receiver"]["table"]["entries"][0]["context"] = context

    code, err = audit_rewritten_policy(tmp_path, capsys, rewrite, figure)
    assert code == EXIT_CONFIG_ERROR
    kind = figure.split("_")[1]
    where = "receiver.table.entries[0].context"
    assert f"malformed policy file ({where}: {json.dumps(context)} is not a {kind} key)" in err


@pytest.mark.parametrize("context", ["zz", 4, -1, True, {"tuple": [0]}], ids=str)
def test_audit_rejects_sender_urn_key_that_is_not_a_state(tmp_path, capsys, context):
    # with "zz", the sender-0 urn of state 0 (weights [1.0, 320.0]) used to go
    # unread, state 0 read uniform, and the audit flagged the misread policy
    path = dump_tiny_policy(tmp_path, total_turns=3_000)
    policy = json.loads(path.read_text())
    entry = policy["senders"][0]["table"]["entries"][0]
    assert (entry["context"], entry["weights"]) == (0, [1.0, 320.0])
    entry["context"] = context
    path.write_text(json.dumps(policy))
    capsys.readouterr()
    assert main(["--audit", str(path), "--replace", "mA0"]) == EXIT_CONFIG_ERROR
    where = "senders[0].table.entries[0].context"
    message = f"malformed policy file ({where}: {json.dumps(context)} is not a state of the game)"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("agent", ["sender", "receiver"])
def test_audit_rejects_urn_context_given_twice(tmp_path, capsys, agent):
    # the last copy used to replace the first, and the audit read it
    path = dump_tiny_policy(tmp_path, total_turns=3_000)
    policy = json.loads(path.read_text())
    table = (policy["senders"][0] if agent == "sender" else policy["receiver"])["table"]
    first = table["entries"][0]
    table["entries"].append(dict(first, weights=[w + 5.0 for w in first["weights"]]))
    path.write_text(json.dumps(policy))
    capsys.readouterr()
    assert main(["--audit", str(path), "--replace", "mA0"]) == EXIT_CONFIG_ERROR
    message = f"malformed policy file (context {first['context']} appears twice)"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "figure, path, value",
    [
        ("fig2_conventional", ("senders", 0, "table", "entries", 0, "weights", 1), "1.5"),
        ("fig2_conventional", ("receiver", "table", "entries", 0, "weights", 0), True),
        ("fig2_conventional", ("receiver", "table", "initial_weight"), True),
        ("fig2_conventional", ("senders", 1, "table", "initial_weight"), "1"),
        ("fig3_minimalist", ("receiver", "temperature"), True),
        ("fig5_generalist_preserving", ("receiver", "alpha"), True),
    ],
    ids=["weight-string", "weight-true", "initial-weight-true", "initial-weight-string",
         "temperature", "alpha"],
)
def test_audit_rejects_a_number_field_that_is_not_a_number(tmp_path, capsys, figure, path, value):
    # float() and ``not x > 0`` took all but "1", and the audit read them with
    # exit 0 or 3; "1" failed with a message that named no key
    def rewrite(policy):
        node = policy
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    code, err = audit_rewritten_policy(tmp_path, capsys, rewrite, figure)
    assert code == EXIT_CONFIG_ERROR
    key = next(k for k in reversed(path) if isinstance(k, str))
    assert f"malformed policy file ({key} must be a number, not {value!r})" in err


@pytest.mark.parametrize("index", [True, 1.0], ids=str)
def test_audit_rejects_a_sender_index_that_is_not_an_integer(tmp_path, capsys, index):
    # true audited as sender 1, since (True, 2) == (1, 2); 1.0 failed as a
    # TypeError that named no key
    code, err = audit_rewritten_policy(
        tmp_path, capsys, lambda policy: policy["senders"][1].update(sender_index=index)
    )
    assert code == EXIT_CONFIG_ERROR
    where = f"senders[1]: (sender_index, alphabet size) is ({index!r}, 2), not (1, 2)"
    assert f"malformed policy file ({where})" in err


@pytest.mark.parametrize("weight, total", [(0, "0.0"), (1e308, "inf")])
def test_audit_rejects_initial_weight_that_a_fresh_urn_cannot_read(tmp_path, capsys, weight, total):
    # a fresh symbol's urns hold the initial weight; these used to fail after
    # the replacement, as a DegenerateContextError and a ValueError, exit 1
    def rewrite(policy):
        policy["receiver"]["table"]["initial_weight"] = weight

    code, err = audit_rewritten_policy(tmp_path, capsys, rewrite)
    assert code == EXIT_CONFIG_ERROR
    assert f"malformed policy file (weights for context ('mA0?', 'mB?') total {total})" in err
