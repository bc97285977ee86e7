"""Golden behaviour pins: byte-level digests of run CSVs and choice sequences.

Each figure config is rescaled the same way for every version of the
package, run from seed 0, and hashed.  A refactor that keeps these digests
keeps the run CSVs byte-identical and every per-turn (state, signal, act)
choice unchanged.  A change that must move a digest says so and why.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from signalgames import cli, engine
from signalgames.game import GameSpec, make_two_sender_game

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FIGURE_CONFIGS = {
    "conventional": "fig2_conventional.json",
    "minimalist": "fig3_minimalist.json",
    "generalist_erasing": "fig4_generalist_erasing.json",
    "generalist_preserving": "fig5_generalist_preserving.json",
}

# SHA-256 of <name>_runs.csv at 2 runs x 2,000 turns, event at turn 1,000,
# snapshot_every 100, seed 0.  Both conventional-choice receivers coincide:
# the erasing generalist acts exactly as the conventional receiver does.
RUNS_CSV_DIGESTS = {
    "conventional": "b304063fe3c9983023f5cdf73f8b8fd4e1559fa9507749659ba8dc0494dd0e23",
    "minimalist": "7d4b3ba911fa2941c9125b710c6363da87121f7af138bce8e6ee51c3130b81af",
    "generalist_erasing": "b304063fe3c9983023f5cdf73f8b8fd4e1559fa9507749659ba8dc0494dd0e23",
    "generalist_preserving": "4c1010602625f8f98206f707a9bad03ddd3c8ab9fbbab383f3fb2451ffa78dbd",
}

# SHA-256 of <name>_policy.json from the runs above (--dump-policy): the urn
# tables as they come back from the batch's worker processes.  The minimalist
# dump moved once, when the receiver lost its normalized-score setting: its
# only change is that the line '"normalized": false,' is gone.
POLICY_DUMP_DIGESTS = {
    "conventional": "4e221bbbb40efb066325e2c3e94426ce2462ed1841924b78a2f2e9429f0066fd",
    "minimalist": "fd962fd177aa269c54fd959783b700dfe1ff269a55446e9fac9e5bffa0edcd4d",
    "generalist_erasing": "ed828bf975833fd5ce0f3c3c58f5f3f2e7dcd21cb923edba3c48ee72f2f8bbe0",
    "generalist_preserving": "0cd08eee5cb4dd1a8a03df391f3eb3fb67085f7273895c83aa364879b42d4a85",
}

# SHA-256 of float.hex() of every report's payoff, sender and receiver info
# in the runs above: the metrics bit for bit, beyond the CSVs' 12 digits.
REPORT_BITS_DIGESTS = {
    "conventional": "44c77a58a4770d433559865576dbf8258bc6a77718d8405d011a238cbf1a0743",
    "minimalist": "95b27aa666c53999fcec54acdbd326fb088a9021bba80432bd3cab57e43c16cf",
    "generalist_erasing": "44c77a58a4770d433559865576dbf8258bc6a77718d8405d011a238cbf1a0743",
    "generalist_preserving": "edc652830e068f70321fa4427679c314f999645c6b439feaa6146586b5fca7ba",
}

# SHA-256 of <name>_aggregate.csv at 20 runs (the figures' batch size) x
# 1,000 turns, event at turn 500, snapshot_every 100, seed 0.  From 9 runs on,
# numpy's mean and std sum pairwise, so these pin that summation order too.
AGGREGATE_CSV_DIGESTS = {
    "conventional": "36fcd0d05589a2af6eac8a3dbaf41da8301144402a586d3ba50e060a9d6dc193",
    "minimalist": "652a547b929ca9792a8b24c512f804d0e4cf58b600f06b8853e8328274afaa2a",
    "generalist_erasing": "36fcd0d05589a2af6eac8a3dbaf41da8301144402a586d3ba50e060a9d6dc193",
    "generalist_preserving": "a3de4c45cc250557e1f59a02b281f95295b809bf27de08e21d76d1a83987ff4e",
}

# SHA-256 of the "state,signal,act" lines of one 5,000-turn run, event at
# turn 2,500, seed 0.
CHOICE_DIGESTS = {
    "conventional": "0bdf48bbba599de66e124ae6f6e9353bae5af696bf17b967b0bf326851072120",
    "minimalist": "b9d38a7ddcb1f552a724159125f22f368441fbe21486bd3c293b6fd06b1492f6",
    "generalist_erasing": "0bdf48bbba599de66e124ae6f6e9353bae5af696bf17b967b0bf326851072120",
    "generalist_preserving": "6ae0ed88d77d4ded90583a1ca25b40710bec7017c1934fd9eb5bba004a9fd02c",
}


def scaled_config(tmp_path, kind, turns, runs, snapshot_every):
    """The committed figure config at ``turns``, its event at the midpoint."""
    document = json.loads((CONFIG_DIR / FIGURE_CONFIGS[kind]).read_text())
    (experiment,) = document["experiments"]
    (event,) = experiment["events"]
    experiment.update(
        total_turns=turns,
        snapshot_every=snapshot_every,
        num_runs=runs,
        seed=0,
        events=[dict(event, turn=turns // 2)],
    )
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps({"experiments": [experiment]}))
    return path


def choice_digest(config) -> str:
    """SHA-256 of the per-turn choices of ``engine.run(config)``."""
    hasher = hashlib.sha256()
    step = engine.step

    def hashing_step(*args):
        state, signal, act, reward = step(*args)
        hasher.update(f"{state},{'|'.join(signal)},{act}\n".encode())
        return state, signal, act, reward

    engine.step = hashing_step
    try:
        engine.run(config)
    finally:
        engine.step = step
    return hasher.hexdigest()


@pytest.mark.parametrize("kind", sorted(FIGURE_CONFIGS))
def test_runs_csv_digest(tmp_path, kind):
    path = scaled_config(tmp_path, kind, turns=2_000, runs=2, snapshot_every=100)
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--out", str(out), "--no-plot"]) == cli.EXIT_OK
    (csv,) = out.glob("*_runs.csv")
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == RUNS_CSV_DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(FIGURE_CONFIGS))
def test_policy_dump_digest(tmp_path, kind):
    path = scaled_config(tmp_path, kind, turns=2_000, runs=2, snapshot_every=100)
    out = tmp_path / "out"
    argv = ["--config", str(path), "--out", str(out), "--no-plot", "--dump-policy"]
    assert cli.main(argv) == cli.EXIT_OK
    (policy,) = out.glob("*_policy.json")
    assert hashlib.sha256(policy.read_bytes()).hexdigest() == POLICY_DUMP_DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(FIGURE_CONFIGS))
def test_aggregate_csv_digest(tmp_path, kind):
    path = scaled_config(tmp_path, kind, turns=1_000, runs=20, snapshot_every=100)
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--out", str(out), "--no-plot"]) == cli.EXIT_OK
    (csv,) = out.glob("*_aggregate.csv")
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == AGGREGATE_CSV_DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(FIGURE_CONFIGS))
def test_report_bits_digest(tmp_path, kind):
    path = scaled_config(tmp_path, kind, turns=2_000, runs=2, snapshot_every=100)
    (experiment,) = cli.parse_config(path)
    batch = engine.run_batch(experiment.trajectory, experiment.num_runs)
    hasher = hashlib.sha256()
    for trajectory in batch.trajectories:
        for r in trajectory.reports:
            values = (r.expected_payoff, r.sender_info_bits, r.receiver_info_bits)
            hasher.update(",".join(map(float.hex, values)).encode() + b"\n")
    assert hasher.hexdigest() == REPORT_BITS_DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(FIGURE_CONFIGS))
def test_choice_sequence_digest(tmp_path, kind):
    path = scaled_config(tmp_path, kind, turns=5_000, runs=1, snapshot_every=5_000)
    (experiment,) = cli.parse_config(path)
    assert choice_digest(experiment.trajectory) == CHOICE_DIGESTS[kind]


# SHA-256 of the choices of one 3,000-turn preserving run, seed 0, with
# events at turns 3 and 10: early events extend urns that arrived but were
# never rewarded, which only alpha != 1 tells apart from unseen ones.
PRESERVING_ALPHA_DIGESTS = {
    0.5: "1f19cbfdef49e18ecdf1d53248dd395800ad42585364ed1851c59889f6c124ba",
    3.0: "c7a89f21fd558b1c1be5dab8bd81d9948532704caf39a0f3664b1b26eb871618",
}


@pytest.mark.parametrize("alpha", sorted(PRESERVING_ALPHA_DIGESTS))
def test_preserving_alpha_choice_digest(alpha):
    config = engine.TrajectoryConfig(
        spec=make_two_sender_game(),
        receiver_kind="generalist",
        introduction_mode="preserving",
        alpha=alpha,
        total_turns=3_000,
        events=(
            engine.ReplacementEvent(3, 1, "mB0", "mB?"),
            engine.ReplacementEvent(10, 0, "mA1", "mA?"),
        ),
        snapshot_every=3_000,
        seed=0,
    )
    assert choice_digest(config) == PRESERVING_ALPHA_DIGESTS[alpha]


RECEIVERS = (
    dict(receiver_kind="conventional"),
    dict(receiver_kind="minimalist", temperature=2000.0),
    dict(receiver_kind="generalist", introduction_mode="erasing"),
    dict(receiver_kind="generalist", introduction_mode="preserving"),
)


@settings(max_examples=24, deadline=None)
@given(
    receiver=st.sampled_from(RECEIVERS),
    seed=st.integers(0, 2**16),
    snapshot_every=st.integers(1, 60),
)
def test_choices_do_not_depend_on_snapshots(receiver, seed, snapshot_every):
    # reading a policy never changes it, so observing more often changes nothing
    config = engine.TrajectoryConfig(
        spec=make_two_sender_game(),
        total_turns=240,
        events=(engine.ReplacementEvent(120, 1, "mB0", "mB?"),),
        snapshot_every=240,
        seed=seed,
        **receiver,
    )
    sparse = choice_digest(config)
    assert choice_digest(replace(config, snapshot_every=snapshot_every)) == sparse


# A game the figure configs miss: three senders with alphabets of 2, 3 and 2
# symbols, 3 states and acts, a non-uniform prior, a partial-credit utility,
# and events on two different senders.
THREE_SENDER_GAME = GameSpec(
    num_states=3,
    sender_alphabets=(("x0", "x1"), ("y0", "y1", "y2"), ("z0", "z1")),
    num_acts=3,
    state_prior=(0.5, 0.3, 0.2),
    utility=((1.0, 0.0, 0.5), (0.0, 1.0, 0.0), (0.25, 0.0, 1.0)),
)

# SHA-256 of the choices of one 2,000-turn run, seed 0, events at turns 600
# (sender 1) and 1,300 (sender 2).  The erasing generalist again acts as the
# conventional receiver does.
THREE_SENDER_RECEIVERS = {
    "conventional": dict(receiver_kind="conventional"),
    "minimalist": dict(receiver_kind="minimalist", temperature=50.0),
    "generalist_erasing": dict(receiver_kind="generalist", introduction_mode="erasing"),
    "generalist_preserving": dict(receiver_kind="generalist", introduction_mode="preserving"),
    "generalist_preserving_alpha_0.5": dict(
        receiver_kind="generalist", introduction_mode="preserving", alpha=0.5
    ),
}
THREE_SENDER_DIGESTS = {
    "conventional": "3c47b99a761131a09a2a0ad129b758254ed4d34807ac9c07070dec0538527272",
    "minimalist": "869238e449a9b55347bcf01833ee1117322a8ca18fd820f6b98c35680f9dbbba",
    "generalist_erasing": "3c47b99a761131a09a2a0ad129b758254ed4d34807ac9c07070dec0538527272",
    "generalist_preserving": "79ceb8355fc784a8888a836bcb92e3bf36ad52af8d69b41585adf69d4e5ed0d3",
    "generalist_preserving_alpha_0.5": "b7d6e03a1d7e4c7aba17d2b7c2a69ef6ca2441e5806aa8d9a0a04f7c0e42f2d8",
}


@pytest.mark.parametrize("name", sorted(THREE_SENDER_RECEIVERS))
def test_three_sender_choice_digest(name):
    config = engine.TrajectoryConfig(
        spec=THREE_SENDER_GAME,
        total_turns=2_000,
        events=(
            engine.ReplacementEvent(600, 1, "y1", "y1?"),
            engine.ReplacementEvent(1_300, 2, "z0", "z0?"),
        ),
        snapshot_every=2_000,
        seed=0,
        **THREE_SENDER_RECEIVERS[name],
    )
    assert choice_digest(config) == THREE_SENDER_DIGESTS[name]
