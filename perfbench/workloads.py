"""Workload inputs and one timed unit of work per workload.

Inputs are config files generated from the workload seed and written under
the run's scratch directory; the program sees only those files (parsed by
``cli.parse_config``) and the events inside them.  A unit is a fixed amount
of work: the benchmark repeats identical units for the measured seconds.

* ``figures``: the four committed figure configs at reduced turns, several
  seeds each, through ``cli.main`` into a temporary directory.  The event
  stays at the midpoint and ``snapshot_every`` stays 100, so snapshots,
  metrics, aggregation, event tables and CSV/SVG writing all run in the
  proportions a figure reproduction has.
* ``learn``: one long trajectory per figure config through ``engine.run``,
  with snapshots only at turn 0, around the midpoint event and at the end.
  It isolates the per-turn learning path; a single run per config leaves
  nothing for a batch-across-runs engine to share.
* ``churn``: all four receiver configs with a replacement every few hundred
  turns and sparse regular snapshots.  Events alternate sender and slot and
  chain fresh names; after each run the compositional audit is computed from
  the event snapshots.  This is where urn contexts are written and relabelled
  alongside reads, and where stale generalist contexts pile up.

Events always sit on distinct turns, as in the paper's schedules: the engine
keys events by turn and silently keeps only the last of two events that share
a turn (a known engine defect that is left to its own fix).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

FIGURE_CONFIGS = (
    ("conventional", "fig2_conventional.json"),
    ("minimalist", "fig3_minimalist.json"),
    ("generalist_erasing", "fig4_generalist_erasing.json"),
    ("generalist_preserving", "fig5_generalist_preserving.json"),
)

# Unit sizes.  Each unit takes roughly 1-2 s on one core of a 2-core x86 VM
# (Xeon, 2.1 GHz), so a measured run repeats it several times.
FIGURES_TURNS = 6_000
FIGURES_RUNS = 3
LEARN_TURNS = 30_000
CHURN_TURNS = 20_000
CHURN_SNAPSHOT_EVERY = 4_000
CHURN_EVERY = 200  # mean turns between events
CHURN_JITTER = 50


@dataclass
class Unit:
    """Outcome of one unit: per-config times, trajectories and side outputs.

    ``wall_s`` is the sum of the per-config times, so the benchmark's own
    bookkeeping between configs (temporary directories, byte counts) is not
    charged to the program.
    """

    wall_s: float
    config_s: dict[str, float]
    trajectories: dict[str, list]  # kind -> trajectories; empty if it raised
    audits: dict[str, list] = field(default_factory=dict)
    bytes_written: int = 0
    failed_configs: dict[str, int] = field(default_factory=dict)


def _base_experiment(configs_dir: Path, filename: str) -> dict:
    document = json.loads((configs_dir / filename).read_text())
    (experiment,) = document["experiments"]
    return experiment


def _figure_experiment(base: dict, turns: int, runs: int, snapshot_every: int, seed: int) -> dict:
    """A committed figure config rescaled to ``turns``, event kept at the midpoint."""
    experiment = dict(base)
    (event,) = base["events"]
    experiment.update(
        total_turns=turns,
        snapshot_every=snapshot_every,
        num_runs=runs,
        seed=seed,
        events=[dict(event, turn=turns // 2)],
    )
    experiment.pop("comment", None)
    return experiment


def churn_events(rng: random.Random, turns: int) -> list[dict]:
    """Replacement schedule: distinct turns, alternating sender and slot.

    Event k fires within ``CHURN_JITTER`` turns of (k + 1) * ``CHURN_EVERY``,
    so every seed gets the same number of events on distinct, increasing
    turns, all before ``turns``.  It replaces slot (k // 2) % 2 of sender
    k % 2 with a fresh name that chains the original one (``mA0~0``,
    ``mA0~4``, ...).
    """
    live = [["mA0", "mA1"], ["mB0", "mB1"]]
    events = []
    for k in range(turns // CHURN_EVERY - 1):
        sender, slot = k % 2, (k // 2) % 2
        old = live[sender][slot]
        new = f"{old.split('~')[0]}~{k}"
        live[sender][slot] = new
        turn = (k + 1) * CHURN_EVERY + rng.randint(-CHURN_JITTER, CHURN_JITTER)
        events.append({"turn": turn, "sender": sender, "old": old, "new": new})
    return events


def generate(workload: str, seed: int, configs_dir: Path) -> dict[str, dict]:
    """Config documents for a workload, keyed by receiver kind."""
    rng = random.Random(seed)
    documents = {}
    for kind, filename in FIGURE_CONFIGS:
        base = _base_experiment(configs_dir, filename)
        config_seed = rng.getrandbits(31)
        if workload == "figures":
            experiment = _figure_experiment(base, FIGURES_TURNS, FIGURES_RUNS, 100, config_seed)
        elif workload == "learn":
            experiment = _figure_experiment(base, LEARN_TURNS, 1, LEARN_TURNS, config_seed)
        elif workload == "churn":
            experiment = _figure_experiment(base, CHURN_TURNS, 1, CHURN_SNAPSHOT_EVERY, config_seed)
            experiment["events"] = churn_events(rng, CHURN_TURNS)  # run ends on a regular snapshot
        else:
            raise ValueError(f"unknown workload {workload!r}")
        documents[kind] = {"experiments": [experiment]}
    return documents


def reference_documents(configs_dir: Path) -> dict[str, dict[str, dict]]:
    """Fixed small inputs for the behaviour digests, independent of --seed."""

    def scaled(turns: int, runs: int, snapshot_every: int) -> dict[str, dict]:
        return {
            kind: {"experiments": [_figure_experiment(
                _base_experiment(configs_dir, filename), turns, runs, snapshot_every, 0)]}
            for kind, filename in FIGURE_CONFIGS
        }

    return {"figures": scaled(2_000, 2, 100), "learn": scaled(5_000, 1, 5_000)}


def write_documents(documents: dict[str, dict], directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for kind, document in documents.items():
        path = directory / f"{kind}.json"
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        paths[kind] = path
    return paths


# -- units ------------------------------------------------------------------


def run_figures(paths: dict[str, Path], experiments: dict, scratch: Path) -> Unit:
    """Each config through ``cli.main``; batches captured for the checks."""
    from signalgames import cli

    captured: dict[str, object] = {}
    run_batch = cli.run_batch

    def capturing_run_batch(config, num_runs):
        batch = run_batch(config, num_runs)
        captured["batch"] = batch
        return batch

    config_s, trajectories, failed_configs = {}, {}, {}
    bytes_written = 0
    cli.run_batch = capturing_run_batch
    try:
        for kind, path in paths.items():
            out = Path(tempfile.mkdtemp(dir=scratch))
            captured.clear()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(["--config", str(path), "--out", str(out)])
            except Exception:  # cli.main should catch these itself; count them
                code = None
            config_s[kind] = time.perf_counter() - t0
            if code != 0 or "batch" not in captured:
                failed_configs[kind] = experiments[kind].num_runs
                trajectories[kind] = []
            else:
                trajectories[kind] = captured["batch"].trajectories
            bytes_written += sum(p.stat().st_size for p in out.iterdir())
            shutil.rmtree(out)
    finally:
        cli.run_batch = run_batch
    return Unit(
        wall_s=sum(config_s.values()),
        config_s=config_s,
        trajectories=trajectories,
        bytes_written=bytes_written,
        failed_configs=failed_configs,
    )


def run_trajectories(experiments: dict, audit: bool) -> Unit:
    """One ``engine.run`` per config; with ``audit``, the per-event audit too."""
    from signalgames import engine, infotheory

    config_s, trajectories, audits, failed_configs = {}, {}, {}, {}
    for kind, experiment in experiments.items():
        t0 = time.perf_counter()
        try:
            trajectory = engine.run(experiment.trajectory)
            values = []
            if audit:
                for event in experiment.trajectory.events:
                    pre = trajectory.event_snapshots[(event.turn, "pre")]
                    post = trajectory.event_snapshots[(event.turn, "post")]
                    values.append((
                        infotheory.compositional_expected_average(
                            pre, event.old_symbol, event.new_symbol),
                        infotheory.receiver_average_info(post),
                    ))
        except Exception:  # a raising trajectory is a failed operation
            trajectory, values = None, []
            failed_configs[kind] = 1
        config_s[kind] = time.perf_counter() - t0
        trajectories[kind] = [trajectory] if trajectory is not None else []
        audits[kind] = values
    return Unit(
        wall_s=sum(config_s.values()),
        config_s=config_s,
        trajectories=trajectories,
        audits=audits,
        failed_configs=failed_configs,
    )


def run_unit(workload: str, paths: dict[str, Path], experiments: dict, scratch: Path) -> Unit:
    if workload == "figures":
        return run_figures(paths, experiments, scratch)
    return run_trajectories(experiments, audit=workload == "churn")


def unit_turns(experiments: dict) -> dict[str, int]:
    return {
        kind: exp.trajectory.total_turns * exp.num_runs for kind, exp in experiments.items()
    }

