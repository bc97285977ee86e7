"""signalgames benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {figures,learn,churn} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (it imports ``src/signalgames`` and
reads ``configs/``).  With ``--trace 0`` it repeats one fixed unit of the
workload until ``S`` seconds of unit time are measured and reports the
end-to-end metrics as medians over units.  With ``--trace 1`` it runs the unit
once untraced and once with spans around the program's public callables,
and reports the per-layer metrics and the tracing overhead.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; a record with versions, hashes and the trace is written
under ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("figures", "learn", "churn")
SETUP_PROBES = 11

# One worker thread: numpy must not start a BLAS thread pool of its own.  Set
# before numpy is imported; the set-up probes inherit it.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def sha256_files(paths) -> str:
    hasher = hashlib.sha256()
    for path in paths:
        hasher.update(path.name.encode() + b"\0" + path.read_bytes())
    return hasher.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:  # no git on this machine
        return None
    return result.stdout.strip() or None


def setup_seconds(config_paths) -> list[float]:
    """Fresh-interpreter set-up times, one per probe."""
    command = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    command += [str(p) for p in config_paths]
    times = []
    for _ in range(SETUP_PROBES):
        result = subprocess.run(
            command, capture_output=True, text=True, check=True, timeout=60
        )
        times.append(float(result.stdout))
    return times


class Tally:
    """Failure accounting.  The first unit's trajectories are checked against
    the oracle; a later unit's trajectory passes only if it reproduces a
    trajectory that passed, exactly."""

    def __init__(self):
        from checks import outcome, trajectory_problems

        self._outcome = outcome
        self._problems = trajectory_problems
        self.reference = None  # kind -> [(outcome, passed)] from the first unit
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def _check(self, kind, trajectory, audit) -> bool:
        try:
            problems = self._problems(trajectory, audit)
        except Exception as exc:  # a malformed trajectory fails the check
            problems = [f"check raised {exc!r}"]
        if problems:
            self.messages.append(f"{kind}: {problems[0]}")
        return not problems

    def add(self, unit, experiments):
        first = self.reference is None
        if first:
            self.reference = {}
        for kind, experiment in experiments.items():
            self.attempted += experiment.num_runs
            self.failed += unit.failed_configs.get(kind, 0)
            audit = unit.audits.get(kind, ())
            results = [(self._outcome(t, audit), t) for t in unit.trajectories[kind]]
            if first:
                self.reference[kind] = [
                    (result, self._check(kind, t, audit)) for result, t in results
                ]
                self.failed += sum(not ok for _, ok in self.reference[kind])
                continue
            reference = self.reference[kind]
            for i, (result, _) in enumerate(results):
                if i >= len(reference) or result != reference[i][0]:
                    self.failed += 1
                    self.messages.append(f"{kind}: repeated unit changed its outputs")
                elif not reference[i][1]:
                    self.failed += 1


def median_metrics(units, turns, setup_times, peak_rss_mb) -> dict:
    total_turns = sum(turns.values())
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(u.wall_s for u in units), "s"),
        "turns_per_s": (statistics.median(total_turns / u.wall_s for u in units), "1/s"),
    }
    for kind, n in turns.items():
        metrics[f"turns_per_s.{kind}"] = (
            statistics.median(n / u.config_s[kind] for u in units),
            "1/s",
        )
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


def layer_metrics(tracer, setup_tracer, untraced, traced, trajectories) -> dict:
    from spans import urn_contexts

    t = tracer
    entries = sum(urn_contexts(x.senders, x.receiver) for x in trajectories)
    receiver_entries = sum(
        urn_contexts([], x.receiver) for x in trajectories
    )
    metrics = {
        "reinforcement.sample_weights.calls": (t.calls("reinforcement.sample_weights"), "count"),
        "reinforcement.sample_weights.s": (t.total_s("reinforcement.sample_weights"), "s"),
        "agents.sender.choose.s": (t.total_s("agents.sender.choose"), "s"),
        "agents.sender.reinforce.s": (t.total_s("agents.sender.reinforce"), "s"),
        "agents.receiver.choose.s": (t.total_s("agents.receiver.choose"), "s"),
        "agents.receiver.reinforce.s": (t.total_s("agents.receiver.reinforce"), "s"),
        "agents.receiver.on_signal.s": (t.total_s("agents.receiver.on_signal"), "s"),
        "agents.tempered_softmax.calls": (t.calls("agents.tempered_softmax"), "count"),
        "agents.tempered_softmax.s": (t.total_s("agents.tempered_softmax"), "s"),
        "engine.step.calls": (t.calls("engine.step"), "count"),
        "engine.step.self_s": (t.self_s("engine.step"), "s"),
        "engine.take_snapshot.calls": (t.calls("engine.take_snapshot"), "count"),
        "engine.take_snapshot.self_s": (t.self_s("engine.take_snapshot"), "s"),
        "engine.make_report.calls": (t.calls("engine.make_report"), "count"),
        "engine.snapshot_expected_payoff.s": (t.total_s("engine.snapshot_expected_payoff"), "s"),
        "infotheory.sender_average_info.s": (t.total_s("infotheory.sender_average_info"), "s"),
        "infotheory.receiver_average_info.s": (t.total_s("infotheory.receiver_average_info"), "s"),
        "engine.apply_event.calls": (t.calls("engine.apply_event"), "count"),
        "engine.apply_event.s": (t.total_s("engine.apply_event"), "s"),
        "engine.event_handling.s": (t.event_handling_s(), "s"),
        "reinforcement.relabel.calls": (t.calls("reinforcement.relabel"), "count"),
        "reinforcement.relabel.s": (t.total_s("reinforcement.relabel"), "s"),
        "agents.receiver.on_replacement.s": (t.total_s("agents.receiver.on_replacement"), "s"),
        "agents.receiver.table_entries": (receiver_entries, "count"),
        "infotheory.compositional_expected_average.calls": (
            t.calls("infotheory.compositional_expected_average"), "count"),
        "infotheory.compositional_expected_average.s": (
            t.total_s("infotheory.compositional_expected_average"), "s"),
        "engine.run_batch.aggregate_s": (t.self_s("engine.run_batch"), "s"),
        "infotheory.info_table.s": (t.total_s("infotheory.info_table"), "s"),
        "cli.run_experiment.self_s": (t.self_s("cli.run_experiment"), "s"),
        "cli.bytes_written": (traced.bytes_written, "count"),
        "svgplot.line_chart.s": (t.total_s("svgplot.line_chart"), "s"),
        "cli.parse_config.s": (setup_tracer.total_s("cli.parse_config"), "s"),
        "reinforcement.read_materialized": (t.read_materialized, "count"),
        "reinforcement.read_materialized_frac": (
            t.read_materialized / entries if entries else 0.0, "frac"),
    }
    for layer, seconds in t.layer_self_s().items():
        metrics[f"layer.{layer}.self_frac"] = (seconds / traced.wall_s, "frac")
    metrics["trace.overhead_frac"] = (
        (traced.wall_s - untraced.wall_s) / untraced.wall_s, "frac")
    return metrics


def check_digests(configs_dir: Path, scratch: Path) -> dict:
    from checks import figures_digests, learn_digests
    from workloads import reference_documents, write_documents

    documents = reference_documents(configs_dir)
    found = {
        "figures_runs_csv": figures_digests(
            write_documents(documents["figures"], scratch / "ref_figures"), scratch),
        "learn_choices": learn_digests(
            write_documents(documents["learn"], scratch / "ref_learn")),
    }
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    mismatched = sorted(
        f"{group}.{kind}"
        for group, digests in found.items()
        for kind, digest in digests.items()
        if stored.get(group, {}).get(kind) != digest
    )
    return {"match": not mismatched, "mismatched": mismatched, "found": found}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "signalgames" / "__init__.py").is_file() or not CONFIGS.is_dir():
        print(f"perfbench: no signalgames sources under {ROOT}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))

    import numpy

    import workloads
    from signalgames import cli
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        scratch = Path(tmp)
        documents = workloads.generate(args.workload, args.seed, CONFIGS)
        paths = workloads.write_documents(documents, scratch / "inputs")
        inputs_sha256 = sha256_files(paths.values())

        # Every generated config is parsed and validated before any timed turn.
        setup_tracer = Tracer()
        with setup_tracer.installed():
            experiments = {kind: cli.parse_config(p)[0] for kind, p in paths.items()}
        turns = workloads.unit_turns(experiments)

        tally = Tally()
        units = []
        if args.trace == 0:
            setup_times = setup_seconds(paths.values())
            measured = 0.0
            while measured < args.seconds:
                unit = workloads.run_unit(args.workload, paths, experiments, scratch)
                measured += unit.wall_s
                tally.add(unit, experiments)
                units.append(unit)
                unit.trajectories = None  # checked; keep memory bounded
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = median_metrics(units, turns, setup_times, peak_rss_mb)
        else:
            untraced = workloads.run_unit(args.workload, paths, experiments, scratch)
            tally.add(untraced, experiments)
            untraced.trajectories = None
            tracer = Tracer()
            with tracer.installed():
                traced = workloads.run_unit(args.workload, paths, experiments, scratch)
            finished = [x for ts in traced.trajectories.values() for x in ts]
            metrics = layer_metrics(tracer, setup_tracer, untraced, traced, finished)
            tally.add(traced, experiments)
            units = [untraced, traced]
        digests = check_digests(CONFIGS, scratch)

    failed_frac = tally.failed / tally.attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": sha256_files(sorted((SRC / "signalgames").glob("*.py"))),
        "inputs_sha256": inputs_sha256,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "numpy": numpy.__version__,
        "units": len(units),
        "unit_wall_s": [u.wall_s for u in units],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": failed_frac,
        "failures": tally.messages[:20],
        "digests": digests,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    if args.trace:
        record["trace.overhead_frac"] = metrics["trace.overhead_frac"][0]
        record["trace.wall_s"] = {"untraced": untraced.wall_s, "traced": traced.wall_s}
        record["trace.layer_self_s"] = tracer.layer_self_s()
        record["trace.spans"] = tracer.to_json()
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  units {len(units)}  "
          f"nproc {record['nproc']}  python {record['python']}  numpy {record['numpy']}")
    print(f"git {record['git_sha']}  inputs {record['inputs_sha256'][:16]}  "
          f"record {record_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<48} {failed_frac:>14.6g} frac "
          f"({tally.failed} of {tally.attempted} trajectories)")
    for message in tally.messages[:5]:
        print(f"  FAILED {message}")
    if digests["match"]:
        print("behaviour digests: match")
    else:
        banner = "!" * 72
        print(f"{banner}\nBEHAVIOUR DIGEST MISMATCH: {', '.join(digests['mismatched'])}\n"
              f"(not a failed operation; a change that moves a digest must say why)\n"
              f"{banner}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
