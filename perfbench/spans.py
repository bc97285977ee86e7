"""In-memory span tracing around the program's public callables.

Spans are installed by patching each callable at the site where the program
looks it up (``sample_weights`` in both ``engine`` and ``agents``, receiver
methods on each receiver class, and so on) and are removed again when the
``Tracer.installed()`` block ends.  The program's own files are not touched.

Every span is aggregated by (name, parent name): call count, inclusive time
and self time (inclusive time minus the time covered by child spans).  Spans
that do not run once per turn are also kept as full records (name, start,
end, parent id) so they can be written out when the benchmark ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# Spans that fire once or more per turn; only their aggregates are kept.
PER_TURN = frozenset(
    {
        "engine.step",
        "reinforcement.sample_weights",
        "agents.tempered_softmax",
        "agents.sender.choose",
        "agents.sender.reinforce",
        "agents.receiver.choose",
        "agents.receiver.reinforce",
        "agents.receiver.on_signal",
    }
)

# Layer of each span-name prefix; svgplot is reported with the CLI.
LAYERS = {
    "reinforcement": "reinforcement",
    "agents": "agents",
    "engine": "engine",
    "infotheory": "infotheory",
    "cli": "cli",
    "svgplot": "cli",
    "game": "game",
}


def urn_contexts(senders, receiver) -> int:
    """Number of urn contexts held by the agents' reinforcement tables."""
    table = getattr(receiver, "table", None) or receiver.act_counts
    return len(table.entries) + sum(len(s.table.entries) for s in senders)


class Tracer:
    """Spans and counters from one traced unit, kept in memory."""

    def __init__(self):
        self.aggregate: dict[tuple[str, str | None], list] = {}
        self.records: list[tuple[str, float, float, int | None]] = []
        self.read_materialized = 0
        self._stack: list[list] = []

    def wrap(self, name: str, fn):
        stack = self._stack
        aggregate = self.aggregate
        records = self.records
        clock = time.perf_counter
        keep = name not in PER_TURN

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, len(records) if keep else None]
            if keep:
                records.append(None)  # reserve the slot; filled on exit
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                key = (name, parent[0] if parent else None)
                entry = aggregate.get(key)
                if entry is None:
                    entry = aggregate[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                if keep:
                    records[frame[2]] = (name, start, end, parent[2] if parent else None)

        return traced

    def _snapshot_counter(self, take_snapshot):
        """take_snapshot that also counts the urn contexts the read creates."""

        def counted(spec, senders, receiver):
            before = urn_contexts(senders, receiver)
            snapshot = take_snapshot(spec, senders, receiver)
            self.read_materialized += urn_contexts(senders, receiver) - before
            return snapshot

        return counted

    @contextmanager
    def installed(self):
        """Patch every traced call site; restore the originals on exit."""
        from signalgames import agents, cli, engine, infotheory, reinforcement

        receivers = (
            agents.ConventionalReceiver,
            agents.MinimalistReceiver,
            agents.GeneralistReceiver,
        )
        sites = [
            (engine, "sample_weights", "reinforcement.sample_weights"),
            (agents, "sample_weights", "reinforcement.sample_weights"),
            (reinforcement.ReinforcementTable, "relabel", "reinforcement.relabel"),
            (agents, "tempered_softmax", "agents.tempered_softmax"),
            (agents.Sender, "choose", "agents.sender.choose"),
            (agents.Sender, "reinforce", "agents.sender.reinforce"),
            (agents.Sender, "replace_message", "agents.sender.replace_message"),
        ]
        for cls in receivers:
            for method in ("choose", "reinforce", "on_signal", "on_replacement"):
                sites.append((cls, method, f"agents.receiver.{method}"))
        sites += [
            (engine, "validate", "game.validate"),
            (engine, "step", "engine.step"),
            (engine, "take_snapshot", "engine.take_snapshot"),
            (engine, "make_report", "engine.make_report"),
            (engine, "snapshot_expected_payoff", "engine.snapshot_expected_payoff"),
            (engine, "apply_event", "engine.apply_event"),
            (engine, "run", "engine.run"),
            (engine, "sender_average_info", "infotheory.sender_average_info"),
            (engine, "receiver_average_info", "infotheory.receiver_average_info"),
            (infotheory, "receiver_average_info", "infotheory.receiver_average_info"),
            (
                infotheory,
                "compositional_expected_average",
                "infotheory.compositional_expected_average",
            ),
            (cli, "main", "cli.main"),
            (cli, "parse_config", "cli.parse_config"),
            (cli, "make_two_sender_game", "game.make_two_sender_game"),
            (cli, "run_experiment", "cli.run_experiment"),
            (cli, "run_batch", "engine.run_batch"),
            (cli, "info_table", "infotheory.info_table"),
            (cli, "line_chart", "svgplot.line_chart"),
        ]
        saved = []
        try:
            for owner, attr, name in sites:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                patched = self.wrap(name, original)
                if attr == "take_snapshot":
                    patched = self._snapshot_counter(patched)
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------

    def _sum(self, name: str, field: int):
        return sum(v[field] for (n, _), v in self.aggregate.items() if n == name)

    def calls(self, name: str) -> int:
        return self._sum(name, 0)

    def total_s(self, name: str) -> float:
        """Inclusive time of every span with this name, over all parents."""
        return self._sum(name, 1)

    def self_s(self, name: str) -> float:
        return self._sum(name, 2)

    def event_handling_s(self) -> float:
        """Time ``engine.run`` spends around its events: the pre snapshot and
        report, ``apply_event``, and the post snapshot and report."""
        children: dict[int, list[tuple[str, float]]] = {}
        for name, start, end, parent in self.records:
            children.setdefault(parent, []).append((name, end - start))
        total = 0.0
        for index, (name, _, _, _) in enumerate(self.records):
            if name != "engine.run":
                continue
            siblings = children.get(index, [])
            for i, (child, _) in enumerate(siblings):
                if child == "engine.apply_event":
                    total += sum(d for _, d in siblings[max(i - 2, 0):i + 3])
        return total

    def layer_self_s(self) -> dict[str, float]:
        layers = {layer: 0.0 for layer in LAYERS.values()}
        for (name, _), (_, _, self_time) in self.aggregate.items():
            layers[LAYERS[name.split(".")[0]]] += self_time
        return layers

    def to_json(self) -> dict:
        return {
            "aggregate": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(
                    self.aggregate.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
                )
            ],
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for (n, s, e, p) in self.records
            ],
        }
