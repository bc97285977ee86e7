"""Sender and the three receiver architectures.

* :class:`ConventionalReceiver` keys act urns by the complete compound signal.
* :class:`MinimalistReceiver` keys act urns by atomic message and selects acts
  with a tempered softmax over the summed raw reinforcements.
* :class:`GeneralistReceiver` reinforces every sub-combination of the signal,
  approximating a joint distribution over messages and acts, with two
  initialization modes for freshly introduced symbols.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .game import CompoundSignal, GameSpec
from .reinforcement import (
    ReinforcementTable,
    SymbolCollisionError,
    sample_weights,
)


def tempered_softmax(scores: Sequence[float], temperature: float) -> list[float]:
    """exp(score/T) normalized, with max-subtraction for overflow safety."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if not all(math.isfinite(s) for s in scores):
        raise ValueError("softmax scores must be finite")
    top = max(scores)
    exps = [math.exp((s - top) / temperature) for s in scores]
    total = sum(exps)
    return [e / total for e in exps]


class Sender:
    """One sender: an urn per state, balls labeled with this sender's symbols."""

    def __init__(self, spec: GameSpec, sender_index: int, initial_weight: float = 1.0):
        self.sender_index = sender_index
        self.alphabet = list(spec.sender_alphabets[sender_index])
        self.num_states = spec.num_states
        self.table = ReinforcementTable(list(self.alphabet), initial_weight)

    def distribution(self, state: int) -> list[float]:
        return self.table.distribution(state)

    def choose(self, state: int, rng: np.random.Generator) -> str:
        idx = sample_weights(self.table.weights(state), rng)
        return self.alphabet[idx]

    def reinforce(self, state: int, symbol: str, reward: float) -> None:
        self.table.reinforce(state, symbol, reward)

    def replace_message(self, old_symbol: str, new_symbol: str) -> None:
        """Relabel every old-symbol ball; reinforcements carry over exactly."""
        if old_symbol not in self.alphabet:
            raise KeyError(f"{old_symbol!r} not in sender alphabet")
        if new_symbol in self.alphabet:
            raise SymbolCollisionError(f"{new_symbol!r} already in alphabet")
        self.table.relabel(old_symbol, new_symbol)
        self.alphabet = [new_symbol if m == old_symbol else m for m in self.alphabet]

    def conditional_matrix(self) -> np.ndarray:
        """Row per state: probability of each symbol, in alphabet order."""
        rows = [self.distribution(s) for s in range(self.num_states)]
        return np.asarray(rows, dtype=float)

    def to_json_dict(self) -> dict:
        return {
            "sender_index": self.sender_index,
            "alphabet": list(self.alphabet),
            "num_states": self.num_states,
            "table": self.table.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, spec: GameSpec, data: dict) -> "Sender":
        sender = cls(spec, int(data["sender_index"]))
        sender.alphabet = [str(m) for m in data["alphabet"]]
        sender.num_states = int(data["num_states"])
        sender.table = ReinforcementTable.from_json_dict(data["table"])
        return sender


class ConventionalReceiver:
    """Act urns keyed by the full compound signal, one per seen conjunction.

    Reinforcing one compound key never changes any other key: this is the
    architecture whose information collapses under symbol replacement.
    """

    kind = "conventional"

    def __init__(self, spec: GameSpec, initial_weight: float = 1.0):
        self.num_acts = spec.num_acts
        self.table = ReinforcementTable(list(range(spec.num_acts)), initial_weight)

    def act_distribution(self, signal: CompoundSignal) -> list[float]:
        return self.table.distribution(tuple(signal))

    def choose(self, signal: CompoundSignal, rng: np.random.Generator) -> int:
        return sample_weights(self.table.weights(tuple(signal)), rng)

    def on_signal(self, signal: CompoundSignal) -> None:
        pass

    def reinforce(self, signal: CompoundSignal, act: int, reward: float) -> None:
        if reward:
            self.table.reinforce(tuple(signal), act, reward)

    def on_replacement(self, old_symbol: str, new_symbol: str) -> None:
        # No table change: urns for signals with the new symbol materialize
        # lazily at uniform, so signals containing it carry no information.
        pass

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "table": self.table.to_json_dict()}

    @classmethod
    def from_json_dict(cls, spec: GameSpec, data: dict) -> "ConventionalReceiver":
        receiver = cls(spec)
        receiver.table = ReinforcementTable.from_json_dict(data["table"])
        return receiver


class MinimalistReceiver:
    """Act urns keyed by atomic message; acts picked by tempered softmax.

    Scores for a compound signal are the summed reinforcements of its atomic
    slots.  The softmax is applied to the raw sums by default: the figure's
    T = 2000 only bites on the accumulated-count scale.  Set ``normalized``
    to feed the softmax the normalized naive rule instead.
    """

    kind = "minimalist"

    def __init__(
        self,
        spec: GameSpec,
        temperature: float,
        normalized: bool = False,
        initial_weight: float = 1.0,
    ):
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.num_acts = spec.num_acts
        self.temperature = float(temperature)
        self.normalized = bool(normalized)
        self.table = ReinforcementTable(list(range(spec.num_acts)), initial_weight)

    def naive_scores(self, signal: CompoundSignal) -> list[float]:
        """Per-act summed reinforcement over the signal's present slots."""
        scores = [0.0] * self.num_acts
        for symbol in signal:
            if symbol is None:
                continue
            row = self.table.peek(symbol)
            for a in range(self.num_acts):
                scores[a] += row[a]
        return scores

    def naive_distribution(self, signal: CompoundSignal) -> list[float]:
        """The naive rule: summed scores normalized to probabilities."""
        scores = self.naive_scores(signal)
        total = sum(scores)
        return [s / total for s in scores]

    def act_distribution(self, signal: CompoundSignal) -> list[float]:
        scores = (
            self.naive_distribution(signal) if self.normalized else self.naive_scores(signal)
        )
        return tempered_softmax(scores, self.temperature)

    def choose(self, signal: CompoundSignal, rng: np.random.Generator) -> int:
        return sample_weights(self.act_distribution(signal), rng)

    def on_signal(self, signal: CompoundSignal) -> None:
        pass

    def reinforce(self, signal: CompoundSignal, act: int, reward: float) -> None:
        """Drop one act ball into the urn of every present atomic slot."""
        if not reward:
            return
        for symbol in signal:
            if symbol is not None:
                self.table.reinforce(symbol, act, reward)

    def on_replacement(self, old_symbol: str, new_symbol: str) -> None:
        # The urn for the new symbol is created lazily on first receipt.
        pass

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "temperature": self.temperature,
            "normalized": self.normalized,
            "table": self.table.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, spec: GameSpec, data: dict) -> "MinimalistReceiver":
        receiver = cls(spec, float(data["temperature"]), bool(data["normalized"]))
        receiver.table = ReinforcementTable.from_json_dict(data["table"])
        return receiver


def _subcombinations(signal: CompoundSignal) -> list[frozenset]:
    """Non-empty subsets of the signal's present slots, smallest first."""
    present = [m for m in signal if m is not None]
    combos: list[frozenset] = []
    for n in range(1, len(present) + 1):
        combos.extend(frozenset(c) for c in itertools.combinations(present, n))
    return combos


class GeneralistReceiver:
    """Joint reinforcement over every sub-combination of the received signal.

    ``combo_counts`` tracks how often each message combination arrives
    (updated every turn); ``act_counts`` tracks which acts get rewarded for
    each combination (updated on rewarded turns only).  Action selection
    conditions on the full combination, exactly as the conventional model,
    so the extra bookkeeping never slows coordination.
    """

    kind = "generalist"

    def __init__(
        self,
        spec: GameSpec,
        introduction_mode: str = "erasing",
        alpha: float = 1.0,
        initial_weight: float = 1.0,
    ):
        if introduction_mode not in ("erasing", "preserving"):
            raise ValueError(f"unknown introduction mode {introduction_mode!r}")
        self.num_acts = spec.num_acts
        self.num_senders = spec.num_senders
        self.introduction_mode = introduction_mode
        self.alpha = float(alpha)
        self.initial_weight = float(initial_weight)
        # symbol -> sender index; replacement adds the minted symbol here
        self.symbol_sender: dict[str, int] = {
            m: i for i, alphabet in enumerate(spec.sender_alphabets) for m in alphabet
        }
        self.combo_counts: dict[frozenset, float] = {}
        self.act_counts = ReinforcementTable(
            list(range(spec.num_acts)), initial_weight
        )

    def _combo_count(self, combo: frozenset) -> float:
        return self.combo_counts.get(combo, self.initial_weight)

    def observe(self, signal: CompoundSignal) -> None:
        """Count the arrival of every sub-combination of the signal."""
        for combo in _subcombinations(signal):
            self.combo_counts[combo] = self._combo_count(combo) + 1.0

    on_signal = observe

    def act_distribution(self, signal: CompoundSignal) -> list[float]:
        full = frozenset(m for m in signal if m is not None)
        return self.act_counts.distribution(full)

    def choose(self, signal: CompoundSignal, rng: np.random.Generator) -> int:
        full = frozenset(m for m in signal if m is not None)
        return sample_weights(self.act_counts.weights(full), rng)

    def reinforce(self, signal: CompoundSignal, act: int, reward: float) -> None:
        """On reward, add an act ball to every sub-combination's urn."""
        if not reward:
            return
        for combo in _subcombinations(signal):
            self.act_counts.reinforce(combo, act, reward)

    def introduce_message(self, new_symbol: str, sender_index: int) -> None:
        """Initialize urns for a freshly minted symbol.

        Erasing mode starts every combination containing the new symbol at
        the initial weight, so those signals are uninformative.  Preserving
        mode copies ``alpha`` times the counts of each existing combination
        into its extension by the new symbol, so conditioning on the new
        symbol changes nothing: the other components keep their meaning.
        """
        if new_symbol in self.symbol_sender:
            raise SymbolCollisionError(f"{new_symbol!r} already known")
        self.symbol_sender[new_symbol] = sender_index
        same_sender = [
            m for m, i in self.symbol_sender.items()
            if i == sender_index and m != new_symbol
        ]
        if self.introduction_mode == "erasing":
            self._introduce_erasing(new_symbol, sender_index)
        else:
            self._introduce_preserving(new_symbol, sender_index, same_sender)

    def _extendable_combos(self, sender_index: int) -> list[frozenset]:
        """Existing combos that a new symbol of this sender can extend."""
        seen = set(self.combo_counts) | set(self.act_counts.entries)
        return [
            combo
            for combo in seen
            if len(combo) < self.num_senders
            and not any(self.symbol_sender.get(m) == sender_index for m in combo)
        ]

    def _introduce_erasing(self, new_symbol: str, sender_index: int) -> None:
        w = self.initial_weight
        singleton = frozenset([new_symbol])
        self.combo_counts[singleton] = w
        self.act_counts.entries[singleton] = [w] * self.num_acts
        for combo in self._extendable_combos(sender_index):
            extended = combo | {new_symbol}
            self.combo_counts[extended] = w
            self.act_counts.entries[extended] = [w] * self.num_acts

    def _introduce_preserving(
        self, new_symbol: str, sender_index: int, same_sender: list[str]
    ) -> None:
        a = self.alpha
        for combo in self._extendable_combos(sender_index):
            extended = combo | {new_symbol}
            self.combo_counts[extended] = a * self._combo_count(combo)
            self.act_counts.entries[extended] = [
                a * w for w in self.act_counts.weights(combo)
            ]
        # Singleton: sum over the same sender's symbols, so that conditioning
        # on the new symbol alone reproduces the marginal act distribution.
        singleton = frozenset([new_symbol])
        self.combo_counts[singleton] = a * sum(
            self._combo_count(frozenset([m])) for m in same_sender
        )
        marginal = [0.0] * self.num_acts
        for m in same_sender:
            row = self.act_counts.weights(frozenset([m]))
            for i in range(self.num_acts):
                marginal[i] += row[i]
        self.act_counts.entries[singleton] = [a * w for w in marginal]

    def on_replacement(self, old_symbol: str, new_symbol: str) -> None:
        self.introduce_message(new_symbol, self.symbol_sender[old_symbol])

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "introduction_mode": self.introduction_mode,
            "alpha": self.alpha,
            "initial_weight": self.initial_weight,
            "num_senders": self.num_senders,
            "symbol_sender": dict(sorted(self.symbol_sender.items())),
            "combo_counts": [
                {"combo": sorted(c), "count": n}
                for c, n in sorted(self.combo_counts.items(), key=lambda kv: sorted(kv[0]))
            ],
            "act_counts": self.act_counts.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, spec: GameSpec, data: dict) -> "GeneralistReceiver":
        receiver = cls(
            spec,
            introduction_mode=str(data["introduction_mode"]),
            alpha=float(data["alpha"]),
            initial_weight=float(data["initial_weight"]),
        )
        receiver.num_senders = int(data["num_senders"])
        receiver.symbol_sender = {
            str(k): int(v) for k, v in data["symbol_sender"].items()
        }
        receiver.combo_counts = {
            frozenset(str(m) for m in entry["combo"]): float(entry["count"])
            for entry in data["combo_counts"]
        }
        receiver.act_counts = ReinforcementTable.from_json_dict(data["act_counts"])
        return receiver


Receiver = ConventionalReceiver | MinimalistReceiver | GeneralistReceiver


def make_receiver(
    spec: GameSpec,
    kind: str,
    temperature: float = 2000.0,
    normalized: bool = False,
    introduction_mode: str = "erasing",
    alpha: float = 1.0,
) -> Receiver:
    if kind == "conventional":
        return ConventionalReceiver(spec)
    if kind == "minimalist":
        return MinimalistReceiver(spec, temperature, normalized)
    if kind == "generalist":
        return GeneralistReceiver(spec, introduction_mode, alpha)
    raise ValueError(f"unknown receiver kind {kind!r}")


def receiver_from_json_dict(spec: GameSpec, data: dict) -> Receiver:
    kind = data["kind"]
    classes = {
        "conventional": ConventionalReceiver,
        "minimalist": MinimalistReceiver,
        "generalist": GeneralistReceiver,
    }
    if kind not in classes:
        raise ValueError(f"unknown receiver kind {kind!r}")
    return classes[kind].from_json_dict(spec, data)
