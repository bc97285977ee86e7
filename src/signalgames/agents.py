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
from operator import add
from typing import Sequence

import numpy as np

from .game import CompoundSignal, GameSpec
from .reinforcement import (
    ReinforcementTable,
    SymbolCollisionError,
    fold_sum,
    sample_weights,
)


def _softmax_weights(scores: Sequence[float], temperature: float) -> list[float]:
    """exp(score/T) with the top score subtracted, for overflow safety: the
    tempered softmax before normalization."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if not all(map(math.isfinite, scores)):
        raise ValueError("softmax scores must be finite")
    top = max(scores)
    exp = math.exp
    return [exp((s - top) / temperature) for s in scores]


def tempered_softmax(scores: Sequence[float], temperature: float) -> list[float]:
    """exp(score/T) normalized, with max-subtraction for overflow safety."""
    exps = _softmax_weights(scores, temperature)
    total = fold_sum(exps)
    return [e / total for e in exps]


class Sender:
    """One sender: an urn per state, balls labeled with this sender's symbols."""

    def __init__(self, spec: GameSpec, sender_index: int):
        self.sender_index = sender_index
        self.num_states = spec.num_states
        self.table = ReinforcementTable(list(spec.sender_alphabets[sender_index]))

    @property
    def alphabet(self) -> list[str]:
        """The live symbols: the table's options, renamed by replacements."""
        return self.table.options

    def choose(self, state: int, rng: np.random.Generator) -> str:
        return self.table.options[sample_weights(self.table.entries[state], rng)]

    def reinforce(self, state: int, symbol: str, reward: float) -> None:
        if reward < 0:
            raise ValueError("negative reinforcement is out of scope")
        self.table.entries[state][self.table.position[symbol]] += reward

    def replace_message(self, old_symbol: str, new_symbol: str) -> None:
        """Relabel every old-symbol ball; reinforcements carry over exactly."""
        if old_symbol not in self.alphabet:
            raise KeyError(f"{old_symbol!r} not in sender alphabet")
        self.table.relabel(old_symbol, new_symbol)

    def to_json_dict(self) -> dict:
        return {"sender_index": self.sender_index, "table": self.table.to_json_dict()}

    @classmethod
    def from_json_dict(cls, spec: GameSpec, data: dict) -> "Sender":
        sender = cls(spec, data["sender_index"])
        sender.table = ReinforcementTable.from_json_dict(data["table"])
        return sender


class Receiver:
    """What the receivers share: a ``kind`` and the policy-file codec.

    The receivers differ only in how they map a signal to urn contexts and
    how they read act scores out of them.  ``choice_weights(signal)`` gives
    the weights a turn draws the act from, reading (and for the urn kinds
    storing) the signal's urn; ``engine.step`` draws from them itself, and
    ``choose`` is that draw as a method, the reference the tests compare
    ``step`` with.  A policy file records the kind, the constructor settings
    named in ``params``, the dicts named in ``state`` and the act urns
    ``table``; everything else comes from the game spec.
    :func:`receiver_from_json_dict` reads it back.
    """

    kind: str
    params: tuple[str, ...] = ()
    state: tuple[str, ...] = ()
    table: ReinforcementTable

    def context(self, signal: CompoundSignal):
        """The urn a signal's act is drawn from."""
        return tuple(signal)

    def act_weights(self, signal: CompoundSignal) -> list[float]:
        """The act weights ``act_distribution`` normalizes by their left-fold
        total; reading them stores nothing."""
        return self.table.peek(self.context(signal))

    def act_distribution(self, signal: CompoundSignal) -> list[float]:
        return self.table.distribution(self.context(signal))

    def to_json_dict(self) -> dict:
        data = {name: getattr(self, name) for name in self.params}
        data.update((name, dict(getattr(self, name))) for name in self.state)
        data.update(kind=self.kind, table=self.table.to_json_dict())
        return data


class ConventionalReceiver(Receiver):
    """Act urns keyed by the full compound signal, one per seen conjunction.

    Reinforcing one compound key never changes any other key: this is the
    architecture whose information collapses under symbol replacement.
    """

    kind = "conventional"

    def __init__(self, spec: GameSpec):
        self.table = ReinforcementTable(list(range(spec.num_acts)))

    def choice_weights(self, signal: CompoundSignal) -> list[float]:
        return self.table.entries[signal]

    def choose(self, signal: CompoundSignal, rng: np.random.Generator) -> int:
        return sample_weights(self.choice_weights(signal), rng)

    def on_signal(self, signal: CompoundSignal) -> None:
        pass  # never called; perfbench/spans.py patches it (ROADMAP item 1)

    def reinforce(self, signal: CompoundSignal, act: int, reward: float) -> None:
        if reward < 0:
            raise ValueError("negative reinforcement is out of scope")
        if reward:
            self.table.entries[signal][act] += reward

    def on_replacement(self, old_symbol: str, new_symbol: str) -> None:
        # No table change: urns for signals with the new symbol materialize
        # lazily at uniform, so signals containing it carry no information.
        pass


class MinimalistReceiver(Receiver):
    """Act urns keyed by atomic message; acts picked by tempered softmax.

    Scores for a compound signal are the summed reinforcements of its atomic
    slots, and the softmax is applied to those raw sums: the figure's
    T = 2000 only bites on the accumulated-count scale.
    """

    kind = "minimalist"
    params = ("temperature",)

    def __init__(self, spec: GameSpec, temperature: float, initial_weight: float = 1.0):
        if not temperature > 0:
            raise ValueError(f"temperature must be positive, not {temperature!r}")
        self.num_acts = spec.num_acts
        self.temperature = float(temperature)
        self.table = ReinforcementTable(list(range(spec.num_acts)), initial_weight)

    def naive_scores(self, signal: CompoundSignal) -> list[float]:
        """Per-act summed reinforcement over the signal's present slots,
        reading unseen slots' urns without storing them."""
        scores = [0.0] * self.num_acts
        get = self.table.entries.get
        fresh = self.table.entries.default_factory
        for symbol in signal:
            if symbol is not None:
                scores = list(map(add, scores, get(symbol) or fresh()))
        return scores

    def naive_distribution(self, signal: CompoundSignal) -> list[float]:
        """The naive rule: summed scores normalized to probabilities."""
        scores = self.naive_scores(signal)
        total = fold_sum(scores)
        return [s / total for s in scores]

    def act_weights(self, signal: CompoundSignal) -> list[float]:
        return _softmax_weights(self.naive_scores(signal), self.temperature)

    def choice_weights(self, signal: CompoundSignal) -> list[float]:
        return tempered_softmax(self.naive_scores(signal), self.temperature)

    act_distribution = choice_weights

    def choose(self, signal: CompoundSignal, rng: np.random.Generator) -> int:
        return sample_weights(self.choice_weights(signal), rng)

    def on_signal(self, signal: CompoundSignal) -> None:
        pass  # never called; perfbench/spans.py patches it (ROADMAP item 1)

    def reinforce(self, signal: CompoundSignal, act: int, reward: float) -> None:
        """Drop one act ball into the urn of every present atomic slot."""
        if reward < 0:
            raise ValueError("negative reinforcement is out of scope")
        if not reward:
            return
        entries = self.table.entries
        for symbol in signal:
            if symbol is not None:
                entries[symbol][act] += reward

    def on_replacement(self, old_symbol: str, new_symbol: str) -> None:
        # The urn for the new symbol is created lazily on first receipt.
        pass


def _combinations(signal: CompoundSignal) -> tuple[frozenset, tuple[frozenset, ...]]:
    """The signal's present slots as one combination, and every non-empty one, smallest first."""
    present = [m for m in signal if m is not None]
    sizes = range(1, len(present) + 1)
    combos = tuple(frozenset(c) for n in sizes for c in itertools.combinations(present, n))
    return combos[-1] if combos else frozenset(), combos


class SignalContexts(dict):
    """signal -> ``_combinations(signal)``, stored on first index; never stale, never dumped."""

    def __missing__(self, signal: CompoundSignal) -> tuple[frozenset, tuple[frozenset, ...]]:
        contexts = self[signal] = _combinations(signal)
        return contexts


class GeneralistReceiver(Receiver):
    """Joint reinforcement over every sub-combination of the received signal.

    ``table`` holds an act urn per message combination; a rewarded turn adds
    an act ball to the urn of every sub-combination of the signal.  Action
    selection conditions on the full combination, exactly as the conventional
    model, so the extra urns never slow coordination.
    """

    kind = "generalist"
    params = ("introduction_mode", "alpha")
    state = ("symbol_sender",)

    def __init__(
        self,
        spec: GameSpec,
        introduction_mode: str = "erasing",
        alpha: float = 1.0,
    ):
        if introduction_mode not in ("erasing", "preserving"):
            raise ValueError(f"unknown introduction mode {introduction_mode!r}")
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, not {alpha!r}")
        self.num_acts = spec.num_acts
        self.introduction_mode = introduction_mode
        self.alpha = float(alpha)
        # symbol -> sender index; replacement adds the minted symbol here
        self.symbol_sender: dict[str, int] = {
            m: i for i, alphabet in enumerate(spec.sender_alphabets) for m in alphabet
        }
        self.table = ReinforcementTable(list(range(spec.num_acts)))
        self._contexts = SignalContexts()

    @property
    def act_counts(self) -> ReinforcementTable:
        """The act urns under their former name."""
        return self.table

    def context(self, signal: CompoundSignal) -> frozenset:
        return self._contexts[signal][0]

    def choice_weights(self, signal: CompoundSignal) -> list[float]:
        return self.table.entries[self._contexts[signal][0]]

    def choose(self, signal: CompoundSignal, rng: np.random.Generator) -> int:
        return sample_weights(self.choice_weights(signal), rng)

    def on_signal(self, signal: CompoundSignal) -> None:
        pass  # never called; perfbench/spans.py patches it (ROADMAP item 1)

    def reinforce(self, signal: CompoundSignal, act: int, reward: float) -> None:
        """On reward, add an act ball to every sub-combination's urn."""
        if reward < 0:
            raise ValueError("negative reinforcement is out of scope")
        if not reward:
            return
        entries = self.table.entries
        for combo in self._contexts[signal][1]:
            entries[combo][act] += reward

    def on_replacement(self, old_symbol: str, new_symbol: str) -> None:
        """Register the freshly minted symbol and initialize its urns.

        Erasing mode stores nothing: every combination containing the new
        symbol is unseen, so it reads as the initial weight and those signals
        are uninformative.  Preserving mode copies ``alpha`` times the urn of
        each combination seen so far into its extension by the new symbol,
        so conditioning on the new symbol changes nothing: the other
        components keep their meaning.
        """
        if new_symbol in self.symbol_sender:
            raise SymbolCollisionError(f"{new_symbol!r} already known")
        sender_index = self.symbol_sender[old_symbol]
        # the sender's symbols, retired ones included, in registration order
        own = [m for m, i in self.symbol_sender.items() if i == sender_index]
        self.symbol_sender[new_symbol] = sender_index
        if self.introduction_mode == "erasing":
            return
        a = self.alpha
        # The combinations seen so far are the non-empty subsets of the stored
        # keys: ``choose`` stores the urn of every full signal that arrives,
        # and earlier introductions store the urns they create.  Those the new
        # symbol can extend hold none of its sender's symbols.
        own_set = set(own)
        remainders = {key - own_set for key in self.table.entries}
        extendable = {combo for rest in remainders for combo in _combinations(rest)[1]}
        for combo in extendable:
            self.table.entries[combo | {new_symbol}] = [a * w for w in self.table.weights(combo)]
        # Singleton: sum over the same sender's symbols, so that conditioning
        # on the new symbol alone reproduces the marginal act distribution.
        marginal = [0.0] * self.num_acts
        for m in own:
            for i, w in enumerate(self.table.weights(frozenset([m]))):
                marginal[i] += w
        self.table.entries[frozenset([new_symbol])] = [a * w for w in marginal]


RECEIVERS: dict[str, type[Receiver]] = {
    cls.kind: cls for cls in (ConventionalReceiver, MinimalistReceiver, GeneralistReceiver)
}


def make_receiver(spec: GameSpec, kind: str, /, **settings) -> Receiver:
    """A ``kind`` receiver built from those ``settings`` its constructor takes.

    Settings of other kinds are ignored, so one set serves every kind.
    """
    if kind not in RECEIVERS:
        raise ValueError(f"unknown receiver kind {kind!r}")
    cls = RECEIVERS[kind]
    return cls(spec, **{name: settings[name] for name in cls.params if name in settings})


def receiver_from_json_dict(spec: GameSpec, data: dict) -> Receiver:
    """The receiver that ``Receiver.to_json_dict`` wrote as ``data``."""
    receiver = make_receiver(spec, data["kind"], **data)
    for name in receiver.state:
        setattr(receiver, name, dict(data[name]))  # pair lists of older files too
    receiver.table = ReinforcementTable.from_json_dict(data["table"])
    return receiver
