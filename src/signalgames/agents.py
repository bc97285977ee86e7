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
    _number,
    normalize_row,
    sample_weights,
)


def _softmax_weights(scores: Sequence[float], temperature: float) -> list[float]:
    """exp(score/T) with the top score subtracted, for overflow safety: the
    tempered softmax before normalization."""
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, not {temperature!r}")
    if not all(map(math.isfinite, scores)):
        raise ValueError("softmax scores must be finite")
    top = max(scores)
    exp = math.exp
    return [exp((s - top) / temperature) for s in scores]


def tempered_softmax(scores: Sequence[float], temperature: float) -> list[float]:
    """exp(score/T) normalized, with max-subtraction for overflow safety: the
    top term is exp(0), so the total is at least 1."""
    return normalize_row(_softmax_weights(scores, temperature), "softmax")


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
        self.table.reinforce(state, symbol, reward)

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


def _full_signal(signal: CompoundSignal) -> tuple:
    """The conventional rule: the full signal's urn is read and written."""
    return signal, (signal,)


def _present_slots(signal: CompoundSignal) -> tuple:
    """The minimalist rule: each present slot's urn is read and written."""
    slots = tuple(m for m in signal if m is not None)
    return slots, slots


def _combinations(signal: CompoundSignal) -> tuple[frozenset, tuple[frozenset, ...]]:
    """The generalist rule: the present slots' combination is read, and every
    non-empty combination of them is written, smallest first."""
    present = [m for m in signal if m is not None]
    sizes = range(1, len(present) + 1)
    combos = tuple(frozenset(c) for n in sizes for c in itertools.combinations(present, n))
    return combos[-1] if combos else frozenset(), combos


class SignalUrns(dict):
    """signal -> ``rule(signal)``, stored on first index; never stale, since an
    entry depends only on its signal, and never dumped."""

    def __init__(self, rule):
        super().__init__()
        self.rule = rule  # module-level: the map pickles, and refers to no receiver

    def __missing__(self, signal: CompoundSignal) -> tuple:
        urns = self[signal] = self.rule(signal)
        return urns


class Receiver:
    """Act urns ``table``, and ``urns[signal]``, the signal's ``(read, writes)``:
    the urn key its act is drawn from (the minimalist's: the slot keys it
    sums) and the urn keys a reward adds an act ball to.  The kinds differ
    only in the ``rule`` that builds ``urns``, the minimalist's read-out and
    the generalist's introduction of a new symbol; ``act_distribution`` is
    ``act_weights`` under the matching law of ``reinforcement``, for every
    kind.  ``engine.step`` draws from ``draw_weights(read)`` and writes the
    urns itself; ``choose`` and ``reinforce`` are the reference turn the
    tests compare it with.  A policy file records the kind, the constructor
    settings named in ``params``, the dicts named in ``state`` and
    ``table``; :func:`receiver_from_json_dict` reads it back.
    """

    kind: str
    params: tuple[str, ...] = ()
    state: tuple[str, ...] = ()
    rule = staticmethod(_full_signal)

    def __init__(self, spec: GameSpec):
        self.num_acts = spec.num_acts
        self.table = ReinforcementTable(list(range(spec.num_acts)))
        self.urns = SignalUrns(self.rule)

    def __init_subclass__(cls, **kwargs):
        # perfbench/spans.py patches these in each receiver class's own dict;
        # ROADMAP item 1 deletes those sites, and this with them
        super().__init_subclass__(**kwargs)
        for name in ("choose", "reinforce", "on_signal", "on_replacement"):
            if name not in vars(cls):
                setattr(cls, name, vars(Receiver)[name])

    def context(self, signal: CompoundSignal):
        """The signal's ``read``: what its act is drawn from."""
        return self.urns[signal][0]

    def draw_weights(self, read) -> list[float]:
        """The weights an act is drawn from; an urn kind stores the urn."""
        return self.table.entries[read]

    def act_weights(self, signal: CompoundSignal) -> list[float]:
        """``act_distribution`` before normalizing; reading stores nothing."""
        return self.table.peek(self.context(signal))

    def act_distribution(self, signal: CompoundSignal) -> list[float]:
        return normalize_row(self.act_weights(signal), self.context(signal))

    def choose(self, signal: CompoundSignal, rng: np.random.Generator) -> int:
        return sample_weights(self.draw_weights(self.context(signal)), rng)

    def on_signal(self, signal: CompoundSignal) -> None:
        pass  # never called; perfbench/spans.py patches it (ROADMAP item 1)

    def reinforce(self, signal: CompoundSignal, act: int, reward: float) -> None:
        if reward < 0:
            raise ValueError("negative reinforcement is out of scope")
        if reward:
            entries = self.table.entries
            for key in self.urns[signal][1]:
                entries[key][act] += reward

    def on_replacement(self, old_symbol: str, new_symbol: str) -> None:
        pass  # urns holding the new symbol start at the initial weight, uninformative

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


class MinimalistReceiver(Receiver):
    """Act urns keyed by atomic message; acts picked by tempered softmax.

    Scores for a compound signal are the summed reinforcements of its atomic
    slots, and the softmax is applied to those raw sums: the figure's
    T = 2000 only bites on the accumulated-count scale.  ``draw_weights``,
    the softmax numerators, is the one read-out: a turn draws from it and
    ``act_weights`` reads it.
    """

    kind = "minimalist"
    params = ("temperature",)
    rule = staticmethod(_present_slots)

    def __init__(self, spec: GameSpec, temperature: float, initial_weight: float = 1.0):
        if not temperature > 0:
            raise ValueError(f"temperature must be positive, not {temperature!r}")
        super().__init__(spec)
        self.temperature = float(temperature)
        self.table = ReinforcementTable(self.table.options, initial_weight)

    def slot_scores(self, slots: tuple[str, ...]) -> list[float]:
        """Per-act summed reinforcement over the slots' urns, in slot order,
        reading unseen urns without storing them."""
        scores = [0.0] * self.num_acts
        get = self.table.entries.get
        fresh = self.table.entries.default_factory
        for symbol in slots:
            scores = list(map(add, scores, get(symbol) or fresh()))
        return scores

    def naive_distribution(self, signal: CompoundSignal) -> list[float]:
        """The naive rule: summed scores normalized to probabilities."""
        slots = self.context(signal)
        return normalize_row(self.slot_scores(slots), slots)

    def draw_weights(self, slots: tuple[str, ...]) -> list[float]:
        return _softmax_weights(self.slot_scores(slots), self.temperature)

    def act_weights(self, signal: CompoundSignal) -> list[float]:
        return self.draw_weights(self.context(signal))


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
    rule = staticmethod(_combinations)

    def __init__(self, spec: GameSpec, introduction_mode: str = "erasing", alpha: float = 1.0):
        if introduction_mode not in ("erasing", "preserving"):
            raise ValueError(f"unknown introduction mode {introduction_mode!r}")
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, not {alpha!r}")
        super().__init__(spec)
        self.introduction_mode = introduction_mode
        self.alpha = float(alpha)
        # symbol -> sender index; replacement adds the minted symbol here
        self.symbol_sender: dict[str, int] = {
            m: i for i, alphabet in enumerate(spec.sender_alphabets) for m in alphabet
        }

    @property
    def act_counts(self) -> ReinforcementTable:
        """The act urns under their former name."""
        return self.table

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
    """The receiver that ``Receiver.to_json_dict`` wrote as ``data``; its
    settings that are numbers must be JSON numbers."""
    numbers = {k: _number(data[k], k) for k in ("temperature", "alpha") if k in data}
    receiver = make_receiver(spec, data["kind"], **{**data, **numbers})
    for name in receiver.state:
        setattr(receiver, name, dict(data[name]))  # pair lists of older files too
    receiver.table = ReinforcementTable.from_json_dict(data["table"])
    return receiver
