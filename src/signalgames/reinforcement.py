"""Urn-style reinforcement primitives shared by all agents.

A :class:`ReinforcementTable` is a keyed collection of urns: each context key
maps to a vector of accumulated weights, one per option.  Choice probabilities
are proportional to accumulated weight (Herrnstein matching), and sampling is
driven by a seeded ``numpy`` generator so runs are reproducible bit-for-bit.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from typing import Hashable, Iterable, Sequence

import numpy as np

# Uniforms fetched per refill by BlockUniforms: a few KB, whatever the run length.
BLOCK = 1024


class DegenerateContextError(ValueError):
    """Weights that total zero or a non-finite value: no proportional choice."""


class SymbolCollisionError(ValueError):
    """A relabel or introduction would reuse an existing symbol."""


def fold_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum, the same on every Python version: ``sum`` is
    compensated from Python 3.12 on, so its totals there differ in the last
    digit."""
    total = 0.0
    for value in values:
        total += value
    return total


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic random stream: same seed, same draws, any platform."""
    return np.random.default_rng(seed)


class BlockUniforms:
    """``rng`` for the turn loop: ``random()`` returns the floats that
    successive ``rng.random()`` calls would, fetched ``BLOCK`` at a time.

    ``rng.random(n)`` yields the same n floats as n scalar calls, so only the
    per-call cost changes: ``random`` is a C-level ``__next__``, not a frame.
    """

    def __init__(self, rng: np.random.Generator):
        blocks = iter(lambda: rng.random(BLOCK).tolist(), None)
        self.random = itertools.chain.from_iterable(blocks).__next__


class ReinforcementTable:
    """Map from context key to per-option accumulated weights.

    An unseen context reads as ``initial_weight`` for every option, so fresh
    contexts behave uniformly.  ``entries`` is a ``defaultdict`` whose factory
    copies a row of ``initial_weight``s, so one rule holds: indexing it (as
    :meth:`weights`, :meth:`reinforce` and the agents do) stores an urn, while
    ``entries.get``, :meth:`peek` and :meth:`distribution` store nothing.  Weights
    are plain floats; fractional values are allowed (the
    information-preserving initialization needs them).
    """

    def __init__(self, options: Sequence[Hashable], initial_weight: float = 1.0):
        if not options:
            raise ValueError("option set must be non-empty")
        if not 0.0 <= initial_weight < math.inf:
            raise ValueError(f"initial weight {initial_weight} is not finite and non-negative")
        self.options = list(options)
        self.position = {option: i for i, option in enumerate(self.options)}
        self.initial_weight = float(initial_weight)
        # the factory is the row's own bound copy, not the table's: no cycle
        self.entries = defaultdict(([self.initial_weight] * len(self.options)).copy)

    def weights(self, context: Hashable) -> list[float]:
        """Weight vector for a context, materializing it if unseen."""
        return self.entries[context]

    def peek(self, context: Hashable) -> list[float]:
        """Weight vector for a context, without materializing it if unseen."""
        row = self.entries.get(context)
        return self.entries.default_factory() if row is None else row

    def distribution(self, context: Hashable) -> list[float]:
        """Weights normalized to a probability vector (matching law)."""
        row = self.peek(context)
        total = fold_sum(row)
        if not 0.0 < total < math.inf:
            raise DegenerateContextError(f"weights for context {context!r} total {total!r}")
        return [w / total for w in row]

    def reinforce(self, context: Hashable, option: Hashable, amount: float) -> None:
        """Add ``amount`` balls of ``option`` to the ``context`` urn."""
        if amount < 0:
            raise ValueError("negative reinforcement is out of scope")
        self.entries[context][self.position[option]] += amount

    def relabel(self, old_symbol: Hashable, new_symbol: Hashable) -> None:
        """Rename a symbol wherever it appears, keeping every weight.

        Symbols are renamed in option labels and inside context keys.  A no-op
        if ``old_symbol`` is absent; ``SymbolCollisionError`` if ``new_symbol``
        is in use, ``old_symbol`` included.
        """
        if not self.uses(old_symbol):
            return
        if self.uses(new_symbol):
            raise SymbolCollisionError(f"symbol {new_symbol!r} already in use")
        names = {old_symbol: new_symbol}
        self.options = [_map_key(o, names) for o in self.options]
        self.position = {option: i for i, option in enumerate(self.options)}
        renamed = [(_map_key(k, names), v) for k, v in self.entries.items()]
        self.entries.clear()
        self.entries.update(renamed)

    def uses(self, symbol: Hashable) -> bool:
        """Whether ``symbol`` is an option or part of a stored context key."""
        return symbol in self.options or any(symbol in _key_parts(k) for k in self.entries)

    def to_json_dict(self) -> dict:
        rows = [{"context": _key_to_json(k), "weights": list(v)} for k, v in self.entries.items()]
        return {
            "options": list(self.options),
            "initial_weight": self.initial_weight,
            "entries": sorted(rows, key=lambda row: repr(row["context"])),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ReinforcementTable":
        """The table ``to_json_dict`` wrote; ``ValueError`` unless its options
        are distinct, no context appears twice and each row holds one finite,
        non-negative weight per option."""
        table = cls(data["options"], data["initial_weight"])
        if len(table.position) != len(table.options):
            raise ValueError(f"options {data['options']} are not distinct")
        for entry in data["entries"]:
            row = [float(w) for w in entry["weights"]]
            if len(row) != len(table.options) or not all(0.0 <= w < math.inf for w in row):
                raise ValueError(
                    f"context {entry['context']} needs one finite, non-negative weight "
                    f"per option, not {entry['weights']}"
                )
            key = _key_from_json(entry["context"])
            if key in table.entries:
                raise ValueError(f"context {entry['context']} appears twice")
            table.entries[key] = row
        return table


def sample_weights(weights: Sequence[float], rng: np.random.Generator) -> int:
    """Draw an index with probability proportional to its weight, consuming
    one draw; the last index absorbs accumulated rounding.  The total, the
    left fold of ``fold_sum`` inlined, must be finite and positive."""
    total = 0.0
    for w in weights:
        total += w
    if not 0.0 < total < math.inf:
        raise DegenerateContextError(f"cannot sample from weights totalling {total!r}")
    r = rng.random() * total
    acc = 0.0
    i = 0  # a counter, not enumerate: no tuple to unpack per weight
    for w in weights:
        acc += w
        if r < acc:
            return i
        i += 1
    return i - 1


def _key_parts(key: Hashable) -> tuple:
    """The symbols of a context key.  A key is a state or a symbol, a tuple of
    symbols (one per slot) or a frozenset of symbols; no key holds a key."""
    return tuple(key) if isinstance(key, (tuple, frozenset)) else (key,)


def _map_key(key: Hashable, names: dict) -> Hashable:
    """``key``, of the same type, with each symbol in ``names`` renamed."""
    if isinstance(key, (tuple, frozenset)):
        return type(key)(names.get(m, m) for m in key)
    return names.get(key, key)


def _key_to_json(key: Hashable):
    # sets as sorted lists: a dump does not depend on string hashing
    if isinstance(key, tuple):
        return {"tuple": list(key)}
    if isinstance(key, frozenset):
        return {"set": sorted(key)}
    return key


def _key_from_json(data):
    if isinstance(data, dict) and "tuple" in data:
        return tuple(data["tuple"])
    if isinstance(data, dict) and "set" in data:
        return frozenset(data["set"])
    return data
