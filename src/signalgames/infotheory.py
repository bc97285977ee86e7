"""Exact information metrics computed analytically from policy snapshots.

Everything is in bits (log base 2).  Zero conditional probabilities produce a
negative-infinity sentinel in content tables; the sentinel is set by an exact
zero test, never by floating-point underflow.  Metrics are exact expectations
over states, messages and acts: no empirical sampling enters here.

Every metric is an array expression over two tensors of a snapshot: the
joint ``P(state, m_1, ..., m_k)``, derived from its fields on each call, and
the receiver conditionals ``rho(act | m_1, ..., m_k)`` it holds.  Reported
totals are summed left to right in signal order (:func:`ordered_sum`), so
they do not depend on how numpy groups the terms of a long sum.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .game import CompoundSignal, signal_label
from .reinforcement import fold_sum

NEG_INF = float("-inf")

# Conditionals at or below this are treated as exact zeros for the sentinel.
ZERO_TOL = 1e-15

NORM_TOL = 1e-9


def ordered_sum(terms) -> float:
    """Left-to-right sum in C order; ``ndarray.sum`` pairs terms from 8 on."""
    return fold_sum(np.ravel(terms).tolist())


def csv_cell(value: float) -> str:
    """A metric value as written to CSV files, with the -inf sentinel."""
    return "-inf" if value == NEG_INF else f"{value:.12g}"


def _check_normalized(p: np.ndarray, name: str) -> None:
    """Raise unless every vector along the last axis is a distribution."""
    if (p < -ZERO_TOL).any():
        raise ValueError(f"{name} has negative entries")
    sums = p.sum(axis=-1)
    off = np.abs(sums - 1.0) > NORM_TOL
    if off.any():
        raise ValueError(f"{name} sums to {float(np.extract(off, sums)[0])!r}, not 1")


def pointwise_info(p_cond: float, p_prior: float) -> float:
    """log2(p_cond / p_prior); the -inf sentinel when p_cond is zero."""
    if p_prior <= 0:
        raise ValueError("prior probability must be positive")
    if p_cond <= ZERO_TOL:
        return NEG_INF
    return math.log2(p_cond / p_prior)


def _average_info(q: np.ndarray, cond: np.ndarray, prior: np.ndarray) -> float:
    """Sum of q(m) * KL(cond[m] || prior) in bits over messages with q(m) > ZERO_TOL.

    ``q`` holds one probability per message, in any shape; ``cond`` has that
    shape plus a trailing axis over the outcomes ``prior`` is defined on.
    Only the conditionals of messages that are sent are checked.
    """
    sent = q > ZERO_TOL
    if not sent.any():
        return 0.0
    _check_normalized(cond[sent], "conditional")
    _check_normalized(prior, "prior")
    if (prior <= 0).any():
        raise ValueError("prior must be strictly positive")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(cond > ZERO_TOL, cond * np.log2(cond / prior), 0.0)
    return ordered_sum(np.where(sent, q * terms.sum(axis=-1), 0.0))


def signal_info(p_cond: Sequence[float], p_prior: Sequence[float]) -> float:
    """KL divergence (bits) from prior to the post-signal conditional."""
    cond = np.asarray(p_cond, dtype=float)
    return _average_info(np.array(1.0), cond, np.asarray(p_prior, dtype=float))


def mutual_info(joint: Sequence[Sequence[float]]) -> float:
    """Mutual information (bits) of a joint distribution matrix."""
    j = np.asarray(joint, dtype=float)
    _check_normalized(j.ravel(), "joint")
    independent = np.outer(j.sum(axis=1), j.sum(axis=0))  # P(s) P(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(j > ZERO_TOL, j * np.log2(j / independent), 0.0)
    return ordered_sum(terms)


@dataclass
class PolicySnapshot:
    """Frozen conditional distributions of all agents at one turn.

    ``receiver_conditionals`` is rho(act | m_1, ..., m_k), of shape
    (|M_1|, ..., |M_k|, A), its axes in alphabet order.  :meth:`joint`
    derives the joint from the fields on every call, so reassigning a field
    is safe.
    """

    state_prior: np.ndarray
    sender_alphabets: tuple[tuple[str, ...], ...]
    sender_conditionals: list[np.ndarray]  # one |S| x |alphabet| matrix per sender
    receiver_conditionals: np.ndarray

    def __post_init__(self):
        self.state_prior = np.asarray(self.state_prior, dtype=float)
        self.sender_conditionals = [
            np.asarray(m, dtype=float) for m in self.sender_conditionals
        ]
        self.receiver_conditionals = np.asarray(self.receiver_conditionals, dtype=float)
        sizes = tuple(map(len, self.sender_alphabets))
        if self.receiver_conditionals.shape[:-1] != sizes:
            raise ValueError(f"receiver conditionals do not match alphabet sizes {sizes}")

    @property
    def num_states(self) -> int:
        return len(self.state_prior)

    @property
    def num_acts(self) -> int:
        return self.receiver_conditionals.shape[-1]

    def signals(self) -> list[CompoundSignal]:
        """All compound signals, in product order: the C order of the arrays."""
        return list(itertools.product(*self.sender_alphabets))

    def joint(self) -> np.ndarray:
        """P(state, m_1, ..., m_k), of shape (S, |M_1|, ..., |M_k|)."""
        probs = np.ones(self.num_states)  # P(m_1, ..., m_i | state)
        for i, cond in enumerate(self.sender_conditionals):
            probs = probs[..., None] * cond.reshape((len(cond),) + (1,) * i + (-1,))
        return self.state_prior.reshape((-1,) + (1,) * (probs.ndim - 1)) * probs

    def signal_marginal(self) -> dict[CompoundSignal, float]:
        """Q(signal) induced by the prior and current sender policies."""
        return dict(zip(self.signals(), self.joint().sum(axis=0).ravel().tolist()))

    def sender_of(self, symbol: str) -> int:
        for i, alphabet in enumerate(self.sender_alphabets):
            if symbol in alphabet:
                return i
        raise KeyError(f"unknown symbol {symbol!r}")


def sender_average_info(snapshot: PolicySnapshot) -> float:
    """Average information the compound signals carry about states (bits)."""
    joint = snapshot.joint().reshape(snapshot.num_states, -1)  # one column per signal
    q = joint.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        posterior = (joint / q).T
    return _average_info(q, posterior, snapshot.state_prior)


def receiver_average_info(snapshot: PolicySnapshot) -> float:
    """Average information the compound signals carry about acts (bits).

    Acts are read against the state prior.  ``game.validate`` requires as
    many acts as states, so information about acts has the same baseline
    as information about states: converged tables show log2(1/P(s)) cells
    and fresh signals show all-zero rows.  Acts tables use the same
    baseline.
    """
    q = snapshot.joint().sum(axis=0)
    return _average_info(q, snapshot.receiver_conditionals, snapshot.state_prior)


def csv_text(rows) -> str:
    """``rows`` as CRLF-terminated CSV, quoting only fields that hold a comma, quote or newline."""
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


@dataclass
class InfoTable:
    """Tabular information content: rows of pointwise info in bits."""

    row_labels: list[str]
    col_labels: list[str]
    cells: np.ndarray

    def to_csv(self) -> str:
        rows = [[label, *map(csv_cell, row)] for label, row in zip(self.row_labels, self.cells)]
        return csv_text([["", *self.col_labels], *rows])


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den``, and ``num`` where ``den`` is 0 (a message never sent)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, num / den, num)


def _slot_average(q: np.ndarray, rho: np.ndarray, axis: int) -> np.ndarray:
    """The receiver conditionals ``rho`` averaged over one ``axis`` of the
    signals, weighted by how often each signal arrives (``q``)."""
    return _ratio((q[..., None] * rho).sum(axis=axis), q.sum(axis=axis)[..., None])


def info_table(snapshot: PolicySnapshot, rows: str = "atomic", cols: str = "states") -> InfoTable:
    """Info vectors for all atomic messages or all compound signals.

    A cell is the pointwise info of P(column | row) against the state prior,
    for acts too (see receiver_average_info).  Rows of messages that are never
    sent keep all-zero conditionals.
    """
    if rows not in ("atomic", "compound") or cols not in ("states", "acts"):
        raise ValueError("rows must be 'atomic' or 'compound' and cols 'states' or 'acts'")
    if rows == "compound" and cols == "acts":
        cond = snapshot.receiver_conditionals.reshape(-1, snapshot.num_acts)
    elif rows == "compound":
        num = snapshot.joint().reshape(snapshot.num_states, -1).T
        cond = _ratio(num, num.sum(axis=1, keepdims=True))
    elif cols == "states":
        prior = snapshot.state_prior[:, None]
        num = np.concatenate([(prior * p).T for p in snapshot.sender_conditionals])
        cond = _ratio(num, num.sum(axis=1, keepdims=True))
    else:
        # acts of an atomic message: the average over the signals that hold it,
        # their other messages on one axis (summing over several moves last bits)
        q, rho = snapshot.joint().sum(axis=0), snapshot.receiver_conditionals
        cond = np.concatenate([
            _slot_average(
                np.moveaxis(q, i, 0).reshape(size, -1),
                np.moveaxis(rho, i, 0).reshape(size, -1, snapshot.num_acts),
                axis=1,
            )
            for i, size in enumerate(q.shape)
        ])
    if rows == "compound":
        labels = list(map(signal_label, snapshot.signals()))
    else:
        labels = [m for alphabet in snapshot.sender_alphabets for m in alphabet]
    # cell by cell through pointwise_info: math.log2 and np.log2 differ in
    # the last bit for some arguments, and table cells are math.log2 values
    priors = np.broadcast_to(snapshot.state_prior, cond.shape).ravel().tolist()
    cells = np.fromiter(map(pointwise_info, cond.ravel().tolist(), priors), float, cond.size)
    col_labels = [f"{cols[0]}{i}" for i in range(cond.shape[1])]  # s0, s1, ... or a0, a1, ...
    return InfoTable(labels, col_labels, cells.reshape(cond.shape))


def compositional_conditionals(
    snapshot: PolicySnapshot, old_symbol: str, new_symbol: str = None
) -> PolicySnapshot:
    """The post-replacement snapshot a compositional interpreter would hold.

    Senders are unchanged up to the renaming to ``new_symbol`` (by default
    ``old_symbol + "?"``).  Signals containing the new symbol inherit the
    conditional of their remaining components: the pre-replacement receiver
    conditionals averaged over the replaced slot, weighted by how often each
    signal arrives.  Other signals keep theirs.
    """
    if new_symbol is None:
        new_symbol = old_symbol + "?"
    slot = snapshot.sender_of(old_symbol)
    alphabet = snapshot.sender_alphabets[slot]
    average = _slot_average(snapshot.joint().sum(axis=0), snapshot.receiver_conditionals, slot)
    post = snapshot.receiver_conditionals.copy()
    post[(slice(None),) * slot + (alphabet.index(old_symbol),)] = average
    alphabets = list(snapshot.sender_alphabets)
    alphabets[slot] = tuple(new_symbol if m == old_symbol else m for m in alphabet)
    return PolicySnapshot(
        state_prior=snapshot.state_prior,
        sender_alphabets=tuple(alphabets),
        sender_conditionals=snapshot.sender_conditionals,
        receiver_conditionals=post,
    )


def compositional_expectation(
    snapshot: PolicySnapshot, old_symbol: str, new_symbol: str = None
) -> InfoTable:
    """Acts table a perfectly compositional interpreter would show after
    replacing ``old_symbol`` by a fresh symbol."""
    post = compositional_conditionals(snapshot, old_symbol, new_symbol)
    return info_table(post, rows="compound", cols="acts")


def compositional_expected_average(
    snapshot: PolicySnapshot, old_symbol: str, new_symbol: str = None
) -> float:
    """Average transmitted information under the compositional expectation."""
    post = compositional_conditionals(snapshot, old_symbol, new_symbol)
    return receiver_average_info(post)
