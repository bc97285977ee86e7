"""Exact information metrics computed analytically from policy snapshots.

Everything is in bits (log base 2).  Zero conditional probabilities produce a
negative-infinity sentinel in content tables; the sentinel is set by an exact
zero test, never by floating-point underflow.  Metrics are exact expectations
over states, messages and acts: no empirical sampling enters here.

Every metric is an array expression over two tensors: the joint
``P(state, m_1, ..., m_k)`` and the receiver conditionals
``rho(act | m_1, ..., m_k)``.  Each is written once over a leading snapshot
axis, so a run's N snapshots are measured in one pass and a single
:class:`PolicySnapshot` is the case N = 1.  Reported totals are summed left to
right in signal order (:func:`reinforcement.fold`), so they do not depend on
how numpy groups the terms of a long sum.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

from .game import CompoundSignal, signal_label
from .reinforcement import fold

NEG_INF = float("-inf")

# Conditionals at or below this are treated as exact zeros for the sentinel.
ZERO_TOL = 1e-15

NORM_TOL = 1e-9


def csv_cell(value: float) -> str:
    """A metric value as written to CSV files, with the -inf sentinel."""
    return "-inf" if value == NEG_INF else f"{value:.12g}"


def _check_normalized(p: np.ndarray, name: str, rows=True) -> None:
    """Raise unless every vector along the last axis of ``p`` (N, ..., n) is a
    distribution; ``rows`` (N, ...) selects the vectors to check."""
    if ((p < -ZERO_TOL).any(axis=-1) & rows).any():
        raise ValueError(f"{name} has negative entries")
    sums = p.sum(axis=-1)
    off = (np.abs(sums - 1.0) > NORM_TOL) & rows
    if off.any():
        raise ValueError(f"{name} sums to {float(sums[off][0])!r}, not 1")


def pointwise_info(p_cond: float, p_prior: float) -> float:
    """log2(p_cond / p_prior); the -inf sentinel when p_cond is zero."""
    if p_prior <= 0:
        raise ValueError("prior probability must be positive")
    if p_cond <= ZERO_TOL:
        return NEG_INF
    return math.log2(p_cond / p_prior)


def _average_info(q: np.ndarray, cond: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Per snapshot, the sum of q(m) * KL(cond[m] || prior) in bits over
    messages with q(m) > ZERO_TOL.

    ``q`` holds one probability per message, in any shape after the snapshot
    axis; ``cond`` has that shape plus a trailing axis over the outcomes
    ``prior`` is defined on.  Only the conditionals of messages that are sent
    are checked.
    """
    sent = q > ZERO_TOL
    _check_normalized(cond, "conditional", sent)
    _check_normalized(prior[None], "prior")
    if (prior <= 0).any():
        raise ValueError("prior must be strictly positive")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(cond > ZERO_TOL, cond * np.log2(cond / prior), 0.0)
    return fold(np.where(sent, q * terms.sum(axis=-1), 0.0))


def signal_info(p_cond: Sequence[float], p_prior: Sequence[float]) -> float:
    """KL divergence (bits) from prior to the post-signal conditional."""
    cond = np.asarray(p_cond, dtype=float)
    return float(_average_info(np.ones(1), cond[None], np.asarray(p_prior, dtype=float))[0])


def mutual_info(joint: Sequence[Sequence[float]]) -> float:
    """Mutual information (bits) of a joint distribution matrix."""
    j = np.asarray(joint, dtype=float)
    _check_normalized(j.reshape(1, -1), "joint")
    independent = np.outer(j.sum(axis=1), j.sum(axis=0))  # P(s) P(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(j > ZERO_TOL, j * np.log2(j / independent), 0.0)
    return float(fold(terms.reshape(1, -1))[0])


def stacked_joint(prior: np.ndarray, sender_conditionals: Sequence[np.ndarray]) -> np.ndarray:
    """P(state, m_1, ..., m_k) per snapshot, of shape (N, S, |M_1|, ..., |M_k|),
    from the state prior and one (N, S, |M_i|) array per sender."""
    probs = np.ones(sender_conditionals[0].shape[:2])  # P(m_1, ..., m_i | state)
    for i, cond in enumerate(sender_conditionals):
        probs = probs[..., None] * cond.reshape(cond.shape[:2] + (1,) * i + (-1,))
    return prior.reshape((-1,) + (1,) * (probs.ndim - 2)) * probs


def stacked_sender_info(joint: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Average information the compound signals carry about states (bits),
    per snapshot of the ``stacked_joint``."""
    joint = joint.reshape(joint.shape[:2] + (-1,))  # one column per signal
    q = joint.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        posterior = (joint / q[:, None]).transpose(0, 2, 1)
    return _average_info(q, posterior, prior)


def stacked_receiver_info(joint: np.ndarray, rho: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Average information the compound signals carry about acts (bits), per
    snapshot of the ``stacked_joint`` and the receiver conditionals ``rho``.

    Acts are read against the state prior.  ``game.validate`` requires as
    many acts as states, so information about acts has the same baseline
    as information about states: converged tables show log2(1/P(s)) cells
    and fresh signals show all-zero rows.  Acts tables use the same
    baseline.
    """
    return _average_info(joint.sum(axis=1), rho, prior)


def _read_only(array) -> np.ndarray:
    """A float view of ``array`` that cannot be written through."""
    view = np.asarray(array, dtype=float).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class PolicySnapshot:
    """Frozen conditional distributions of all agents at one turn.

    ``receiver_conditionals`` is rho(act | m_1, ..., m_k), of shape
    (|M_1|, ..., |M_k|, A), its axes in alphabet order.  A snapshot is
    read-only, also after pickling: its fields cannot be reassigned and its
    arrays are views that cannot be written through.  So :meth:`joint` is
    computed once, when the snapshot is built, unless the caller already
    holds the joint of these fields and passes it as ``given_joint``.
    """

    state_prior: np.ndarray
    sender_alphabets: tuple[tuple[str, ...], ...]
    sender_conditionals: tuple[np.ndarray, ...]  # one |S| x |alphabet| matrix per sender
    receiver_conditionals: np.ndarray
    given_joint: InitVar[np.ndarray] = None
    _joint: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, given_joint):
        prior = _read_only(self.state_prior)
        senders = tuple(map(_read_only, self.sender_conditionals))
        rho = _read_only(self.receiver_conditionals)
        sizes = tuple(map(len, self.sender_alphabets))
        if rho.shape[:-1] != sizes:
            raise ValueError(f"receiver conditionals do not match alphabet sizes {sizes}")
        if given_joint is None:
            given_joint = stacked_joint(prior, [m[None] for m in senders])[0]
        names = ("state_prior", "sender_conditionals", "receiver_conditionals", "_joint")
        for name, value in zip(names, (prior, senders, rho, _read_only(given_joint))):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # rebuilt through __init__, so a batch worker's snapshots stay read-only
        return PolicySnapshot, (
            self.state_prior,
            self.sender_alphabets,
            self.sender_conditionals,
            self.receiver_conditionals,
            self._joint,
        )

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
        return self._joint

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
    return float(stacked_sender_info(snapshot.joint()[None], snapshot.state_prior)[0])


def receiver_average_info(snapshot: PolicySnapshot) -> float:
    """Average information the compound signals carry about acts (bits); see
    :func:`stacked_receiver_info`."""
    joint, rho = snapshot.joint()[None], snapshot.receiver_conditionals[None]
    return float(stacked_receiver_info(joint, rho, snapshot.state_prior)[0])


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
        given_joint=snapshot.joint(),  # the senders are unchanged
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
