import functools
import itertools
import math
import operator
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signalgames.reinforcement import (
    BLOCK,
    BlockUniforms,
    DegenerateContextError,
    ReinforcementTable,
    SymbolCollisionError,
    fold_sum,
    make_rng,
    sample_weights,
)


def test_lazy_contexts_start_uniform():
    table = ReinforcementTable(["a", "b", "c"])
    assert table.distribution("fresh") == [1 / 3, 1 / 3, 1 / 3]
    # materialization is idempotent
    table.reinforce("fresh", "a", 2.0)
    assert table.weights("fresh") == [3.0, 1.0, 1.0]
    assert table.distribution("fresh") == [0.6, 0.2, 0.2]


def test_matching_law_proportionality():
    rng = make_rng(7)
    for _ in range(200):
        weights = rng.random(4) + 0.01
        table = ReinforcementTable(list(range(4)), 0.0)
        for i, w in enumerate(weights):
            table.reinforce("ctx", i, float(w))
        dist = np.array(table.distribution("ctx"))
        assert np.allclose(dist, weights / weights.sum(), atol=1e-12)


def test_distribution_scale_invariance():
    # scaling every weight by a constant leaves the distribution unchanged
    rng = make_rng(11)
    for _ in range(200):
        weights = rng.random(5) + 0.01
        scale = float(rng.random() * 100 + 0.1)
        t1 = ReinforcementTable(list(range(5)), 0.0)
        t2 = ReinforcementTable(list(range(5)), 0.0)
        for i, w in enumerate(weights):
            t1.reinforce("c", i, float(w))
            t2.reinforce("c", i, float(w * scale))
        d1 = np.array(t1.distribution("c"))
        d2 = np.array(t2.distribution("c"))
        assert np.max(np.abs(d1 - d2)) < 1e-12


def test_negative_reinforcement_rejected():
    table = ReinforcementTable(["x", "y"])
    with pytest.raises(ValueError):
        table.reinforce("c", "x", -1.0)


def test_degenerate_context():
    table = ReinforcementTable(["x", "y"], initial_weight=0.0)
    with pytest.raises(DegenerateContextError):
        table.distribution("c")


def test_relabel_options_exact():
    table = ReinforcementTable(["red", "blue"], 0.0)
    table.reinforce("s0", "red", 3.0)
    table.reinforce("s0", "blue", 1.0)
    table.relabel("red", "rouge")
    assert table.options == ["rouge", "blue"]
    assert table.weights("s0") == [3.0, 1.0]  # weights carried over exactly


def test_relabel_tuple_and_frozenset_keys():
    table = ReinforcementTable([0, 1], 0.0)
    table.reinforce(("mA0", "mB0"), 0, 5.0)
    table.reinforce(frozenset({"mA0", "mB0"}), 1, 2.0)
    table.relabel("mB0", "mB?")
    assert table.weights(("mA0", "mB?")) == [5.0, 0.0]
    assert table.weights(frozenset({"mA0", "mB?"})) == [0.0, 2.0]
    assert ("mA0", "mB0") not in table.entries


def test_relabel_collision_and_noop():
    table = ReinforcementTable(["a", "b"])
    with pytest.raises(SymbolCollisionError):
        table.relabel("a", "b")
    with pytest.raises(SymbolCollisionError):
        table.relabel("a", "a")  # the one rule Sender.replace_message relies on
    before = table.to_json_dict()
    table.relabel("zzz", "qqq")  # absent symbol: no-op
    assert table.to_json_dict() == before


def test_json_round_trip():
    table = ReinforcementTable([0, 1, 2], 1.0)
    table.reinforce(("mA0", "mB1"), 2, 4.5)
    table.reinforce(frozenset({"mA1"}), 0, 1.25)
    copy = ReinforcementTable.from_json_dict(table.to_json_dict())
    assert copy.options == table.options
    assert copy.initial_weight == table.initial_weight
    assert copy.entries == table.entries


def test_sample_matches_distribution():
    rng = make_rng(3)
    dist = [0.5, 0.25, 0.25]
    counts = [0, 0, 0]
    n = 20000
    for _ in range(n):
        counts[sample_weights(dist, rng)] += 1
    freqs = [c / n for c in counts]
    assert all(abs(f - p) < 0.02 for f, p in zip(freqs, dist))


def test_sample_weights_determinism():
    draws1 = [sample_weights([1, 2, 3], make_rng(5)) for _ in range(1)]
    draws2 = [sample_weights([1, 2, 3], make_rng(5)) for _ in range(1)]
    assert draws1 == draws2
    rng1, rng2 = make_rng(9), make_rng(9)
    seq1 = [sample_weights([2.0, 1.0, 1.0], rng1) for _ in range(100)]
    seq2 = [sample_weights([2.0, 1.0, 1.0], rng2) for _ in range(100)]
    assert seq1 == seq2


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_block_uniforms_match_scalar_draws_across_refills(seed):
    # three refills and part of a fourth: a dropped or repeated value at a
    # block boundary shifts every later draw
    n = 3 * BLOCK + 7
    uniforms, rng = BlockUniforms(make_rng(seed)), make_rng(seed)
    assert [uniforms.random() for _ in range(n)] == [rng.random() for _ in range(n)]
    uniforms, rng = BlockUniforms(make_rng(seed)), make_rng(seed)
    weights = [2.0, 1.0, 0.5, 3.0]
    assert [sample_weights(weights, uniforms) for _ in range(n)] == [
        sample_weights(weights, rng) for _ in range(n)
    ]


def test_sample_weights_rejects_zero_mass():
    with pytest.raises(DegenerateContextError):
        sample_weights([0.0, 0.0], make_rng(0))


def test_sample_guard_on_rounding():
    # probabilities summing to slightly under 1 still return a valid index
    rng = make_rng(1)
    for _ in range(1000):
        idx = sample_weights([0.3, 0.3, 0.3999999999], rng)
        assert 0 <= idx <= 2
    assert math.isclose(sum([0.3, 0.3, 0.3999999999]), 1.0, abs_tol=1e-9)


class FixedDraw:
    """An ``rng`` whose every draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_totals_fold_left_to_right():
    rng = make_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        row = (rng.random(n) * 10.0 ** rng.integers(-3, 17, n)).tolist()  # mixed scales
        assert fold_sum(row) == functools.reduce(operator.add, row, 0.0)
    # A left fold absorbs each 1.0 into 1e16; a compensated sum (``sum`` from
    # Python 3.12 on) totals this row as 1e16 + 2.
    row = [1e16, 1.0, 1.0]
    assert fold_sum(row) == 1e16
    table = ReinforcementTable(["a", "b", "c"])
    table.entries["x"] = row
    assert table.distribution("x")[0] == 1.0
    # the draw lands just under the total: under 1e16 (index 0) only when the
    # total is 1e16
    assert sample_weights(row, FixedDraw(1 - 2**-53)) == 0


# -- one rule for storing urns ----------------------------------------------


def trained_table():
    table = ReinforcementTable([0, 1], 0.5)
    table.reinforce(("mA0", "mB0"), 1, 2.0)
    table.reinforce(frozenset({"mB0"}), 0, 1.0)
    return table


def relabeled(table):
    table.relabel("mB0", "mB?")
    return table


@pytest.mark.parametrize(
    "rebuild",
    [
        lambda table: table,
        lambda table: pickle.loads(pickle.dumps(table)),
        lambda table: ReinforcementTable.from_json_dict(table.to_json_dict()),
        relabeled,
    ],
    ids=["built", "pickled", "from-json", "relabeled"],
)
def test_indexing_stores_an_unseen_urn_and_reads_do_not(rebuild):
    table = rebuild(trained_table())
    stored = dict(table.entries)
    assert table.peek("unseen") == [0.5, 0.5]
    assert table.distribution("unseen") == [0.5, 0.5]
    assert table.entries.get("unseen") is None and "unseen" not in table.entries
    assert table.to_json_dict() == rebuild(trained_table()).to_json_dict()
    assert table.entries == stored
    row = table.entries["unseen"]
    assert row == [0.5, 0.5] and table.entries["unseen"] is row
    assert table.entries == dict(stored, unseen=[0.5, 0.5])
    table.reinforce("other", 1, 1.0)
    assert table.weights("other") == [0.5, 1.5]


# -- sample_weights rejects a total that is not finite and positive --------


@pytest.mark.parametrize(
    "weights",
    [[math.inf, 1.0], [math.nan, 1.0], [1.0, -math.inf], [1e308, 1e308], [0.0, 0.0], []],
)
def test_sample_weights_rejects_a_total_not_finite_and_positive(weights):
    with pytest.raises(DegenerateContextError):
        sample_weights(weights, FixedDraw(0.5))


def reference_sample(row, draw):
    """The index a left-fold total and a first-crossing scan choose, or None
    when the total is not finite and positive."""
    total = functools.reduce(operator.add, row, 0.0)
    if not (math.isfinite(total) and total > 0.0):
        return None
    r = draw * total
    crossings = [i for i, acc in enumerate(itertools.accumulate(row)) if r < acc]
    return crossings[0] if crossings else len(row) - 1


WEIGHTS = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=1e16),
    st.sampled_from([math.inf, math.nan]),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    row=st.lists(WEIGHTS, min_size=1, max_size=6),
    draw=st.one_of(st.sampled_from([0.0, 1 - 2**-53]), st.floats(0.0, 1.0, exclude_max=True)),
)
def test_sample_weights_matches_the_left_fold_reference(row, draw):
    expected = reference_sample(row, draw)
    if expected is None:
        with pytest.raises(DegenerateContextError):
            sample_weights(row, FixedDraw(draw))
    else:
        assert sample_weights(row, FixedDraw(draw)) == expected
