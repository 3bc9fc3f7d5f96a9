"""Unit tests for branch and memory-dependence predictors."""

from repro.core.branch import GsharePredictor
from repro.core.memdep import MemDepPredictor

import pytest


def test_gshare_learns_always_taken():
    bp = GsharePredictor(history_bits=8)
    for _ in range(50):
        bp.predict_and_update(0x40, taken=True)
    correct = bp.predict_and_update(0x40, taken=True)
    assert correct


def test_gshare_learns_periodic_pattern():
    bp = GsharePredictor(history_bits=10)
    pattern = [True, True, True, False]
    for _ in range(100):
        for taken in pattern:
            bp.predict_and_update(0x80, taken)
    # after training, a full period should predict perfectly
    results = [bp.predict_and_update(0x80, taken) for taken in pattern * 4]
    assert all(results)


def test_gshare_counts_mispredicts():
    bp = GsharePredictor()
    import random
    rng = random.Random(7)
    for _ in range(200):
        bp.predict_and_update(0x11, rng.random() < 0.5)
    assert 0 < bp.mispredicts <= bp.lookups
    assert 0.0 <= bp.accuracy <= 1.0


def test_gshare_validation():
    with pytest.raises(ValueError):
        GsharePredictor(history_bits=0)


def test_memdep_trains_and_matches():
    md = MemDepPredictor()
    assert not md.must_wait(load_pc=10, store_pc=20)
    md.train_violation(load_pc=10, store_pc=20)
    assert md.must_wait(load_pc=10, store_pc=20)
    assert not md.must_wait(load_pc=10, store_pc=21)


def test_memdep_predicted_stores():
    md = MemDepPredictor()
    md.train_violation(5, 7)
    md.train_violation(5, 9)
    assert md.predicted_stores(5) == {7, 9}
    assert md.predicted_stores(6) == set()


def test_memdep_set_size_bounded():
    md = MemDepPredictor(max_set_size=2)
    for store_pc in range(10):
        md.train_violation(1, store_pc)
    assert len(md.predicted_stores(1)) <= 2


def test_gshare_copy_carries_the_trained_state_and_is_independent():
    bp = GsharePredictor()
    for i in range(300):
        bp.predict_and_update(i % 7, i % 3 == 0)

    def state(p):
        return (bytes(p._counters), p._history, p.lookups, p.mispredicts)
    before = state(bp)
    copy = bp.copy()
    assert state(copy) == before
    for i in range(300):
        copy.predict_and_update(i % 5, i % 2 == 0)
    assert state(copy) != before
    assert state(bp) == before
