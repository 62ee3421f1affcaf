"""Tests for repro.blas — the scoped one-thread BLAS cap on the cost-model path."""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import blas
from repro.config import ONLINE_TRAIN
from repro.costmodel import PaCM, TenSetMLP, make_labels
from repro.hardware.device import get_device
from repro.hardware.simulator import GroundTruthSimulator
from repro.nn import pairwise_rank_accuracy
from repro.rng import make_rng
from repro.schedule import generate_sketch
from repro.schedule.batch import lower_batch
from repro.schedule.sampler import random_batch
from repro.workloads import network_tasks


@pytest.fixture
def threads():
    """The mapped OpenBLAS's thread-count getter, read independently of the scope."""
    name, get, set_ = blas._find()
    if name is None:
        pytest.skip("no OpenBLAS mapped into this process")
    before = get()
    set_(max(before, 2))  # "capped" and "restored" must differ on a one-core box too
    yield get
    set_(before)


@pytest.fixture
def no_library(monkeypatch):
    """A process without /proc: the lookup finds nothing, as under MKL or Accelerate."""

    def no_proc(*args, **kwargs):
        raise FileNotFoundError("/proc/self/maps")

    monkeypatch.setattr(blas, "open", no_proc, raising=False)
    monkeypatch.setattr(blas, "_API", ())  # look up again; the real triple comes back after


@pytest.fixture(scope="module")
def paper_round():
    """The last round of a paper-scale online job on resnet50's six heaviest
    tasks: 24 rounds x 10 trials = 240 measured records, and a 512-row draft."""
    sim = GroundTruthSimulator(get_device("a100"))
    rng = make_rng(0)
    measured, keys = [], []
    for task in network_tasks("resnet50", top_k=6):
        space = generate_sketch(task.workload)
        measured.append(lower_batch(space, random_batch(space, rng, 40)))
        keys += [task.workload.key] * len(measured[-1])
    draft = lower_batch(space, random_batch(space, rng, 512))
    assert (len(keys), len(draft)) == (240, 512)
    lats = np.concatenate([sim.latency_batch(batch) for batch in measured])
    return measured, lats, keys, draft


def _fit_predict(model, paper_round):
    measured, lats, keys, draft = paper_round
    features = np.concatenate([model.featurize_batch(batch) for batch in measured])
    model.fit(features, lats, keys, ONLINE_TRAIN, make_rng(1))
    scores = np.concatenate([model.predict_batch(batch) for batch in measured])
    accuracy = pairwise_rank_accuracy(scores, *make_labels(lats, keys))
    return accuracy, model.predict_batch(draft), model.get_params()


class TestScope:
    def test_caps_nests_and_restores(self, threads):
        saved = threads()
        with blas.single_thread() as library:
            assert library and "openblas" in library
            assert threads() == 1
            with blas.single_thread():
                assert threads() == 1
            assert threads() == 1  # the inner exit must not lift the outer cap
        assert threads() == saved

    def test_restores_after_an_exception(self, threads):
        saved = threads()
        with pytest.raises(ZeroDivisionError):
            with blas.single_thread():
                assert threads() == 1
                1 / 0
        assert threads() == saved

    def test_concurrent_scopes_hold_one_thread_until_the_last_leaves(self, threads):
        saved = threads()
        workers, rounds = 8, 200
        start = threading.Barrier(workers)
        seen = set()

        def work():
            start.wait(timeout=10)
            for _ in range(rounds):
                with blas.single_thread():
                    seen.add(threads())

        pool = [threading.Thread(target=work) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        # a lost depth update would restore early (a count > 1 inside some
        # scope) or never (the cap outliving every scope)
        assert seen == {1}
        assert threads() == saved

    def test_cost_model_calls_leave_the_count_alone(self, threads, paper_round):
        saved = threads()
        _fit_predict(TenSetMLP(seed=0), paper_round)
        assert threads() == saved


class TestNoLibrary:
    def test_scope_is_a_noop(self, no_library, paper_round):
        with blas.single_thread() as library:
            assert library is None
        accuracy, scores, _ = _fit_predict(TenSetMLP(seed=0), paper_round)
        assert 0.0 <= accuracy <= 1.0 and scores.shape == (512,)

    def test_noop_scope_does_not_touch_the_real_library(self, threads, no_library):
        saved = threads()
        with blas.single_thread():
            assert threads() == saved

    @pytest.mark.parametrize("model_cls", [PaCM, TenSetMLP])
    def test_models_are_bit_equal_with_and_without_the_cap(
        self, model_cls, paper_round, request
    ):
        """At the shapes an online job reaches (<= 40-row groups, 512-row
        predicts) threaded and one-thread OpenBLAS agree to the last bit, which
        is why the benchmark's counted outputs did not move.  Not a law: from
        ~60-row groups up some threaded GEMMs round differently."""
        capped = _fit_predict(model_cls(seed=0), paper_round)
        request.getfixturevalue("no_library")
        free = _fit_predict(model_cls(seed=0), paper_round)
        assert capped[0] == free[0]
        assert np.array_equal(capped[1], free[1])
        assert capped[2].keys() == free[2].keys()
        assert all(np.array_equal(capped[2][k], free[2][k]) for k in capped[2])


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a second core to waste")
def test_a_training_loop_uses_one_core(threads, paper_round):
    """The symptom: a spinning OpenBLAS helper made CPU time ~2x wall time."""
    measured, lats, keys, draft = paper_round
    model = PaCM(seed=0)
    features = np.concatenate([model.featurize_batch(batch) for batch in measured])
    wall, cpu = time.perf_counter(), time.process_time()
    while time.perf_counter() - wall < 1.0:
        model.predict_batch(draft)
        model.fit(features, lats, keys, ONLINE_TRAIN, make_rng(1))
    ratio = (time.process_time() - cpu) / (time.perf_counter() - wall)
    assert ratio <= 1.5  # ~2.0 without the cap, ~1.0 with it
