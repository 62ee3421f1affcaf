"""Tests for the network zoo, graph partitioning and the dataset package."""

from __future__ import annotations

import numpy as np
import pytest
from doubles import RandomModel

from repro.core.analyzer import is_launchable_mask
from repro.costmodel import TenSetMLP
from repro.dataset import best_k_score, top_k_score
from repro.dataset.tenset import generate_for_tasks
from repro.errors import DatasetError, WorkloadError
from repro.hardware.device import get_device
from repro.ir import GraphBuilder, ops, partition_graph
from repro.ir.partition import SubgraphTask, dedupe_tasks
from repro.rng import rng_for
from repro.workloads import (
    build_network,
    list_networks,
    llama_decode_tasks,
    network_tasks,
    single_op_suite,
)


class TestPartitioning:
    def test_elementwise_fused_into_anchor(self):
        gb = GraphBuilder()
        a = gb.add(ops.matmul(64, 64, 64))
        r = gb.add(ops.elementwise((64, 64), op="relu"), inputs=[a])
        gb.add(ops.elementwise((64, 64), op="add"), inputs=[r])
        tasks = partition_graph(gb.graph())
        assert len(tasks) == 1
        assert set(tasks[0].workload.fused_ops) == {"relu", "add"}

    def test_multi_consumer_blocks_fusion(self):
        gb = GraphBuilder()
        a = gb.add(ops.matmul(64, 64, 64))
        gb.add(ops.elementwise((64, 64), op="relu"), inputs=[a])
        gb.add(ops.elementwise((64, 64), op="tanh"), inputs=[a])
        tasks = partition_graph(gb.graph())
        anchor = next(t for t in tasks if t.workload.is_tiled)
        assert anchor.workload.fused_ops == ()

    def test_duplicate_subgraphs_deduplicated_with_weight(self):
        gb = GraphBuilder()
        for _ in range(3):
            m = gb.add(ops.matmul(64, 64, 64))
            gb.add(ops.elementwise((64, 64), op="relu"), inputs=[m])
        tasks = partition_graph(gb.graph())
        assert len(tasks) == 1 and tasks[0].weight == 3

    def test_dedupe_tasks(self):
        wl = ops.matmul(32, 32, 32)
        merged = dedupe_tasks([SubgraphTask(wl, 2), SubgraphTask(wl, 3)])
        assert len(merged) == 1 and merged[0].weight == 5


class TestNetworkZoo:
    def test_all_networks_build(self):
        for name in list_networks():
            graph = build_network(name)
            assert len(graph) > 3, name

    def test_paper_network_list_complete(self):
        """All Table 3/4 models plus BERT-Large and ResNet3D-18."""
        expected = {
            "resnet50", "wide_resnet50", "inception_v3", "densenet121",
            "mobilenet_v2", "dcgan", "deeplabv3_r50", "vit", "detr",
            "bert_base", "bert_tiny", "bert_large", "gpt2", "llama",
            "opt_1_3b", "mistral_7b", "resnet3d18",
        }
        assert expected <= set(list_networks())

    def test_aliases_resolve(self):
        assert network_tasks("R50", top_k=1)[0].workload.is_tiled
        assert network_tasks("B-tiny", top_k=1)

    def test_unknown_network_raises(self):
        with pytest.raises(WorkloadError):
            network_tasks("alexnet")

    def test_top_k_truncates(self):
        assert len(network_tasks("resnet50", top_k=3)) == 3

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_raises(self, top_k):
        with pytest.raises(WorkloadError, match="top_k must be >= 1"):
            network_tasks("bert_tiny", top_k=top_k)

    def test_resnet50_has_conv1(self):
        tasks = network_tasks("resnet50")
        names = [t.workload.name for t in tasks]
        assert any("c3_hw224_k64r7s2" in n for n in names)

    def test_batch_propagates(self):
        t1 = network_tasks("bert_tiny", batch=1, top_k=1)[0]
        t4 = network_tasks("bert_tiny", batch=4, top_k=1)[0]
        assert t4.workload.iteration_points == 4 * t1.workload.iteration_points

    def test_fp16_networks(self):
        tasks = network_tasks("gpt2", dtype="float16", tiled_only=True)
        assert all(t.workload.dtype == "float16" for t in tasks)

    def test_llama_decode_tasks_structure(self):
        tasks = llama_decode_tasks(batch=32, context=1024)
        tags = {t.workload.tag for t in tasks}
        assert tags == {"matmul"}
        # attention ops scale with context
        big = llama_decode_tasks(batch=32, context=4096)
        assert sum(t.workload.flops * t.weight for t in big) > sum(
            t.workload.flops * t.weight for t in tasks
        )

    def test_single_op_suite_cases(self):
        suite = single_op_suite()
        assert set(suite) == {
            "M-1", "M-2", "M-3",
            "C1-1", "C1-2", "C1-3", "C1-4",
            "C2-1", "C2-2", "C2-3", "C2-4",
        }


class TestDataset:
    @pytest.fixture(scope="class")
    def small_dataset(self):
        subs = [
            SubgraphTask(ops.matmul(128, 128, 128), 2),
            SubgraphTask(ops.conv2d(1, 16, 14, 14, 32, 3), 1),
        ]
        return generate_for_tasks(get_device("t4"), subs, schedules_per_task=50)

    def test_generation_counts(self, small_dataset):
        assert len(small_dataset.task_keys) == 2
        assert len(small_dataset) > 60

    def test_all_entries_launchable_and_finite(self, small_dataset):
        device = get_device("t4")
        for task in small_dataset.tasks:
            assert np.isfinite(task.latency).all()
            assert is_launchable_mask(task.batch, device).all()
            assert len(task.batch.configs.unique()) == len(task)

    def test_subsample(self, small_dataset):
        sub = small_dataset.subsample(20)
        assert len(sub) == 20
        assert small_dataset.subsample(10**9) is small_dataset

    def test_subsample_keeps_draw_order(self, small_dataset):
        """A subsample's rows come in the order it drew them; each task's
        rows are taken from the parent's."""
        sub = small_dataset.subsample(30, seed=4)
        _, lats, keys = small_dataset.training_data(RandomModel())
        idx = rng_for("subsample", "t4", 30, 4).choice(len(small_dataset), 30, replace=False)
        _, sub_lats, sub_keys = sub.training_data(RandomModel())
        assert sub_lats.tolist() == lats[idx].tolist()
        assert sub_keys == [keys[i] for i in idx]
        assert sub.task_keys == list(dict.fromkeys(sub_keys))

    def test_training_data_packs_every_entry_in_order(self, small_dataset):
        model = TenSetMLP()
        features, lats, keys = small_dataset.training_data(model)
        tasks = small_dataset.tasks
        assert len(features) == len(lats) == len(keys) == len(small_dataset)
        np.testing.assert_array_equal(
            features, np.concatenate([model.featurize_batch(t.batch) for t in tasks])
        )
        assert lats.tolist() == [v for t in tasks for v in t.latency.tolist()]
        assert keys == [t.task_key for t in tasks for _ in range(len(t))]

    def test_rejects_bad_params(self):
        with pytest.raises(DatasetError):
            generate_for_tasks(get_device("t4"), [], schedules_per_task=0)

    def test_deterministic_given_seed(self):
        subs = [SubgraphTask(ops.matmul(64, 64, 64), 1)]
        a = generate_for_tasks(get_device("t4"), subs, 20, seed=3)
        b = generate_for_tasks(get_device("t4"), subs, 20, seed=3)
        assert [t.batch.row_keys() for t in a.tasks] == [t.batch.row_keys() for t in b.tasks]


class TestMetrics:
    def test_perfect_model_scores_one(self):
        subs = [SubgraphTask(ops.matmul(128, 128, 128), 1)]
        ds = generate_for_tasks(get_device("t4"), subs, 60)

        class Oracle:
            def predict_batch(self, batch):
                from repro.hardware.simulator import GroundTruthSimulator

                sim = GroundTruthSimulator(get_device("t4"))
                return -sim.latency_batch(batch)

        assert top_k_score(Oracle(), ds, k=1) == pytest.approx(1.0)

    def test_topk_monotone_in_k(self):
        subs = [SubgraphTask(ops.matmul(128, 128, 128), 1)]
        ds = generate_for_tasks(get_device("t4"), subs, 60)

        class Anti:
            def predict_batch(self, batch):
                rng = np.random.default_rng(0)
                return rng.random(len(batch))

        model = Anti()
        assert top_k_score(model, ds, k=5) >= top_k_score(model, ds, k=1)

    def test_best_k_formula(self):
        spec = {"t": [2.0, 1.0, 4.0]}
        optimal = {"t": 1.0}
        weights = {"t": 2}
        assert best_k_score(spec, optimal, weights, k=1) == pytest.approx(1.0)
        assert best_k_score(spec, optimal, weights, k=2) == pytest.approx(0.5)
        # k beyond the set size falls back to the worst member
        assert best_k_score(spec, optimal, weights, k=9) == pytest.approx(0.25)

    def test_best_k_rejects_bad_k(self):
        with pytest.raises(DatasetError):
            best_k_score({}, {}, {}, k=0)

    def test_empty_dataset_rejected(self):
        from repro.dataset.tenset import TensorProgramDataset

        class Dummy:
            def predict_batch(self, batch):
                return np.zeros(len(batch))

        with pytest.raises(DatasetError):
            top_k_score(Dummy(), TensorProgramDataset(get_device("t4"), []), k=1)
