"""TenSet-like tensor-program dataset generation.

TenSet (Zheng et al.) measured ~16M tensor programs (2,308 subgraphs x
~4,000 schedules) on several GPUs; the paper pre-trains its offline cost
models on it and evaluates dataset metrics on a held-out network set
(ResNet-50, ResNet3D-18, MobileNet-V2, BERT-base/tiny — Section 6.5).

:func:`tenset_dataset` rebuilds that corpus on the simulated devices:
random schedules per subgraph, labelled with noise-free ground truth.
Sizes are configurable; defaults are laptop-scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.analyzer import distinct_launchable
from repro.costmodel.base import CostModel
from repro.errors import DatasetError
from repro.hardware.device import DeviceSpec, get_device
from repro.hardware.simulator import GroundTruthSimulator
from repro.ir.partition import SubgraphTask, dedupe_tasks
from repro.rng import rng_for
from repro.schedule.batch import CandidateBatch
from repro.schedule.sampler import random_config
from repro.schedule.sketch import generate_sketch
from repro.workloads import network_tasks

#: the paper's TenSet test networks (Section 6.5)
TEST_NETWORKS = ("resnet50", "resnet3d18", "mobilenet_v2", "bert_base", "bert_tiny")
#: training-side networks used to build the offline corpus
TRAIN_NETWORKS = (
    "wide_resnet50",
    "densenet121",
    "inception_v3",
    "vit",
    "gpt2",
    "llama",
    "deeplabv3_r50",
    "dcgan",
)


@dataclass(frozen=True, eq=False)
class TaskRows:
    """One subgraph's labelled programs, as columns."""

    task_key: str  # workload key
    weight: int  # subgraph occurrence weight (w_i of Eq. 2)
    batch: CandidateBatch  # lowered rows, with ``.configs``
    latency: np.ndarray  # (N,) noise-free ground-truth seconds

    def __len__(self) -> int:
        return len(self.batch)


@dataclass
class TensorProgramDataset:
    """A labelled corpus of (program, latency) rows on one device.

    ``tasks`` holds one :class:`TaskRows` per subgraph, in order of first
    appearance.  The corpus's row order is the tasks' rows in turn,
    unless ``order`` permutes them: row ``j`` is row ``order[j]`` of
    the tasks' rows in turn (a :meth:`subsample` keeps its draw order).
    """

    device: DeviceSpec
    tasks: list[TaskRows] = field(default_factory=list)
    order: np.ndarray | None = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(t) for t in self.tasks)

    @property
    def task_keys(self) -> list[str]:
        return [t.task_key for t in self.tasks]

    def weights(self) -> dict[str, int]:
        """Subgraph weight per task key."""
        return {t.task_key: t.weight for t in self.tasks}

    def training_data(self, model: CostModel) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """(``model``'s features, latencies, task keys) of every row, in row order."""
        features = np.concatenate([model.featurize_batch(t.batch) for t in self.tasks])
        lats = np.concatenate([t.latency for t in self.tasks])
        keys = [t.task_key for t in self.tasks for _ in range(len(t))]
        if self.order is None:
            return features, lats, keys
        return features[self.order], lats[self.order], [keys[i] for i in self.order]

    def subsample(self, n: int, seed: int = 0) -> "TensorProgramDataset":
        """Uniform subsample of ``n`` rows (for data-scaling curves), in draw order."""
        if n >= len(self):
            return self
        rng = rng_for("subsample", self.device.name, n, seed)
        idx = rng.choice(len(self), size=n, replace=False)
        drawn = idx if self.order is None else self.order[idx]
        # row -> (task, row within the task), and each task's first draw
        starts = np.cumsum([0] + [len(t) for t in self.tasks])
        task_of = np.searchsorted(starts, drawn, side="right") - 1
        firsts = np.unique(task_of, return_index=True)[1]
        tasks, order = [], np.empty(n, dtype=np.intp)
        at = 0
        for t in task_of[np.sort(firsts)].tolist():
            mine = np.flatnonzero(task_of == t)
            local = drawn[mine] - starts[t]
            task = self.tasks[t]
            tasks.append(
                TaskRows(task.task_key, task.weight, task.batch.take(local), task.latency[local])
            )
            order[mine] = np.arange(at, at + len(mine))
            at += len(mine)
        return TensorProgramDataset(self.device, tasks, order)


def generate_for_tasks(
    device: DeviceSpec,
    subgraphs: list[SubgraphTask],
    schedules_per_task: int = 400,
    seed: int = 0,
) -> TensorProgramDataset:
    """Measure ``schedules_per_task`` random schedules per tiled subgraph.

    Each subgraph draws one :func:`random_config` per sample from its own
    generator, keeps distinct launchable schedules in draw order and
    gives up after ``schedules_per_task * 8`` draws.  Programs that
    violate static launch constraints are skipped, as in TenSet:
    unbuildable schedules never produce measurement records.
    """
    if schedules_per_task < 1:
        raise DatasetError("schedules_per_task must be >= 1")
    sim = GroundTruthSimulator(device)
    tasks: list[TaskRows] = []
    for sub in subgraphs:
        if not sub.workload.is_tiled:
            continue
        space = generate_sketch(sub.workload)
        rng = rng_for("tenset", device.name, sub.workload.key, seed)
        batch = distinct_launchable(
            space,
            device,
            lambda k: [random_config(space, rng) for _ in range(k)],
            want=schedules_per_task,
            cap=schedules_per_task * 8,
        )
        if len(batch):
            tasks.append(
                TaskRows(sub.workload.key, sub.weight, batch, sim.latency_batch(batch))
            )
    return TensorProgramDataset(device, tasks)


def tenset_dataset(
    device: str | DeviceSpec = "t4",
    networks: tuple[str, ...] = TEST_NETWORKS,
    schedules_per_task: int = 400,
    tasks_per_network: int | None = 6,
    seed: int = 0,
) -> TensorProgramDataset:
    """Build a TenSet-style corpus from the given networks' subgraphs."""
    if isinstance(device, str):
        device = get_device(device)
    subgraphs: list[SubgraphTask] = []
    for net in networks:
        subgraphs += network_tasks(net, top_k=tasks_per_network, tiled_only=True)
    subgraphs = dedupe_tasks(subgraphs)
    return generate_for_tasks(device, subgraphs, schedules_per_task, seed)
