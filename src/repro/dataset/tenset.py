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

from repro.errors import DatasetError
from repro.hardware.device import DeviceSpec, get_device
from repro.hardware.simulator import GroundTruthSimulator
from repro.ir.partition import SubgraphTask, dedupe_tasks
from repro.rng import rng_for
from repro.schedule.batch import CandidateBatch
from repro.schedule.lower import LoweredProgram, lower
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


@dataclass(frozen=True)
class DatasetEntry:
    """One labelled tensor program."""

    prog: LoweredProgram
    latency: float  # noise-free ground-truth seconds
    task_key: str  # workload key
    weight: int  # subgraph occurrence weight (w_i of Eq. 2)


@dataclass
class TensorProgramDataset:
    """A labelled corpus of (program, latency) pairs on one device."""

    device: DeviceSpec
    entries: list[DatasetEntry] = field(default_factory=list)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    @property
    def task_keys(self) -> list[str]:
        seen: dict[str, None] = {}
        for e in self.entries:
            seen.setdefault(e.task_key)
        return list(seen)

    def by_task(self) -> dict[str, list[DatasetEntry]]:
        groups: dict[str, list[DatasetEntry]] = {}
        for e in self.entries:
            groups.setdefault(e.task_key, []).append(e)
        return groups

    def weights(self) -> dict[str, int]:
        """Subgraph weight per task key."""
        return {e.task_key: e.weight for e in self.entries}

    def training_data(self) -> tuple[CandidateBatch, np.ndarray, list[str]]:
        """(packed programs, latencies, task keys); pack once, encode per model."""
        batch = CandidateBatch.from_programs([e.prog for e in self.entries])
        lats = np.array([e.latency for e in self.entries])
        keys = [e.task_key for e in self.entries]
        return batch, lats, keys

    def subsample(self, n: int, seed: int = 0) -> "TensorProgramDataset":
        """Uniform subsample of ``n`` entries (for data-scaling curves)."""
        if n >= len(self.entries):
            return self
        rng = rng_for("subsample", self.device.name, n, seed)
        idx = rng.choice(len(self.entries), size=n, replace=False)
        return TensorProgramDataset(
            self.device, [self.entries[int(i)] for i in idx]
        )


def generate_for_tasks(
    device: DeviceSpec,
    subgraphs: list[SubgraphTask],
    schedules_per_task: int = 400,
    seed: int = 0,
) -> TensorProgramDataset:
    """Measure ``schedules_per_task`` random schedules per tiled subgraph.

    Programs that violate static launch constraints are skipped, as in
    TenSet: unbuildable schedules never produce measurement records.
    """
    from repro.core.analyzer import is_launchable

    if schedules_per_task < 1:
        raise DatasetError("schedules_per_task must be >= 1")
    sim = GroundTruthSimulator(device)
    entries: list[DatasetEntry] = []
    for sub in subgraphs:
        if not sub.workload.is_tiled:
            continue
        space = generate_sketch(sub.workload)
        rng = rng_for("tenset", device.name, sub.workload.key, seed)
        seen: set[str] = set()
        attempts = 0
        while len(seen) < schedules_per_task and attempts < schedules_per_task * 8:
            attempts += 1
            cfg = random_config(space, rng)
            if cfg.key in seen:
                continue
            prog = lower(space, cfg)
            if not is_launchable(prog, device):
                continue
            seen.add(cfg.key)
            entries.append(
                DatasetEntry(
                    prog=prog,
                    latency=sim.latency(prog),
                    task_key=sub.workload.key,
                    weight=sub.weight,
                )
            )
    return TensorProgramDataset(device, entries)


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
