"""High-level public API: assemble and run tuners in one call.

This is the facade the examples, experiments and benchmarks use:

>>> from repro import api
>>> from repro.workloads import network_tasks
>>> result = api.tune_network("bert_tiny", device="a100", method="pruner",
...                           rounds=8, scale="smoke")
>>> result.final_latency  # doctest: +SKIP

Methods (paper Section 5/6):

=========================  ================================================
``ansor``                  evolutionary search + XGBoost-style model, online
``tensetmlp``              evolutionary search + MLP, offline pre-trained
``tlp``                    evolutionary search + primitive transformer, offline
``pruner``                 draft-then-verify + PaCM, online
``moa-pruner``             draft-then-verify + PaCM + momentum adaptation
``pruner-offline``         draft-then-verify + pre-trained PaCM, frozen
``pruner-finetune``        draft-then-verify + pre-trained PaCM, online FT
``metaschedule``           evolutionary search + MLP, TensorCore templates
``pruner-tc``              Pruner integrated into MetaSchedule (TensorCore)
``pruner-no-lse``          ablation: PaCM verifies evolutionary candidates
``pruner-offline-no-lse``  ablation: frozen PaCM verifies evolutionary
``pruner-no-sf``           ablation: PaCM without statement features
``pruner-no-tdf``          ablation: PaCM without temporal dataflow features
=========================  ================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.config import (
    LITE_SEARCH,
    ONLINE_TRAIN,
    SMOKE_SEARCH,
    SearchConfig,
    TrainConfig,
)
from repro.core.moa import MomentumAdapter
from repro.costmodel import GBDTModel, PaCM, TenSetMLP, TLPModel
from repro.costmodel.base import CostModel
from repro.errors import SearchError
from repro.hardware.device import DeviceSpec, get_device
from repro.hardware.measure import MeasureRunner
from repro.hardware.simulator import GroundTruthSimulator
from repro.ir.partition import SubgraphTask
from repro.rng import make_rng
from repro.schedule.batch import lower_batch
from repro.schedule.sampler import random_config
from repro.schedule.sketch import generate_sketch
from repro.search import AnsorPolicy, PrunerPolicy, SearchPolicy, Tuner, make_tasks
from repro.search.records import RecordLog
from repro.search.task import TuningTask
from repro.search.tuner import ProgressFn, TuneResult
from repro.timemodel import SimClock
from repro.workloads import network_tasks

SCALES: dict[str, SearchConfig] = {
    "paper": SearchConfig(),
    "lite": LITE_SEARCH,
    "smoke": SMOKE_SEARCH,
}

#: cross-platform pre-training platform for MoA (paper: TenSet K80-6M)
MOA_SOURCE_DEVICE = "k80"


@dataclass(frozen=True)
class MethodSpec:
    """What one method tunes with: a row of the table above.

    ``policy`` explores and selects each task's candidates.  ``model``
    is the cost-model class, built with ``model_kwargs`` by
    :meth:`new_model`.  ``mode`` is the tuner's cost-model mode; every
    mode but ``online`` needs ``pretrained=`` parameters, trained on
    ``pretrain_source`` (``None``: the tuning target itself).
    ``tensorcore`` asks for TensorCore sketches.
    """

    policy: type[SearchPolicy]
    model: type[CostModel]
    model_kwargs: dict = field(default_factory=dict)
    mode: str = "online"
    tensorcore: bool = False
    pretrain_source: str | None = None

    def new_model(self, seed: int) -> CostModel:
        """A fresh cost model for one tuner (the boosted trees take no seed)."""
        if self.model is GBDTModel:
            return GBDTModel(**self.model_kwargs)
        return self.model(**self.model_kwargs, seed=seed)


#: Every tuning method this facade knows (the table above), by name.
METHODS: dict[str, MethodSpec] = {
    "ansor": MethodSpec(AnsorPolicy, GBDTModel),
    "tensetmlp": MethodSpec(AnsorPolicy, TenSetMLP, mode="offline"),
    "tlp": MethodSpec(AnsorPolicy, TLPModel, mode="offline"),
    "pruner": MethodSpec(PrunerPolicy, PaCM),
    "moa-pruner": MethodSpec(
        PrunerPolicy, PaCM, mode="moa", pretrain_source=MOA_SOURCE_DEVICE
    ),
    "pruner-offline": MethodSpec(PrunerPolicy, PaCM, mode="offline"),
    "pruner-finetune": MethodSpec(
        PrunerPolicy, PaCM, mode="finetune", pretrain_source=MOA_SOURCE_DEVICE
    ),
    "metaschedule": MethodSpec(AnsorPolicy, TenSetMLP, tensorcore=True),
    "pruner-tc": MethodSpec(PrunerPolicy, PaCM, tensorcore=True),
    "pruner-no-lse": MethodSpec(AnsorPolicy, PaCM),
    "pruner-offline-no-lse": MethodSpec(AnsorPolicy, PaCM, mode="offline"),
    "pruner-no-sf": MethodSpec(PrunerPolicy, PaCM, {"use_statement": False}),
    "pruner-no-tdf": MethodSpec(PrunerPolicy, PaCM, {"use_dataflow": False}),
}

KNOWN_METHODS = frozenset(METHODS)

#: Methods that need ``pretrained=`` parameters: :func:`build_tuner`
#: raises without them, and callers that cannot supply them (e.g. the
#: tuning service) reject these names up front.
PRETRAINED_METHODS = frozenset(
    name for name, spec in METHODS.items() if spec.mode != "online"
)


def resolve_method(method: str) -> str:
    """Validate a method name; unknown names raise SearchError.

    The one refusal every door shows: ``POST /jobs`` answers it as a
    400 and the serve CLI prints it.
    """
    if method not in METHODS:
        raise SearchError(
            f"unknown method {method!r}; valid methods: {sorted(KNOWN_METHODS)}"
        )
    return method


def resolve_scale(scale: str) -> SearchConfig:
    """Look up a named search scale; unknown names raise SearchError."""
    try:
        return SCALES[scale]
    except KeyError:
        raise SearchError(
            f"unknown scale {scale!r}; valid scales: {sorted(SCALES)}"
        ) from None


def tasks_for(
    method: str,
    subgraphs: list[SubgraphTask],
    device: DeviceSpec,
    tensorcore: bool = False,
) -> list[TuningTask]:
    """The tuning tasks a method builds for a set of subgraphs.

    Shared by :func:`build_tuner` and the record store (the store keys
    persisted records by exactly these tasks, so both sides must agree).
    """
    use_tc = tensorcore or METHODS[resolve_method(method)].tensorcore
    tasks = make_tasks(subgraphs, device, tensorcore=use_tc)
    if not tasks:
        raise SearchError("no tiled subgraphs to tune")
    return tasks


def model_kind(method: str) -> str:
    """The cost-model kind a method tunes with.

    Half of the checkpoint identity (the other half is the record-store
    key): the job engine uses it to pick which checkpoint rides a lease
    and where a returned one is stored.  A class-attribute read — no
    model is constructed.
    """
    return METHODS[resolve_method(method)].model.kind


def elementwise_latency(subgraphs: list[SubgraphTask], device: DeviceSpec) -> float:
    """Latency of the untuned (element-wise / pooling) network part.

    These subgraphs take a default flat schedule — tuners do not spend
    trials on them (they are < 3% of programs, paper Section 4.2).
    """
    sim = GroundTruthSimulator(device)
    total = 0.0
    rng = make_rng(1234)
    for sub in subgraphs:
        if sub.workload.is_tiled:
            continue
        space = generate_sketch(sub.workload)
        configs = [random_config(space, rng) for _ in range(8)]
        best = float(sim.latency_batch(lower_batch(space, configs)).min())
        if math.isfinite(best):
            total += best * sub.weight
    return total


def build_tuner(
    method: str,
    subgraphs: list[SubgraphTask],
    device: DeviceSpec | str,
    search: SearchConfig | None = None,
    train: TrainConfig | None = None,
    pretrained: dict[str, np.ndarray] | None = None,
    tensorcore: bool = False,
    seed: int = 0,
    initial_records: RecordLog | None = None,
    tasks: list[TuningTask] | None = None,
    initial_model_state: dict | None = None,
    initial_model_trained_on: int = 0,
) -> Tuner:
    """Assemble a :class:`~repro.search.tuner.Tuner` for one method.

    ``pretrained`` supplies cost-model parameters for the offline,
    finetune and MoA modes (see :func:`pretrain_model`).
    ``initial_records`` is a log the tuner adopts as its own (a job's
    seed rows, see :class:`repro.serve.runner.TuningRunner`).  ``tasks``
    skips task construction when the caller already built them via
    :func:`tasks_for`.  ``initial_model_state`` warm-starts the cost
    model from a persisted checkpoint (``CostModel.save_state`` dict)
    and ``initial_model_trained_on`` is the trial count it was trained
    on (so the tuner knows whether the seed records outgrew it);
    explicit ``pretrained`` parameters win over it, and an incompatible
    state falls back to a cold start.
    """
    if isinstance(device, str):
        device = get_device(device)
    spec = METHODS[resolve_method(method)]
    search = search or LITE_SEARCH
    train = train or ONLINE_TRAIN
    model = spec.new_model(seed)

    if spec.mode != "online" and pretrained is None:
        raise SearchError(f"{method} needs pretrained model parameters")
    adapter = MomentumAdapter(pretrained) if spec.mode == "moa" else None
    if spec.mode in ("offline", "finetune"):
        model.set_params(pretrained)
    if pretrained is not None:
        initial_model_state = None  # explicitly supplied parameters win

    if tasks is None:
        tasks = tasks_for(method, subgraphs, device, tensorcore=tensorcore)

    clock = SimClock()
    runner = MeasureRunner(device, clock=clock, rng=make_rng(seed))
    policies = {
        t.key: spec.policy(t, model, search=search, clock=clock) for t in tasks
    }
    return Tuner(
        tasks,
        policies,
        model,
        runner,
        clock,
        mode=spec.mode,
        adapter=adapter,
        train=train,
        fixed_latency=elementwise_latency(subgraphs, device),
        rng=make_rng(seed + 1),
        initial_records=initial_records,
        initial_model_state=initial_model_state,
        initial_model_trained_on=initial_model_trained_on,
    )


def tune_subgraphs(
    method: str,
    subgraphs: list[SubgraphTask],
    device: DeviceSpec | str,
    rounds: int = 20,
    scale: str = "lite",
    progress: ProgressFn | None = None,
    **kwargs,
) -> TuneResult:
    """Tune a set of subgraphs from a cold start and return the result.

    ``progress`` is forwarded to :meth:`~repro.search.tuner.Tuner.tune`
    (a callback after every completed round); ``kwargs`` go to
    :func:`build_tuner`.  A warm start from earlier runs' records and
    checkpoint is a job: :class:`repro.serve.engine.JobEngine` over a
    cache dir, drained by :func:`repro.serve.runner.drain`.
    """
    resolve_method(method)
    search = kwargs.pop("search", None) or resolve_scale(scale)
    tuner = build_tuner(method, subgraphs, device, search=search, **kwargs)
    return tuner.tune(rounds, progress=progress)


def tune_network(
    network: str,
    device: DeviceSpec | str = "a100",
    method: str = "pruner",
    rounds: int = 20,
    scale: str = "lite",
    batch: int = 1,
    top_k_tasks: int | None = None,
    **kwargs,
) -> TuneResult:
    """End-to-end network tuning (graph partition + multi-task search)."""
    resolve_method(method)  # fail fast, before building the network graph
    if "search" not in kwargs:
        resolve_scale(scale)
    net_kwargs = {}
    for key in ("dtype", "seq"):
        if key in kwargs:
            net_kwargs[key] = kwargs.pop(key)
    subgraphs = network_tasks(network, batch=batch, top_k=top_k_tasks, **net_kwargs)
    return tune_subgraphs(
        method, subgraphs, device, rounds=rounds, scale=scale, **kwargs
    )


def pretrain_model(
    model: CostModel,
    subgraphs: list[SubgraphTask],
    device: DeviceSpec | str,
    samples_per_task: int = 300,
    train: TrainConfig | None = None,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Pre-train a cost model on random schedules measured on ``device``.

    Stands in for TenSet pre-training + target-platform fine-tuning
    (Section 5, "offline tuning mode"); returns the parameter dict for
    :func:`build_tuner`'s ``pretrained`` argument.
    """
    if isinstance(device, str):
        device = get_device(device)
    sim = GroundTruthSimulator(device)
    rng = make_rng(seed)
    features, lats, keys = [], [], []
    for sub in subgraphs:
        if not sub.workload.is_tiled:
            continue
        space = generate_sketch(sub.workload)
        # one draw per sample (the rng stream of a per-sample loop), then
        # one lowering, one encoding and one simulation for the task
        configs = [random_config(space, rng) for _ in range(samples_per_task)]
        batch = lower_batch(space, configs)
        features.append(model.featurize_batch(batch))
        lats += sim.latency_batch(batch).tolist()
        keys += [sub.workload.key] * len(batch)
    if features:
        train = train or TrainConfig(epochs=40)
        model.fit(np.concatenate(features), np.array(lats), keys, train=train, rng=rng)
    return model.get_params()
