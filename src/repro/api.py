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
from collections.abc import Callable, Iterable
from pathlib import Path

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
from repro.errors import CostModelError, SearchError
from repro.hardware.device import DeviceSpec, get_device
from repro.hardware.measure import MeasureRunner
from repro.hardware.simulator import GroundTruthSimulator
from repro.ir.partition import SubgraphTask
from repro.rng import make_rng
from repro.schedule.batch import lower_batch
from repro.schedule.sampler import random_config
from repro.schedule.sketch import generate_sketch
from repro.search import AnsorPolicy, PrunerPolicy, Tuner, make_tasks
from repro.search.records import TuningRecord
from repro.search.task import TuningTask
from repro.search.tuner import ProgressFn, StopFn, TuneResult
from repro.timemodel import SimClock
from repro.workloads import network_tasks

SCALES: dict[str, SearchConfig] = {
    "paper": SearchConfig(),
    "lite": LITE_SEARCH,
    "smoke": SMOKE_SEARCH,
}

_OFFLINE_MODES = {"tensetmlp", "tlp", "pruner-offline", "pruner-offline-no-lse"}

#: Every tuning method this facade knows (the table above).
KNOWN_METHODS = frozenset(
    {
        "ansor",
        "tensetmlp",
        "tlp",
        "pruner",
        "moa-pruner",
        "pruner-offline",
        "pruner-offline-no-lse",
        "pruner-finetune",
        "metaschedule",
        "pruner-tc",
        "pruner-no-lse",
        "pruner-no-sf",
        "pruner-no-tdf",
    }
)


def resolve_method(method: str) -> str:
    """Validate a method name; unknown names raise SearchError.

    Without this check a typo'd method would silently fall through the
    default branches of the dispatch helpers and tune as plain Pruner.
    """
    if method not in KNOWN_METHODS:
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
    use_tc = tensorcore or method in ("metaschedule", "pruner-tc")
    tasks = make_tasks(subgraphs, device, tensorcore=use_tc)
    if not tasks:
        raise SearchError("no tiled subgraphs to tune")
    return tasks


def _model_class(method: str) -> type[CostModel]:
    """The cost-model class a method tunes with."""
    if method == "ansor":
        return GBDTModel
    if method in ("tensetmlp", "metaschedule"):
        return TenSetMLP
    if method == "tlp":
        return TLPModel
    return PaCM  # every pruner variant verifies with PaCM


def model_kind(method: str) -> str:
    """The cost-model kind a method tunes with.

    Half of the checkpoint identity (the other half is the record-store
    key): the serving layer uses it to pick which checkpoint rides a
    lease, and the cache path uses it to load a compatible warm start.
    A class-attribute read — no model is constructed.
    """
    return _model_class(resolve_method(method)).kind


def _default_model(method: str, seed: int) -> CostModel:
    cls = _model_class(method)
    if cls is GBDTModel:
        return GBDTModel()
    if cls is PaCM:
        return PaCM(
            use_statement=method != "pruner-no-sf",
            use_dataflow=method != "pruner-no-tdf",
            seed=seed,
        )
    return cls(seed=seed)


def _mode_for(method: str) -> str:
    if method in _OFFLINE_MODES:
        return "offline"
    if method == "moa-pruner":
        return "moa"
    if method == "pruner-finetune":
        return "finetune"
    return "online"


#: Methods that need ``pretrained=`` parameters — everything whose
#: cost-model mode is not plain online training.  Derived from
#: :func:`_mode_for` so the sets cannot drift: :func:`build_tuner`
#: raises without parameters for exactly these, and callers that cannot
#: supply them (e.g. the tuning service) reject them up front.
PRETRAINED_METHODS = frozenset(m for m in KNOWN_METHODS if _mode_for(m) != "online")


def _policy_class(method: str):
    if method in (
        "ansor",
        "tensetmlp",
        "tlp",
        "metaschedule",
        "pruner-no-lse",
        "pruner-offline-no-lse",
    ):
        return AnsorPolicy
    return PrunerPolicy


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
    initial_records: Iterable[TuningRecord] | None = None,
    tasks: list[TuningTask] | None = None,
    initial_model_state: dict | None = None,
    initial_model_trained_on: int = 0,
) -> Tuner:
    """Assemble a :class:`~repro.search.tuner.Tuner` for one method.

    ``pretrained`` supplies cost-model parameters for the offline,
    finetune and MoA modes (see :func:`pretrain_model`).
    ``initial_records`` warm-starts the tuner's record log (the
    ``cache_dir`` fast path of :func:`tune_subgraphs`).  ``tasks``
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
    resolve_method(method)
    search = search or LITE_SEARCH
    train = train or ONLINE_TRAIN
    mode = _mode_for(method)
    model = _default_model(method, seed)

    adapter = None
    if mode == "moa":
        if pretrained is None:
            raise SearchError("moa-pruner needs pretrained siamese parameters")
        adapter = MomentumAdapter(pretrained)
    elif mode in ("offline", "finetune"):
        if pretrained is None:
            raise SearchError(f"{method} needs pretrained model parameters")
        model.set_params(pretrained)
    if pretrained is not None:
        initial_model_state = None  # explicitly supplied parameters win

    if tasks is None:
        tasks = tasks_for(method, subgraphs, device, tensorcore=tensorcore)

    clock = SimClock()
    runner = MeasureRunner(device, clock=clock, rng=make_rng(seed))
    policy_cls = _policy_class(method)
    policies = {
        t.key: policy_cls(t, model, search=search, clock=clock) for t in tasks
    }
    return Tuner(
        tasks,
        policies,
        model,
        runner,
        clock,
        mode=mode,
        adapter=adapter,
        train=train,
        fixed_latency=elementwise_latency(subgraphs, device),
        rng=make_rng(seed + 1),
        initial_records=initial_records,
        initial_model_state=initial_model_state,
        initial_model_trained_on=initial_model_trained_on,
    )


def tune_seeded(
    method: str,
    subgraphs: list[SubgraphTask],
    device: DeviceSpec | str,
    rounds: int,
    search: SearchConfig,
    seeds: Callable[[list[TuningTask]], tuple[list[TuningRecord], dict | None, int]],
    checkpoint: bool = True,
    progress: ProgressFn | None = None,
    should_stop: StopFn | None = None,
    **kwargs,
) -> tuple[TuneResult, dict | None, int]:
    """The warm-started job recipe: tasks, seeds, tune, checkpoint.

    ``seeds(tasks)`` supplies ``(initial records, model state or None,
    trials that state was trained on)``; the run is capped at ``rounds *
    measure_per_round`` trials, seeded ones included, so known configs
    are not re-measured.  Returns ``(result, state, trained_trials)``:
    ``state`` is :meth:`Tuner.checkpoint` (None with ``checkpoint`` off
    or nothing worth persisting), ranked by what the model was actually
    fitted on — not the log size, which includes rows it may never have
    seen.  The fresh records are ``result.records`` past
    ``result.seeded_trials``.

    The one implementation behind :func:`tune_subgraphs`'s ``cache_dir``
    path (seeds from, results to, the stores on disk) and
    :class:`repro.serve.runner.TuningRunner` (both ride a lease);
    ``kwargs`` go to :func:`build_tuner`.
    """
    if isinstance(device, str):
        device = get_device(device)
    tasks = tasks_for(
        method, subgraphs, device, tensorcore=bool(kwargs.get("tensorcore", False))
    )
    initial, model_state, trained_on = seeds(tasks)
    tuner = build_tuner(
        method,
        subgraphs,
        device,
        search=search,
        initial_records=initial,
        tasks=tasks,
        initial_model_state=model_state,
        initial_model_trained_on=trained_on,
        **kwargs,
    )
    result = tuner.tune(
        rounds,
        trial_budget=rounds * search.measure_per_round,
        progress=progress,
        should_stop=should_stop,
    )
    state = tuner.checkpoint() if checkpoint else None
    return result, state, tuner.model_trained_on


def tune_subgraphs(
    method: str,
    subgraphs: list[SubgraphTask],
    device: DeviceSpec | str,
    rounds: int = 20,
    scale: str = "lite",
    cache_dir: str | Path | None = None,
    progress: ProgressFn | None = None,
    model_cache: bool = True,
    **kwargs,
) -> TuneResult:
    """Tune a set of subgraphs and return the result.

    With ``cache_dir`` set, records persisted by earlier runs of the
    same ``(workload set, device, method)`` warm-start the tuner — known
    configs are not re-measured and count toward the run's trial budget
    (``rounds * measure_per_round``) — and this run's fresh records are
    written back for the next one.  The cost model warm-starts the same
    way: the freshest compatible checkpoint under the cache dir is
    loaded before round 0 and the trained model is checkpointed back
    after the run (``model_cache=False`` disables just the model half;
    records still seed).

    ``progress`` is forwarded to :meth:`~repro.search.tuner.Tuner.tune`
    (a callback after every completed round).
    """
    resolve_method(method)
    search = kwargs.pop("search", None) or resolve_scale(scale)
    if cache_dir is None:
        tuner = build_tuner(method, subgraphs, device, search=search, **kwargs)
        return tuner.tune(rounds, progress=progress)

    from repro.service.models import (
        ModelStore,
        state_from_wire,
        wire_trained_trials,
    )
    from repro.service.store import RecordStore, store_key_for_tasks

    store = RecordStore(cache_dir)
    # Checkpoints only serve the online modes: offline/finetune/moa
    # methods require explicit pretrained= parameters, which win over
    # any checkpoint — loading (full base64 decode) and re-saving for
    # them would only churn dead files.
    use_models = model_cache and _mode_for(method) == "online"
    models = ModelStore(cache_dir) if use_models else None
    key = None

    def seeds(tasks):
        nonlocal key
        key = store_key_for_tasks(tasks, method)
        initial = store.load_records(key, {t.key: t.space for t in tasks})
        if models is not None:
            # one consistent read: state and its rank must come from the
            # same file version
            wire = models.load_wire(key, model_kind(method))
            if wire is not None:
                try:
                    return initial, state_from_wire(wire), wire_trained_trials(wire)
                except CostModelError:
                    pass  # malformed on disk: cold start
        return initial, None, 0

    result, state, trained_on = tune_seeded(
        method,
        subgraphs,
        device,
        rounds,
        search,
        seeds,
        checkpoint=models is not None,
        progress=progress,
        **kwargs,
    )
    # seeded records sit at the front of the log and are already on
    # disk; persist only the fresh tail
    store.append(key, result.records.records[result.seeded_trials :])
    if state is not None:
        models.save_state(key, state, trained_trials=trained_on)
    return result


def tune_network(
    network: str,
    device: DeviceSpec | str = "a100",
    method: str = "pruner",
    rounds: int = 20,
    scale: str = "lite",
    batch: int = 1,
    top_k_tasks: int | None = None,
    cache_dir: str | Path | None = None,
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
        method,
        subgraphs,
        device,
        rounds=rounds,
        scale=scale,
        cache_dir=cache_dir,
        **kwargs,
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
    progs, lats, keys = [], [], []
    for sub in subgraphs:
        if not sub.workload.is_tiled:
            continue
        space = generate_sketch(sub.workload)
        # one draw per sample (the rng stream of a per-sample loop), then
        # one lowering and one simulation for the task
        configs = [random_config(space, rng) for _ in range(samples_per_task)]
        batch = lower_batch(space, configs)
        progs += [batch.program(i) for i in range(len(batch))]
        lats += sim.latency_batch(batch).tolist()
        keys += [sub.workload.key] * len(batch)
    model.fit(progs, np.array(lats), keys, train=train or TrainConfig(epochs=40), rng=rng)
    return model.get_params()
