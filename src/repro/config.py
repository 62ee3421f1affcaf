"""Global defaults for the Pruner reproduction.

The numbers mirror the paper's experimental settings (Section 5):

* ``SPEC_SIZE`` — size of the drafted candidate set S_spec (512).
* ``MEASURE_PER_ROUND`` — programs measured per tuning round (10).
* ``MAX_ROUNDS`` — maximum tuning rounds (200; 200 x 10 = 2,000 trials).
* ``MOA_MOMENTUM`` — momentum for the MoA siamese update (0.99).

Search-scale knobs (population sizes, GA steps) default to paper scale;
the experiment harnesses override them with reduced "lite" values so the
benchmark suite completes quickly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

SPEC_SIZE = 512
MEASURE_PER_ROUND = 10
MAX_ROUNDS = 200
MOA_MOMENTUM = 0.99


@dataclass(frozen=True)
class SearchConfig:
    """Tunable knobs of a schedule-search policy.

    Attributes
    ----------
    population:
        Evolutionary-search population size per GA step.
    ga_steps:
        GA steps per tuning round.  Ansor scores ``ga_steps`` generations
        (their launchable rows) with the learned cost model; Pruner's
        draft scores ``ga_steps + 1`` whole generations with the draft
        model — the last step's offspring too, like TVM's ``num_iters + 1``.
    spec_size:
        Size of the drafted candidate set (|S_spec|, paper: 512).
    random_fraction:
        Fraction of extra randomly-initialised schedules unioned into
        S_draft (Algorithm 1, line 10).
    measure_per_round:
        Programs measured on the device per round (paper: 10).
    eps_greedy:
        Fraction of measured programs chosen at random rather than by
        predicted score (exploration guard, as in Ansor).
    mutation_prob:
        Per-schedule probability of mutation inside the GA.
    """

    population: int = 512
    ga_steps: int = 4
    spec_size: int = SPEC_SIZE
    random_fraction: float = 0.1
    measure_per_round: int = MEASURE_PER_ROUND
    eps_greedy: float = 0.05
    mutation_prob: float = 0.85

    def scaled(self, factor: float) -> "SearchConfig":
        """Return a copy with population/spec sizes scaled by ``factor``."""
        return replace(
            self,
            population=max(8, int(self.population * factor)),
            spec_size=max(8, int(self.spec_size * factor)),
        )


@dataclass(frozen=True)
class TrainConfig:
    """Cost-model training hyper-parameters (online and offline)."""

    epochs: int = 25
    batch_size: int = 128
    learning_rate: float = 4e-3
    weight_decay: float = 3e-4
    grad_clip: float = 5.0


ONLINE_TRAIN = TrainConfig(epochs=6)
OFFLINE_TRAIN = TrainConfig(epochs=60)


LITE_SEARCH = SearchConfig(population=64, ga_steps=3, spec_size=48)
SMOKE_SEARCH = SearchConfig(population=16, ga_steps=2, spec_size=12)
