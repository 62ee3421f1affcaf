"""TenSet-like dataset generation and the paper's dataset metrics."""

from repro.dataset.tenset import TaskRows, TensorProgramDataset, tenset_dataset
from repro.dataset.metrics import best_k_score, top_k_score

__all__ = [
    "TaskRows",
    "TensorProgramDataset",
    "tenset_dataset",
    "top_k_score",
    "best_k_score",
]
