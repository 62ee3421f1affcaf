"""Tuning as a service: job engine, an in-process runner, persistent warm starts.

Demonstrates the `repro.serve` workflow without a socket:

1. submit several tuning jobs to a :class:`JobEngine`,
2. drain them with the in-process runner (each job deterministic; to
   use more cores run one runner process per core: `server` + N x `runner`),
3. read best schedules back from the persistent record store,
4. resubmit the same workload — the second run warm-starts from the
   cached records and measures (almost) nothing new.

    python examples/tune_service.py
"""

from __future__ import annotations

import tempfile

from repro.serve import JobEngine, drain
from repro.serve.protocol import unwire_float


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="pruner-cache-") as cache_dir:
        engine = JobEngine(cache_dir)

        # 1. queue a few jobs (higher priority runs first)
        jobs = [
            engine.submit("bert_tiny", device="a100", rounds=8, priority=1),
            engine.submit("bert_tiny", device="t4", rounds=8),
            engine.submit("gpt2", device="a100", rounds=8, top_k_tasks=3),
        ]

        # 2. run them on a runner that leases from the engine directly
        print(f"running {len(jobs)} jobs ...")
        drain(engine)  # runner chatter goes to stderr
        for job in engine.jobs():
            if job["state"] != "done":
                print(f"  {job['job_id']}: {job['state']} ({job['error']})")
                continue
            result = engine.result(job["job_id"])
            print(
                f"  {job['job_id']}: done, {result['fresh_trials']} trials measured,"
                f" final {unwire_float(result['final_latency']) * 1e6:.1f} us"
            )

        # 3. best schedules survive in the record store
        summary = engine.best_schedule("bert_tiny", device="a100")
        print(f"\nbest schedules for bert_tiny@a100 ({len(summary['tasks'])} tasks):")
        for task_key, entry in sorted(summary["tasks"].items()):
            print(f"  {entry['latency'] * 1e6:8.1f} us  x{entry['weight']}  {task_key}")

        # 4. warm start: a new engine over the same cache (a restart)
        warm = JobEngine(cache_dir)
        job_id = warm.submit("bert_tiny", device="a100", rounds=8, priority=1)
        drain(warm)
        result = warm.result(job_id)
        print(
            f"\nwarm rerun: {result['seeded_trials']} trials loaded from cache,"
            f" {result['fresh_trials']} fresh,"
            f" final {unwire_float(result['final_latency']) * 1e6:.1f} us"
        )


if __name__ == "__main__":
    main()
