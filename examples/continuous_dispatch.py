#!/usr/bin/env python
"""Continuous-time dispatch: tasks with deadlines, workers with sessions.

The streaming dispatcher models the asynchronous reality: tasks are
posted at Poisson rate with a hard deadline, workers log in for short
sessions, and the dispatcher must decide *at each login/posting
instant*.  Two online policies:

* greedy        — give each arrival its best positive-benefit match
                  immediately (a new task goes to the best online
                  worker, a new worker takes their best open tasks);
* sample-price  — the first logins are served greedily and calibrate
                  a price; later matches must beat it, with the price
                  relaxing as a task's deadline approaches.

Each task and worker arrives exactly once, so the market for each
supply ratio is sized to the arrival rates over a nominal horizon.
The sweep over worker supply shows the regimes: scarce workers leave
tasks to expire, ample workers fill nearly everything.

Run:  python examples/continuous_dispatch.py
"""

import math

from repro import zipf_market
from repro.stream import DispatchConfig, StreamDispatcher

HORIZON = 150.0
TASK_RATE = 2.0


def main() -> None:
    header = (
        f"{'supply':>6s} | {'policy':>12s} | {'posted':>6s} {'filled':>6s} "
        f"{'expired':>7s} | {'fill %':>6s} | {'mean wait':>9s} | "
        f"{'benefit/assign':>14s}"
    )
    print(header)
    print("-" * len(header))

    for ratio in (0.25, 0.5, 1.0, 2.0, 4.0):
        worker_rate = TASK_RATE * ratio
        market = zipf_market(
            n_workers=round(worker_rate * HORIZON),
            n_tasks=round(TASK_RATE * HORIZON),
            seed=41,
        )
        for policy in ("greedy", "sample-price"):
            config = DispatchConfig(
                policy=policy,
                task_rate=TASK_RATE,
                worker_rate=worker_rate,
                deadline=8.0,
                session_length=4.0,
            )
            result = StreamDispatcher(market, config).run(seed=5)
            mean_benefit = (
                result.combined_benefit / result.assignments
                if result.assignments
                else float("nan")
            )
            mean_wait = result.latency_summary().get("mean", math.nan)
            print(
                f"{ratio:6.2f} | {policy:>12s} | {result.posted_tasks:6d} "
                f"{result.assignments:6d} {result.expired_tasks:7d} | "
                f"{100 * result.fill_rate:5.1f}% | "
                f"{mean_wait:9.2f} | {mean_benefit:14.3f}"
            )

    print(
        "\nReading: fill rate rises with worker supply for both policies; "
        "greedy already hands each new task to its best online worker, so "
        "sample-price's selectivity buys no extra benefit per assignment."
    )


if __name__ == "__main__":
    main()
