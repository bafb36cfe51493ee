"""Deterministic parallel mapping, and the one task pool of a command.

Work items carry their own substream keys, so results depend only on the
item index, never on the schedule; map_ordered returns them in item order,
which keeps reproductions byte-identical for any worker count.

A plan is a generator that yields one list of tasks (fn, *args), each fn a
module-level function and each arg hashable and picklable, and that, sent
their results in the order it asked for them, returns its value. run_plans
runs every distinct task of its plans once, in one map_ordered, so plans
that ask for equal tasks share them and independent tasks share the pool.
"""

from __future__ import annotations

from typing import Callable, Generator, Sequence

Plan = Generator[list, list, object]


def map_ordered(fn: Callable, items: Sequence, workers: int = 1) -> list:
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor   # here, so that a serial run never loads multiprocessing
    workers = min(workers, len(items))   # fork starts all max_workers processes at the first submit
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))


def _run_task(task: tuple):
    fn, *args = task
    return fn(*args)


def run_plans(plans: Sequence[Plan], workers: int = 1) -> list:
    """The value of each plan, in order, once each is sent the results of the
    tasks it yielded; every distinct task runs once, over workers."""
    plans = list(plans)
    asked = [next(plan) for plan in plans]
    tasks = list(dict.fromkeys(task for plan_tasks in asked for task in plan_tasks))
    results = dict(zip(tasks, map_ordered(_run_task, tasks, workers)))
    values = []
    for plan, plan_tasks in zip(plans, asked):
        try:
            plan.send([results[task] for task in plan_tasks])
        except StopIteration as done:
            values.append(done.value)
        else:
            raise RuntimeError("a plan yields one list of tasks, and returns once sent their results")
    return values
