"""Deterministic parallel mapping.

Work items carry their own substream keys, so results depend only on the
item index, never on the schedule; map_ordered returns them in item order,
which keeps reproductions byte-identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence


def map_ordered(fn: Callable, items: Sequence, workers: int = 1) -> list:
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(workers, len(items))   # fork starts all max_workers processes at the first submit
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))
