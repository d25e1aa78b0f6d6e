"""Work spread over every CPU the process may use, with results that do not
depend on how many there are.

Both maps run on the calling thread plus one shared pool of helper
threads, and every thread takes the next unit in unit order. Neither map
changes what a unit computes, only which thread computes it, so a caller
that combines results in unit order gets the same bits at any thread
count; `taskset` pins a run to fewer CPUs.
"""

from __future__ import annotations

import os
import threading

_pool = None  # (workers, concurrent.futures.ThreadPoolExecutor), made on first use


def _threads() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run(work, n: int) -> None:
    """work(i) for i in range(n), i taken in order by the calling thread
    and up to _threads() - 1 pool threads. The first unit to raise (in
    unit order) raises here once every running unit is done; no unit
    starts after a raise, and the pool stays usable."""
    global _pool
    threads = min(_threads(), n)
    if threads < 2:
        for i in range(n):
            work(i)
        return
    if _pool is None or _pool[0] < threads - 1:
        from concurrent.futures import ThreadPoolExecutor
        if _pool is not None:
            _pool[1].shutdown(wait=False)
        _pool = (threads - 1, ThreadPoolExecutor(threads - 1, "pvlite"))
    errors, lock, order = {}, threading.Lock(), iter(range(n))

    def drain():
        while not errors:
            with lock:
                i = next(order, None)
            if i is None:
                return
            try:
                work(i)
            except BaseException as exc:
                errors[i] = exc

    helpers = [_pool[1].submit(drain) for _ in range(threads - 1)]
    drain()
    for h in helpers:  # one that never started has nothing left to do
        if not h.cancel():
            h.result()
    if errors:
        raise errors[min(errors)]


def ordered_map(fn, items) -> list:
    """[fn(x) for x in items], run on every CPU the process may use.

    Results come back in item order, so a caller that writes only what fn
    returns, or rows that one item alone writes, gets the same bits at any
    thread count. The first item to raise (in item order) raises here.
    """
    items = list(items)
    results = [None] * len(items)

    def work(i):
        results[i] = fn(items[i])

    _run(work, len(items))
    return results


def ordered_fold(fn, fold, items) -> None:
    """fn(x) for each item on every CPU the process may use, and fold(fn(x))
    strictly in item order: a thread holds its result until every earlier
    item is folded, then folds it and takes the next item. So each thread
    holds at most one result, and a fold that adds into an array adds in
    the serial order at any thread count.

    An item whose fn or fold raises still passes its turn on, so no later
    item waits forever; the first to raise (in item order) raises here.
    """
    items = list(items)
    turn, folded = threading.Condition(), [0]

    def work(i):
        result = missing = object()
        try:
            result = fn(items[i])
        finally:
            with turn:
                turn.wait_for(lambda: folded[0] == i)
            try:
                if result is not missing:
                    fold(result)
            finally:
                with turn:
                    folded[0] += 1
                    turn.notify_all()

    _run(work, len(items))
