import ast
import pathlib
import threading

import numpy as np

import splitenc._work as work
from splitenc.enc_test import split_statistic
from splitenc.regression import nested_pair_forecast_errors


def _on_new_thread(task):
    """task() on a thread of its own, so its work buffers start empty; returns its result."""
    out = []
    worker = threading.Thread(target=lambda: out.append(task()))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    return out[0]


def _kept_sizes():
    return {role: buffer.size for role, buffer in work._BUFFERS.by_role.items()}


def test_imports_only_numpy_math_and_threading():
    tree = ast.parse(pathlib.Path(work.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    assert imported == {"math", "threading", "numpy"}
    assert not any(isinstance(node, ast.ImportFrom) for node in ast.walk(tree))


def test_array_above_the_keep_cap_is_not_kept():
    def task():
        at_cap = work.work_array("test.at", (work.KEEP_ENTRIES,))
        again = work.work_array("test.at", (2, work.KEEP_ENTRIES // 2))
        above = work.work_array("test.above", (work.KEEP_ENTRIES + 1,))
        return np.shares_memory(at_cap, again), above.size, _kept_sizes()

    shared, size, kept = _on_new_thread(task)
    assert shared and size == work.KEEP_ENTRIES + 1
    assert kept == {"test.at": work.KEEP_ENTRIES}


def test_buffers_belong_to_their_thread():
    here = work.work_array("test.thread", (10,))
    there = _on_new_thread(lambda: work.work_array("test.thread", (10,)))
    assert not np.shares_memory(here, there)


def test_kept_memory_of_the_largest_dgp1_chunk_is_bounded():
    # the largest dgp1 chunk (250 replications at T = 1000) keeps every buffer, each under
    # the cap; a larger chunk allocates its oversized running sums per call
    assert 250 * 8 * 1000 <= work.KEEP_ENTRIES

    def task(reps):
        g = np.random.default_rng(reps)
        y, x = g.standard_normal((2, reps, 1000))
        e1, e2 = nested_pair_forecast_errors(y, x, 1, 250)
        split_statistic(e1, e2, [225, 262, 300, 337], 9)
        return _kept_sizes()

    chunk = _on_new_thread(lambda: task(250))
    assert all(size <= work.KEEP_ENTRIES for size in chunk.values())
    assert sum(chunk.values()) <= 3 * work.KEEP_ENTRIES  # 48 MB of float64 per thread at most
    assert set(chunk) == {"pair.rows", "pair.check", "pair.origin", "pair.centred",
                          "stat.products", "stat.terms"}

    def larger():
        task(250)
        return task(300)

    after = _on_new_thread(larger)
    assert after["pair.rows"] == chunk["pair.rows"]
    assert all(size <= work.KEEP_ENTRIES for size in after.values())
