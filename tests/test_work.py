import ast
import pathlib
import threading

import numpy as np

import splitenc._work as work
import splitenc.dgp as dgp
import splitenc.monte_carlo as mc
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


def test_engine_keeps_one_row_block_of_the_kernel():
    # one 250-replication part at T = 1000 runs in row blocks of 32, so each kernel buffer
    # is sized for a block, not for the part
    cells = [mc.McCell(dgp=mc.Dgp1Spec(T=1000), mu0=mu0) for mu0 in (0.3, 0.4, 0.45, 0.6)]
    ((digest, designs),) = mc._design_groups(cells)
    rows = mc._ROW_BLOCK // 1000
    assert rows == 32

    def task():
        (block,) = mc.run_replication([(designs, range(250), (3, digest))])
        return block, _kept_sizes()

    block, kept = _on_new_thread(task)
    assert block.shape == (4, 250) and np.isfinite(block).all()
    per_block = {"pair.rows": 8 * rows * 999, "pair.check": 3 * rows * 999,
                 "pair.origin": 2 * 3 * rows * 750, "pair.centred": 6 * rows * 750}
    assert {role: size for role, size in kept.items() if role.startswith("pair.")} == per_block
    assert kept["stat.terms"] == 4 * rows * 750


def test_panel_keeps_one_row_block_of_the_common_component():
    # a 500 x 500 panel gets its common component in blocks of _PANEL_BLOCK // 500 rows,
    # so the kept buffer is one block, not the panel
    rows = dgp._PANEL_BLOCK // 500
    assert rows < 500

    def task():
        dgp.simulate_dgp2(dgp.Dgp2Spec(T=500, N=500), dgp.RngStream(3, 1))
        return _kept_sizes()

    assert _on_new_thread(task) == {"panel.common": rows * 500}
