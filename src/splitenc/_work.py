"""Work arrays kept between calls, one buffer per role and thread.

The panel assembly and the factor step of the factor design, the
nested-pair kernel and the split statistic each need large scratch arrays
whose size repeats from call to call.  Allocated afresh, an array above
the allocator's mmap threshold goes back to the system when the call ends,
and the next call faults its pages in again.  ``work_array`` instead keeps
one flat buffer per role on each thread, grown to the largest size asked
for and viewed at the shape of the call.  An array above KEEP_ENTRIES
entries is allocated per call, so the memory kept per role and thread
stays bounded.  The factor step demeans its panel in place, so the panel
itself is never a work array.

A work array is uninitialised and is overwritten by the next call for the
same role on the same thread: a result must never be a view of one.
"""

import math
import threading

import numpy as np

KEEP_ENTRIES = 1 << 21  # entries (16 MB of float64) up to which a work buffer is kept between calls


class _Buffers(threading.local):
    def __init__(self):
        self.by_role = {}  # role -> flat buffer, kept between calls on this thread


_BUFFERS = _Buffers()


def work_array(role: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialised C-order array of the given shape, reusing this thread's buffer for the role.

    A role names one array of one caller and always has the same dtype.
    """
    size = math.prod(shape)
    if size > KEEP_ENTRIES:
        return np.empty(shape, dtype)
    buffer = _BUFFERS.by_role.get(role)
    if buffer is None or len(buffer) < size:
        buffer = _BUFFERS.by_role[role] = np.empty(size, dtype)
    return buffer[:size].reshape(shape)
