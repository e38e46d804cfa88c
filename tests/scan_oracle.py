"""The enumerative cutoff that ``k0`` is tested against.

``k0_scan`` walks the decreasing spectrum from ``k = 1`` in doubling blocks and
returns the index before the first eigenvalue that is not kept.  It evaluates
O(k0) eigenvalues, so it refuses a cutoff past ``SCAN_CAP``; on a tabulated
spectrum the walk ends with the table, so a level below every value counts
the whole finite spectrum.
"""

import numpy as np

from fredinfo import InconclusiveError, NoiseLevel, SpectrumModel

SCAN_CAP = 1 << 22


def k0_scan(model: SpectrumModel, level: NoiseLevel) -> int:
    length = model.spectrum_length
    hard_cap = length if length is not None else SCAN_CAP
    count = 0
    start = 1
    block = 1024
    while start <= hard_cap:
        stop = min(start + block - 1, hard_cap)
        ok = level.kept(model, np.arange(start, stop + 1))
        if not ok.all():
            return start + int(np.argmin(ok)) - 1  # decreasing: the first failure is final
        count = stop
        start = stop + 1
        block *= 2
    if length is not None:
        return count
    raise InconclusiveError(f"k0 exceeds the scan's cap {SCAN_CAP}")
