"""Virtual id expansion: paper-scale id entropy for scaled-down graphs.

Our datasets shrink the paper's graphs ~4096x (see
:mod:`repro.graph.datasets`), which shrinks the vertex-id space by the
same factor.  That distorts exactly one thing: the *compressibility of
vertex-id streams*.  In a randomized 39M-vertex graph the gap between
consecutive sorted neighbour ids is ~2^21, needing a 4-byte code (no
compression); in a 9.5k-vertex model it is ~2^9, needing 2 bytes
(spurious 2x compression).

``expand_ids`` maps each model id into a virtual paper-scale id space
with a *two-level* stretch:

* **across blocks** (communities) the space is stretched by the full
  ``scale`` — long-range gaps regain paper-scale entropy, so randomized
  graphs stop compressing, as in the paper;
* **within a block** of ``block`` consecutive ids, the stretch is only
  ``local_stride`` — communities keep their absolute density, because
  real communities (web hosts) do not grow when the graph is sampled
  down, and intra-community gaps are what DFS/BFS/GOrder preprocessing
  turns into 1-2-byte delta codes.

The map is strictly monotonic, so sortedness and relative structure are
preserved.  The *functional* paths (engines, algorithm correctness) never
expand ids; expansion exists purely so the traffic model measures honest
compression ratios.  Tests pin monotonicity and the randomized /
preprocessed ratio split.
"""

from __future__ import annotations

import numpy as np

_HASH_MULT = np.uint64(2654435761)

#: Ids within one block keep their local density (community granularity).
DEFAULT_BLOCK = 256
#: Within-block stretch; must stay <= scale for monotonicity.
DEFAULT_LOCAL_STRIDE = 4


def expand_ids(ids: np.ndarray, scale: int, block: int = DEFAULT_BLOCK,
               local_stride: int = DEFAULT_LOCAL_STRIDE) -> np.ndarray:
    """Map model vertex ids onto a paper-scale virtual id space.

    Returns ``uint64`` virtual ids.  ``scale <= 1`` is the identity.
    """
    ids64 = np.asarray(ids).astype(np.uint64)
    if scale <= 1:
        return ids64
    if block & (block - 1):
        raise ValueError("block must be a power of two")
    stride = np.uint64(min(local_stride, scale))
    blk = ids64 // np.uint64(block)
    off = ids64 % np.uint64(block)
    noise = (ids64 * _HASH_MULT) % stride
    return (blk * np.uint64(block * scale)) + off * stride + noise
