"""Baselines the paper compares against (or criticizes).

* :mod:`repro.baselines.naive` — the appendix's per-tuple-signature
  strategy; the comparison partner in Figures 10-13.
* :mod:`repro.baselines.merkle` — a Devanbu-et-al-style Merkle hash
  tree with a single signed root; the related work whose limitations
  (Section 2) motivate the VB-tree.
"""

from repro.baselines.merkle import (
    MerkleRangeProof,
    MerkleTree,
    MerkleVerifier,
    ROOT_SPACE,
)
from repro.baselines.naive import (
    NaiveResult,
    NaiveStore,
    NaiveVerifier,
)

__all__ = [
    "MerkleRangeProof",
    "MerkleTree",
    "MerkleVerifier",
    "NaiveResult",
    "NaiveStore",
    "NaiveVerifier",
    "ROOT_SPACE",
]
