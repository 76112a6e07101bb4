"""Private set intersection (PSI) stand-in.

The paper *assumes* instances are pre-aligned by PSI (§7.1).  Real
deployments use OPRF/DH-based protocols; here a salted-hash exchange
computes the same alignment (which rows pair up), which is all downstream
code observes.  §8's asymmetric relaxation (only Party B learns
membership; B zeroes the derivatives of non-member rows) needs no
alignment code of its own: ``tests/test_asymmetric_alignment.py`` checks
the zeroed-derivative half on the real protocol.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = ["PSIResult", "hashed_psi"]


@dataclass
class PSIResult:
    """Alignment output: positions into each party's local id list."""

    ids: list[object]
    index_a: np.ndarray
    index_b: np.ndarray


_SALT = b"blindfl"


def _salted_digest(identifier: object) -> bytes:
    return hashlib.sha256(_SALT + repr(identifier).encode()).digest()


def hashed_psi(ids_a: list, ids_b: list) -> PSIResult:
    """Symmetric PSI: both parties learn the intersection, nothing else.

    Parties exchange salted hashes; matching digests identify shared ids.
    The result orders the intersection deterministically (by digest) so both
    parties produce identical alignments without further coordination.
    """
    if len(set(ids_a)) != len(ids_a) or len(set(ids_b)) != len(ids_b):
        raise ValueError("party id lists must not contain duplicates")
    digest_a = {_salted_digest(i): pos for pos, i in enumerate(ids_a)}
    digest_b = {_salted_digest(i): pos for pos, i in enumerate(ids_b)}
    common = sorted(set(digest_a) & set(digest_b))
    index_a = np.array([digest_a[d] for d in common], dtype=np.int64)
    index_b = np.array([digest_b[d] for d in common], dtype=np.int64)
    ids = [ids_a[i] for i in index_a]
    return PSIResult(ids=ids, index_a=index_a, index_b=index_b)
