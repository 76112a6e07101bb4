"""Shared fixtures: short Paillier keys and federation contexts.

Key sizes here are deliberately small (fast on either big-int ring); the
protocols are key-size agnostic and a couple of tests exercise larger keys
explicitly.
"""

from __future__ import annotations

import contextlib
from pathlib import Path

import numpy as np
import pytest

import repro.analysis.__main__ as lint_cli
from repro.comm.party import VFLConfig, VFLContext
from repro.crypto import bigint
from repro.crypto.paillier import generate_paillier_keypair

TEST_KEY_BITS = 128


@contextlib.contextmanager
def _force_ring(name: str):
    """Pin every modulus to one big-int ring, whatever its size.

    The size rule sends the short test keys to the reference ring;
    ``"libcrypto"`` drops its thresholds to zero so the native ring runs
    them too, ``"python"`` unbinds the library so nothing does.  Keys (and
    pools) built inside the block keep their rings, so build them inside.
    """
    if name == "libcrypto" and bigint.backend()[0] != "libcrypto":
        pytest.skip(f"libcrypto ring unavailable: {bigint.backend()[1]}")
    patch = pytest.MonkeyPatch()
    if name == "libcrypto":
        for rule in ("_MODEXP_MIN_BITS", "_CHAIN_MIN_BITS"):
            patch.setattr(bigint, rule, 0)
    else:
        patch.setattr(bigint, "_LIB", None)
    bigint.ring_for.cache_clear()
    try:
        yield
    finally:
        patch.undo()
        bigint.ring_for.cache_clear()


@pytest.fixture()
def force_ring():
    """The ``with force_ring("libcrypto" | "python"):`` context manager."""
    return _force_ring


@pytest.fixture(scope="module", params=["libcrypto", "python"])
def ring_backend(request):
    """Run a module's tests once per ring implementation (see ``force_ring``)."""
    with _force_ring(request.param):
        yield request.param


@pytest.fixture(scope="session")
def keypair():
    """A session-wide short key pair for crypto unit tests."""
    return generate_paillier_keypair(TEST_KEY_BITS, seed=42)


@pytest.fixture(scope="session")
def second_keypair():
    return generate_paillier_keypair(TEST_KEY_BITS, seed=43)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


@pytest.fixture(params=["memory", "serializing"])
def ctx(request):
    """A fresh two-party federation with short keys per test.

    Parametrised over the two in-process channel tiers, so every protocol
    test that runs through this fixture also proves the codec round-trip
    is a drop-in: with ``"serializing"`` each payload crosses the party
    boundary as honest bytes (encode -> decode on every send).
    """
    return VFLContext(
        VFLConfig(key_bits=TEST_KEY_BITS, channel=request.param), seed=11
    )


REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"


@pytest.fixture(scope="session")
def _src_tree_sweep():
    return lint_cli.analyze_paths([SRC_TREE])


@pytest.fixture()
def src_sweep(_src_tree_sweep, monkeypatch):
    """The session's one ``repro.analysis`` sweep of ``src/repro``:
    ``(findings, files_scanned)``.

    While a test holds it, every ``analyze_paths`` call the CLI makes with
    all rules over exactly that tree returns this sweep instead of taking
    another; any other call sweeps as usual.
    """
    real = lint_cli.analyze_paths

    def analyze_paths(paths, rules=None):
        paths = list(paths)
        if rules is None and [Path(p).resolve() for p in paths] == [SRC_TREE]:
            findings, files_scanned = _src_tree_sweep
            return list(findings), files_scanned
        return real(paths, rules)

    monkeypatch.setattr(lint_cli, "analyze_paths", analyze_paths)
    return _src_tree_sweep
