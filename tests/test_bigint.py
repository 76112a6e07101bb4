"""The big-int ring seam: libcrypto ring == reference ring, always.

Every kernel residue goes through ``repro.crypto.bigint``; the native ring
must return exactly what Python's operators return (golden transcripts and
seeded loss trajectories depend on it), fall back loudly-but-safely when
the library cannot be used, and never leak or share a native handle.
"""

from __future__ import annotations

import math
import pickle
import resource
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import _blinding_state, _restore_blinding
from repro.crypto import bigint, kernels, modexp
from repro.crypto.paillier import PaillierPublicKey, generate_paillier_keypair

needs_libcrypto = pytest.mark.skipif(
    bigint.backend()[0] != "libcrypto", reason=f"no libcrypto: {bigint.backend()[1]}"
)

odd_moduli = st.one_of(
    st.sampled_from([2**64 - 59, 2**127 - 1, 2**521 - 1, (2**61 - 1) ** 2]),
    st.integers(min_value=2**63, max_value=2**2048).map(lambda m: m | 1),
)


@st.composite
def ring_cases(draw):
    """An odd 64..2048-bit modulus and operands around every edge of it."""
    m = draw(odd_moduli)
    edges = [0, 1, 2, m - 1, m, m + 1, 2 * m + 5, m * m + 3]
    operands = draw(
        st.lists(
            st.one_of(st.sampled_from(edges), st.integers(0, 4 * m)),
            min_size=2, max_size=6,
        )
    )
    return m, operands


def _rings(m: int):
    return bigint.LibcryptoRing(m), bigint.PythonRing(m)


@needs_libcrypto
@given(ring_cases())
@settings(max_examples=60, deadline=None)
def test_chain_operations_agree(case):
    m, xs = case
    native, ref = _rings(m)
    with native.chain() as z, ref.chain() as y:
        a, b = z.load(xs), y.load(xs)
        assert z.dump(a) == y.dump(b) == [x % m for x in xs]  # load -> dump round trip
        assert z.dump([z.one]) == y.dump([y.one]) == [1]
        products = [z.mul(p, q) for p, q in zip(a, a[1:])]
        assert z.dump(products) == [p * q % m for p, q in zip(xs, xs[1:])]
        assert z.dump(products) == y.dump([y.mul(p, q) for p, q in zip(b, b[1:])])
        # ``out`` may be overwritten, the operands never are.
        scratch = z.mul(a[0], a[1])
        assert z.mul(scratch, a[1], scratch) is scratch
        assert z.dump([scratch]) == [xs[0] * xs[1] * xs[1] % m]
        assert z.dump(a) == [x % m for x in xs]


# Squaring runs on both sides of the native-run threshold at every modulus
# size (it grows with the modulus: 8, 16, 48 at 512, 1 024, 2 048 bits).
_RUNS = [0, 1, 2, bigint._SQR_RUN_MIN - 1, bigint._SQR_RUN_MIN, bigint._SQR_RUN_MIN + 1, 15, 16, 47, 48, 200]


@st.composite
def program_cases(draw):
    """A modulus, operands around its edges, and accumulate programs over
    them: empty ones, single factors, repeated handles, runs of every kind."""
    m, operands = draw(ring_cases())
    picks = st.lists(st.integers(0, len(operands) - 1), max_size=4)
    steps = st.tuples(picks, st.one_of(st.sampled_from(_RUNS), st.integers(0, 40)))
    return m, operands, draw(st.lists(st.lists(steps, max_size=5), max_size=5))


def _run_reference(m: int, operands: list[int], program) -> int:
    acc = 1 % m
    for picks, squarings in program:
        for i in picks:
            acc = acc * operands[i] % m
        acc = pow(acc, 1 << squarings, m)
    return acc


@pytest.mark.parametrize("ring_type", ["LibcryptoRing", "PythonRing"])
@given(program_cases())
@settings(max_examples=60, deadline=None)
def test_run_is_the_product_of_pows(ring_type, case):
    if ring_type == "LibcryptoRing" and bigint.backend()[0] != "libcrypto":
        pytest.skip(f"no libcrypto: {bigint.backend()[1]}")
    m, operands, plan = case
    with getattr(bigint, ring_type)(m).chain() as z:
        handles = z.load(operands)
        programs = [[([handles[i] for i in picks], k) for picks, k in program] for program in plan]
        out = z.run(programs)
        assert z.dump(out) == [_run_reference(m, operands, program) for program in plan]
        # Inputs are only read — the same handle may sit in many programs —
        # and every output is a handle of its own, ready to be an input.
        assert z.dump(handles) == [x % m for x in operands]
        assert z.dump(z.run([[(out, 1)]])) == [pow(math.prod(z.dump(out)), 2, m)]
        assert z.dump(z.run([[], [([], 3)], [([z.one], 0)]])) == [1 % m] * 3


@needs_libcrypto
@given(ring_cases(), st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 2**2048)))
@settings(max_examples=60, deadline=None)
def test_one_shot_operations_agree(case, e):
    m, xs = case
    native, ref = _rings(m)
    expected = [pow(x, e, m) for x in xs]
    assert native.pow_many(xs, e) == ref.pow_many(xs, e) == expected
    assert native.pow(xs[0], e) == ref.pow(xs[0], e) == expected[0]
    assert native.mul_many(xs, xs[::-1]) == ref.mul_many(xs, xs[::-1])
    assert all(type(r) is int for r in native.pow_many(xs, e) + native.mul_many(xs, xs))
    units = [x for x in xs if math.gcd(x, m) == 1]
    inverses = [pow(u, -1, m) for u in units]
    assert native.inv_many(units) == ref.inv_many(units) == inverses
    assert [native.inv(u) for u in units] == [ref.inv(u) for u in units] == inverses
    with pytest.raises(ValueError, match="non-negative"):
        native.pow_many(xs, -1)


@needs_libcrypto
def test_non_invertible_element_raises_the_builtin_error():
    p, q = 2**61 - 1, 2**89 - 1
    m = p * p * q
    with pytest.raises(ValueError) as builtin:
        pow(p, -1, m)
    for ring in _rings(m):
        for call in (lambda: ring.inv(p), lambda: ring.inv_many([3, p, 5])):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == str(builtin.value)
        assert ring.inv_many([]) == []


# ---------------------------------------------------------------------------
# Selection: the size rule and the fallbacks.


@needs_libcrypto
def test_size_rule_is_a_function_of_the_modulus_bit_length():
    def picked(bits: int):
        ring = bigint.make_ring((1 << (bits - 1)) | 1)
        if not isinstance(ring, bigint.LibcryptoRing):
            return None
        return "chains" if ring._chains else "modexp"

    assert picked(64) is picked(127) is None  # too small for any ctypes call
    assert picked(128) == picked(256) == picked(383) == "modexp"
    assert picked(384) == picked(512) == picked(4096) == "chains"
    assert type(bigint.make_ring(1 << 512)) is bigint.PythonRing  # Montgomery needs odd
    assert bigint.ring_for(2**127 - 1) is bigint.ring_for(2**127 - 1)
    assert bigint.make_ring(2**127 - 1) is not bigint.make_ring(2**127 - 1)
    with bigint.make_ring(2**255 - 19) as small:  # a hybrid ring chains on the reference
        assert small.dump([small.mul(*small.load((7, 9)))]) == [63]


def _loader_failures(monkeypatch):
    def missing_library():
        monkeypatch.setattr(bigint, "_find_library", lambda: None)
        return "libcrypto not found"

    def missing_symbol():
        monkeypatch.setitem(bigint._SYMBOLS, "BN_no_such_entry_point", (None,))
        return "lacks a required symbol"

    def wrong_answer():
        real = bigint.LibcryptoRing.pow_many
        monkeypatch.setattr(
            bigint.LibcryptoRing, "pow_many",
            lambda self, bases, e: [r ^ 1 for r in real(self, bases, e)],
        )
        return "known-answer"

    return missing_library, missing_symbol, wrong_answer


@needs_libcrypto
@pytest.mark.parametrize("failure", range(3))
def test_loader_failure_selects_the_reference_ring(monkeypatch, failure):
    m = 2**521 - 1
    try:
        why = _loader_failures(monkeypatch)[failure]()
        bigint._resolve()
        name, detail = bigint.backend()
        assert name == "python" and why in detail
        ring = bigint.ring_for(m)
        assert type(ring) is bigint.PythonRing
        assert ring.pow(3, m - 2) == pow(3, m - 2, m)
        with pytest.raises(RuntimeError, match=why):
            bigint.LibcryptoRing(m)
        pk, sk = generate_paillier_keypair(256, seed=5)
        assert sk.raw_decrypt(pk.raw_encrypt(1234)) == 1234
    finally:
        monkeypatch.undo()
        bigint._resolve()
    assert bigint.backend()[0] == "libcrypto"
    assert type(bigint.ring_for(m)) is bigint.LibcryptoRing


def test_pure_python_override_is_the_only_switch(monkeypatch):
    try:
        monkeypatch.setenv("REPRO_PURE_PYTHON", "1")
        bigint._resolve()
        assert bigint.backend() == ("python", "REPRO_PURE_PYTHON=1")
        assert type(bigint.ring_for(2**521 - 1)) is bigint.PythonRing
    finally:
        monkeypatch.undo()
        bigint._resolve()


# ---------------------------------------------------------------------------
# Lifecycle: handles never cross a boundary, threads never share a BN_CTX,
# nothing leaks.


@needs_libcrypto
def test_native_state_refuses_to_pickle():
    ring = bigint.LibcryptoRing(2**521 - 1)
    with ring.chain() as z:
        for native in (ring, z):
            with pytest.raises(TypeError, match="pickle|boundary"):
                pickle.dumps(native)


@needs_libcrypto
def test_tables_cross_pickles_pools_and_checkpoints_by_rebuilding(force_ring):
    with force_ring("libcrypto"):
        pk, sk = generate_paillier_keypair(128, seed=8)
        first = pk.blinding_factors(3)
        table = pk._h_table
        assert isinstance(table._built[1], bigint._Chain)
        # A pickled key ships its table empty; the clone rebuilds it lazily
        # and continues the very same blinder stream.
        clone = pickle.loads(pickle.dumps(pk))
        assert clone._h_table is not table and clone._h_table._built is None
        assert clone.blinding_factors(4) == pk.blinding_factors(4)
        assert clone._h_table._built is not None
        exps = [1, 2**100 + 7, 2**128 - 1]
        assert table.pow_many(exps) == [pow(pk._h, e, pk.nsquare) for e in exps]
        # A checkpoint carries (rng, h) as ints; restoring
        # into a fresh key rebuilds the table there.
        state = pickle.loads(pickle.dumps(_blinding_state(pk)))
        restored = PaillierPublicKey(pk.n)
        _restore_blinding(restored, state)
        assert restored._h_table is None
        assert restored.blinding_factors(5) == pk.blinding_factors(5)
        assert all(sk.raw_decrypt(b) == 0 for b in first)


@needs_libcrypto
def test_threads_do_not_share_a_bn_ctx():
    """More threads than cores hammer chains and modexps on one ring."""
    m = (2**521 - 1) * (2**607 - 1)
    ring = bigint.LibcryptoRing(m)
    bases = list(range(3, 43))
    expected_pows = [pow(b, 65537, m) for b in bases]
    expected_product = pow(math.prod(bases), 1 << 43, m)
    failures: list[str] = []

    def work():
        for _ in range(30):
            if ring.pow_many(bases, 65537) != expected_pows:
                failures.append("pow_many")
            with ring.chain() as z:
                # One looped run, one native: the cached 2^k is per chain too.
                if z.dump(z.run([[(z.load(bases), 3), ([], 40)]])) != [expected_product]:
                    failures.append("chain")

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(previous)
    assert failures == []


def _rss_kib() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() // 1024


@needs_libcrypto
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_three_hundred_steps_do_not_grow_the_process():
    """Every BIGNUM a chain allocates is freed — accumulators, tables and
    the cached ``2^k`` exponents of native squaring runs: LR-shaped kernel
    steps (encrypt, matmul, lane lift, add, sub, CRT decrypt) run at steady
    RSS."""
    pk, sk = generate_paillier_keypair(512, seed=3)
    assert isinstance(bigint.ring_for(pk.nsquare), bigint.LibcryptoRing)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 14))
    weights = kernels.encrypt_flat(pk, rng.normal(size=14))

    def step():
        fresh = kernels.encrypt_flat(pk, rng.normal(size=6))
        out, exp = kernels.matmul_plain_cipher_flat(pk, x, weights, 1, kernels.TENSOR_EXPONENT)
        modexp.multi_pow(pk, fresh, [[(0, 1), (1, 1 << 113), (2, 1 << 226)], [(3, 1 << 40)]])
        summed, exps = kernels.add_cipher_flat(pk, out, [exp] * 4, fresh[:4], [exp] * 4)
        kernels.decrypt_flat(sk, kernels.sub_cipher_flat(pk, summed, exps, out, exps)[0], exps)

    for _ in range(30):
        step()
    before = _rss_kib()
    for _ in range(300):
        step()
    assert _rss_kib() - before < 1024
