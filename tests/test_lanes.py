"""Lanes all the way back: packed ``[[gZ]]``, ``[[gZ V^T]]`` and ``V`` pieces.

With ``packing=True`` a fresh encryption whose consumer is a ``plain @
cipher`` product leaves its sender in lanes and the packed product goes to
HE2SS as it is.  These tests pin the new primitives against the
per-element ones, the counted "no message grows" gate over a public-shape
grid (``tests/lanes_grid.py``; since the Embed-MatMul cross terms were fused
its parent is the commit before that), and packed ≡ unpacked over a 40-step
horizon in memory.
"""

from __future__ import annotations

import numpy as np
import pytest

import lanes_grid
from repro.comm.party import VFLConfig, VFLContext
from repro.core.models import FederatedDLRM, FederatedWDL
from repro.core.trainer import TrainConfig, train_federated
from repro.crypto.crypto_tensor import CryptoTensor
from repro.crypto.packing import PackedCryptoTensor, protocol_layout
from repro.crypto.paillier import generate_paillier_keypair
from repro.crypto.secret_sharing import he2ss_receive, he2ss_split
from repro.data import make_mixed_classification, split_vertical
from repro.tensor.sparse import CSRMatrix


@pytest.fixture(scope="module", params=[256, 512], ids=["2slots", "4slots"])
def keyed_layout(request):
    pk, sk = generate_paillier_keypair(request.param, seed=31)
    layout = protocol_layout(pk, mask_scale=2.0**16, acc_depth=4096)
    assert layout.slots == {256: 2, 512: 4}[request.param]
    return pk, sk, layout


# ---------------------------------------------------------------------------
# Primitives.


def test_tiles_is_the_public_width_rule(keyed_layout):
    _, _, layout = keyed_layout
    s = layout.slots
    assert layout.tiles(s) and layout.tiles(3 * s)  # whole ciphertexts
    assert layout.tiles(1) == (s >= 2)  # at least two rows to a ciphertext
    assert not layout.tiles(s + 1) and not layout.tiles(2 * s - 1)
    if s == 4:
        assert layout.tiles(2) and not layout.tiles(3)


def test_csr_transpose_is_the_dense_transpose():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 5)) * (rng.random((6, 5)) < 0.5)
    x[:, 3] = 0.0
    sparse = CSRMatrix.from_dense(x)
    assert np.array_equal(sparse.transpose().to_dense(), x.T)
    support = sparse.column_support()
    assert 3 not in support
    assert np.array_equal(sparse.transpose(support).to_dense(), x.T[support])
    for missing in (support[:-1], support[1:], np.array([], dtype=np.int64)):
        with pytest.raises(IndexError, match="outside `columns`"):
            sparse.transpose(missing)
    empty = CSRMatrix.from_dense(np.zeros((2, 3)))
    assert empty.transpose().shape == (3, 2) and empty.transpose(np.array([1])).nnz == 0


@pytest.mark.parametrize("columns", [None, np.array([0, 2, 3])])
def test_packed_t_rmatmul_matches_per_element(keyed_layout, columns):
    """``X.T @ [[g]]`` against a ``[[g]]`` in lanes — dense, CSR and CSR
    restricted to a column support — decrypts exactly like the per-element
    product, from a quarter (or half) of the ciphertexts."""
    pk, sk, layout = keyed_layout
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 5)) * (rng.random((6, 5)) < 0.6)
    x[:, [1, 4]] = 0.0  # the support is columns 0, 2, 3
    g = rng.normal(size=(6, 4)) * 0.1
    per_element = CryptoTensor.encrypt(pk, g)
    in_lanes = PackedCryptoTensor.encrypt(pk, g, layout)
    for plain in (x, CSRMatrix.from_dense(x)):
        want = per_element.t_rmatmul(plain, columns=columns).decrypt(sk)
        got = in_lanes.t_rmatmul(plain, columns=columns)
        assert isinstance(got, PackedCryptoTensor)
        assert got.n_ciphertexts == want.shape[0] * layout.ct_count(4)
        assert np.array_equal(got.decrypt(sk), want)
    rows = x.shape[1] if columns is None else len(columns)
    assert want.shape == (rows, 4)
    np.testing.assert_allclose(
        want, (x if columns is None else x[:, columns]).T @ g, atol=1e-9
    )
    with pytest.raises(ValueError, match="shape mismatch"):
        in_lanes.t_rmatmul(CSRMatrix.from_dense(x[:5]))


def test_row_merge_ships_narrow_rows_as_densely_as_a_contiguous_pack():
    """Rows narrower than half a ciphertext merge ``slots // cols`` to one,
    by lane shifts alone; the result decrypts bit-identically, keeps the
    live lane bound and is a contiguous pack of the narrowed layout."""
    pk, sk = generate_paillier_keypair(512, seed=32)
    layout = protocol_layout(pk, mask_scale=2.0**16, acc_depth=4096)  # 4 slots
    values = np.random.default_rng(6).normal(size=(5, 2))
    narrow = PackedCryptoTensor.encrypt(pk, values, layout)
    assert narrow.n_ciphertexts == 5 and narrow.segments_per_ct == 2
    merged = PackedCryptoTensor.pack(narrow, layout, contiguous=True)
    assert merged.n_ciphertexts == 3 == layout.ct_count(values.size)
    assert merged.contiguous and merged.layout == layout and merged.shape == (5, 2)
    assert merged.value_bits == narrow.value_bits
    assert np.array_equal(merged.decrypt(sk), narrow.decrypt(sk))
    # Segments of a regrouped row merge the same way (the lookup pipeline).
    regrouped = PackedCryptoTensor.encrypt(pk, values.reshape(-1, 1)[:8].reshape(4, 2), layout)
    wide = regrouped.reshape(2, 4)
    assert wide.seg_cols == 2 and wide.n_ciphertexts == 4
    assert np.array_equal(
        PackedCryptoTensor.pack(wide, layout, contiguous=True).decrypt(sk), wide.decrypt(sk)
    )
    # Nothing to merge: full rows, a contiguous pack, a row-aligned request.
    full = PackedCryptoTensor.encrypt(pk, np.ones((3, 4)), layout)
    assert full.segments_per_ct == 1 and merged.segments_per_ct == 1
    for tensor, contiguous in ((full, True), (merged, True), (narrow, False)):
        with pytest.raises(TypeError, match="merges"):
            PackedCryptoTensor.pack(tensor, layout, contiguous=contiguous)


def test_row_merge_at_a_slot_count_the_width_does_not_divide():
    """Four-wide rows in nine slots: two rows to a ciphertext, one lane
    idle, carried by the layout narrowed to eight slots."""
    pk, sk = generate_paillier_keypair(1024, seed=33)
    layout = protocol_layout(pk, mask_scale=2.0**16, acc_depth=4096)
    assert layout.slots == 9
    values = np.random.default_rng(7).normal(size=(5, 4))
    narrow = PackedCryptoTensor.encrypt(pk, values, layout)
    merged = PackedCryptoTensor.pack(narrow, layout, contiguous=True)
    assert merged.layout.slots == 8 and merged.n_ciphertexts == 3
    assert np.array_equal(merged.decrypt(sk), narrow.decrypt(sk))


def test_he2ss_merges_narrow_packed_rows_before_the_wire():
    ctx = VFLContext(VFLConfig(key_bits=512, packing=True, channel="serializing"), seed=12)
    a, b = ctx.A, ctx.B
    layout = protocol_layout(b.public_key, mask_scale=ctx.config.mask_scale, acc_depth=4096)
    values = np.random.default_rng(8).normal(size=(6, 2))
    narrow = PackedCryptoTensor.encrypt(b.public_key, values, layout)
    phi = he2ss_split(narrow, a, "B", ctx.channel, "t", ctx.config.mask_scale, packing=layout)
    sent = ctx.channel.transcript[-1].payload
    assert sent.contiguous and sent.n_ciphertexts == 3 and phi.shape == (6, 2)
    np.testing.assert_allclose(he2ss_receive(b, ctx.channel, "t") + phi, values, atol=1e-9)


# ---------------------------------------------------------------------------
# The counted "no message grows" gate.


def _cell(name: str) -> dict:
    layer, bits, refresh, *widths = name.split("/")
    dims = {w[0]: int(w[1:]) for w in widths if w[0] in "OE"}
    return {"layer": layer, "out": dims["O"], "emb": dims.get("E")}


def _check_cell(name: str, now: dict, was: dict) -> None:
    cell, s = _cell(name), was["slots"]
    out, emb = cell["out"], cell["emb"]
    assert now["slots"] == s, name
    # Every Horner chain runs inside a ``pack`` span and nowhere else.
    assert now["pack_spans"] == now["lifts"] + now["merges"], (name, now)

    def tiles(cols):
        return cols % s == 0 or s // cols >= 2

    def cts(cols):
        return -(-cols // s)

    gz_lanes = out >= 2 and tiles(out)
    if cell["layer"] == "matmul":  # the MatMul family is not touched
        assert now == was, (name, now, was)
        if gz_lanes:
            assert now["lifts"] == 0, (name, now)
            assert now["merges"] == (3 if 2 * out <= s else 0), (name, now)
        return
    # One crossing per direction per phase: the key owners decrypt strictly
    # less than at the parent and nothing that is counted grows.
    for counted in ("ct.decrypted", "pow.crt"):
        assert now[counted] < was[counted], (name, counted, now, was)
    for counted in ("cts_sent", "bytes_sent", "lifts", "merges"):
        assert now[counted] <= was[counted], (name, counted, now, was)
    v_lanes = gz_lanes and cts(out) * emb + cts(emb) * out <= out * emb
    if v_lanes:
        # Only A's [[gZ]] @ U_A^T, a cipher @ plain product, is still lifted.
        assert now["lifts"] == 1, (name, now)
    elif gz_lanes:
        # B's psi_B @ [[V_B]] half (into the packed [[U_A]] product's row
        # lanes) and both parties' gradient rows.
        assert now["lifts"] == 3, (name, now)
    if out % s == 0 and emb % s == 0:
        assert now["merges"] == 0, (name, now)
    assert now["merges"] <= 7, (name, now)  # one per HE2SS transfer at most


def test_no_message_grows_over_the_public_shape_grid():
    """One counted step per cell — two and four slots, ``out_dim`` 1-4,
    ``emb_dim`` 2-4, dense and CSR inputs, both refresh modes — against the
    parent's recorded numbers: every MatMul cell is equal, every
    Embed-MatMul cell has strictly fewer decrypts and CRT modexps and no
    more ciphertexts, bytes, per-element lifts or row merges; where lanes
    pay, a MatMul step lifts nothing and an Embed-MatMul step one tensor."""
    was = lanes_grid.frozen()
    now = lanes_grid.grid()
    assert set(now) == {name for name in was if "/2048/" not in name}
    for name, counts in now.items():
        _check_cell(name, counts, was[name])
    # The benchmark's shape (two slots, widths of four): one lift, no merge,
    # and the two forward crossings a direction that became one.
    dense, embed = "matmul/256/delta/csr/O4", "embed/256/delta/O4/E4"
    assert now[dense]["lifts"] + now[embed]["lifts"] == 1
    assert now[dense]["merges"] + now[embed]["merges"] == 0
    saved = 2 * lanes_grid.BATCH * 2  # (batch, 4) in two slots, per direction
    assert was[embed]["ct.decrypted"] - now[embed]["ct.decrypted"] == saved
    assert now[embed]["bytes_sent"] < was[embed]["bytes_sent"]


@pytest.mark.bigkey
def test_narrow_outputs_merge_at_the_papers_key_size():
    """2048 bits, 17 slots (18 in the MatMul layer, whose rows are not
    contractions), widths of 4: a row-aligned product would ship a
    ciphertext a row; merged four rows to one it ships what a contiguous
    re-pack would, and every transfer of the step is merged — seven in an
    Embed-MatMul step now that each direction crosses once per phase."""
    was = lanes_grid.frozen()
    now = lanes_grid.bigkey_grid()
    for name, counts in now.items():
        layer = _cell(name)["layer"]
        assert counts["slots"] == (18 if layer == "matmul" else 17)
        _check_cell(name, counts, was[name])
        assert counts["merges"] == (3 if layer == "matmul" else 7), (name, counts)
    cell = "embed/2048/reencrypt/O4/E4"
    assert (was[cell]["ct.decrypted"], now[cell]["ct.decrypted"]) == (16, 14)
    assert (was[cell]["merges"], now[cell]["merges"]) == (10, 7)


# ---------------------------------------------------------------------------
# Long-horizon packed training, in memory.

STEPS = 40


@pytest.fixture(scope="module")
def mixed_data():
    return split_vertical(
        make_mixed_classification(
            2 * STEPS, sparse_dim=8, nnz_per_row=2, n_fields=4, vocab_size=3, seed=4
        )
    )


@pytest.mark.parametrize("refresh", ["reencrypt", "delta"])
@pytest.mark.parametrize("shape", ["dlrm", "wdl"])
def test_forty_packed_steps_match_unpacked(mixed_data, shape, refresh):
    """Forty steps with two categorical fields a party, same seed packed and
    unpacked: no lane overflows as the pieces drift, and the losses agree
    (bit for bit, as in the short packed ≡ unpacked tests)."""
    vocab_a = mixed_data.party("A").vocab_sizes
    vocab_b = mixed_data.party("B").vocab_sizes
    assert len(vocab_a) == len(vocab_b) == 2
    losses = {}
    for packing in (False, True):
        ctx = VFLContext(
            VFLConfig(key_bits=256, packing=packing, share_refresh=refresh, channel="memory"),
            seed=9,
        )
        if shape == "dlrm":
            model = FederatedDLRM(
                ctx, 4, 4, vocab_a, vocab_b, emb_dim=2, arm_dim=2, top_hidden=[2], seed=1
            )
            embed = model.emb_arm
        else:
            model = FederatedWDL(ctx, 4, 4, vocab_a, vocab_b, emb_dim=2, deep_hidden=[2], seed=1)
            embed = model.deep
        history = train_federated(
            model, mixed_data, TrainConfig(epochs=2, batch_size=4, lr=0.05, momentum=0.9, seed=3)
        )
        losses[packing] = history.losses
        assert (embed._b.enc_vt_own is not None) == packing  # V_B travelled in lanes
        assert embed._a.enc_vt_own is None  # B transposes V_A in the clear
    assert len(losses[True]) == STEPS and np.isfinite(losses[True]).all()
    assert losses[True] == losses[False]
