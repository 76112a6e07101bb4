"""Cryptographic substrate: Paillier HE, encrypted tensors (fixed-point
encoded, one raw residue per element or packed lanes), additive secret
sharing, and Beaver triples.

These are the privacy-preserving building blocks of §2.2 of the paper; the
federated source layers in :mod:`repro.core` are written entirely in terms
of this package.
"""

from repro.crypto.beaver import (
    BeaverTriple,
    ClientAidedDealer,
    PaillierTripleGenerator,
    beaver_matmul,
    decode_ring,
    encode_ring,
    share_ring,
)
from repro.crypto.crypto_tensor import (
    PLAIN_EXPONENT,
    TENSOR_EXPONENT,
    CryptoTensor,
    matmul_cipher_plain,
    matmul_plain_cipher,
    sparse_matmul_cipher,
    sparse_t_matmul_cipher,
)
from repro.crypto.packing import (
    PackedCryptoTensor,
    SlotLayout,
    pack_matmul_plain_cipher,
    pack_sparse_matmul_cipher,
    protocol_layout,
)
from repro.crypto.paillier import (
    BLINDING_LAMBDA,
    DEFAULT_KEY_BITS,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_paillier_keypair,
)
from repro.crypto.secret_sharing import (
    additive_share,
    he2ss_receive,
    he2ss_split,
    reconstruct,
    ss2he_combine,
    ss2he_send,
)

__all__ = [
    "BeaverTriple",
    "ClientAidedDealer",
    "PaillierTripleGenerator",
    "beaver_matmul",
    "decode_ring",
    "encode_ring",
    "share_ring",
    "CryptoTensor",
    "PackedCryptoTensor",
    "SlotLayout",
    "protocol_layout",
    "pack_matmul_plain_cipher",
    "pack_sparse_matmul_cipher",
    "TENSOR_EXPONENT",
    "PLAIN_EXPONENT",
    "matmul_plain_cipher",
    "matmul_cipher_plain",
    "sparse_matmul_cipher",
    "sparse_t_matmul_cipher",
    "PaillierPublicKey",
    "PaillierPrivateKey",
    "generate_paillier_keypair",
    "DEFAULT_KEY_BITS",
    "BLINDING_LAMBDA",
    "additive_share",
    "reconstruct",
    "he2ss_split",
    "he2ss_receive",
    "ss2he_send",
    "ss2he_combine",
]
