# analysis-fixture: path=src/repro/core/fixture.py expect=
"""Must-pass: public material flows freely, and referencing the private-key
class (isinstance refusal checks) is not a taint source."""
import pickle

from repro.comm import codec
from repro.crypto.paillier import PaillierPrivateKey


def send_public(channel, party):
    channel.send("a", "b", "t", None, party.public_key)


def refuse(payload):
    # Class reference only — you cannot extract (p, q) from the class.
    if isinstance(payload, PaillierPrivateKey):
        raise TypeError("refused")
    return codec.encode_payload(payload)


def pickle_weights(model):
    return pickle.dumps(model.weights)


def decrypt_locally(private_key, cts):
    # Holding and *using* the key locally is exactly what the key owner
    # does every batch; only sink flows are custody violations.
    return [private_key.raw_decrypt(c) for c in cts]
