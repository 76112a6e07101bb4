# analysis-fixture: path=src/repro/core/fixture.py expect=BF001,BF001,BF001,BF001
"""Must-flag: four distinct custody-taint flows into four sink families."""
import multiprocessing
import pickle

from repro.comm import codec
from repro.crypto.paillier import PaillierPrivateKey


def leak_over_channel(channel, party):
    # attribute read of .private_key taints the expression fed to send
    channel.send("a", "b", "t", None, party.private_key)


def leak_into_pickle(public, p, q):
    key = PaillierPrivateKey(public, p, q)  # ctor result tainted via alias
    return pickle.dumps(key)


def leak_into_codec(private_key):
    # parameter named private_key is a taint seed
    return codec.encode_payload_frame((private_key.p, private_key.q))


def leak_into_pool(private_key, init):
    return multiprocessing.Pool(2, initializer=init, initargs=(private_key,))
