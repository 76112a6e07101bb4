"""Two-process BlindFL: guest and host in separate PIDs over real sockets.

The paper's deployment runs each party on its own server; this example is
that topology in miniature.  A federated LR trains with Party A living in
one OS process and Party B in another, connected only by a loopback TCP
link carrying versioned wire frames (see ``repro.comm.codec`` for the
frame layout).  Nothing crosses the trust boundary except bytes.

Each endpoint runs only its own party's side of the protocol: the guest
holds A's features, weight pieces and private key, the host B's, the
labels and the top model.  ``train_federated`` is the same call as in the
single-process quickstart; on the guest it returns ``None`` losses, because
the loss only exists at B.  The host's trajectory is bit-identical to the
same seeded run in one process, which this example checks.

Run:  python examples/two_process_sockets.py
"""

import numpy as np

from repro.comm import VFLConfig, VFLContext, run_federation
from repro.comm.channel import make_channel
from repro.core import FederatedLR, TrainConfig, train_federated
from repro.data import make_dense_classification, split_vertical


def train_on(channel):
    """One endpoint's program: build the federation on ``channel`` and train.

    Everything is derived from fixed seeds, so both endpoints draw the
    same public keys and batch order; the context hosts the channel's
    parties only.
    """
    full = make_dense_classification(n=240, dim=24, seed=7, flip=0.05)
    train_vd = split_vertical(full.subset(np.arange(180)))
    test_vd = split_vertical(full.subset(np.arange(180, 240)))
    ctx = VFLContext(
        VFLConfig(key_bits=256, packing=True), seed=0, channel=channel
    )
    model = FederatedLR(ctx, in_a=12, in_b=12)
    config = TrainConfig(epochs=2, batch_size=32, lr=0.1, momentum=0.9)
    history = train_federated(model, train_vd, config, test_data=test_vd)
    return {
        "auc": history.final_metric,
        "losses": history.losses,
        "wire_bytes": channel.total_bytes(),
        "messages": len(channel.transcript),
    }


def main() -> None:
    print("spawning guest (Party A) and host (Party B) processes ...")
    results = run_federation(
        train_on, roles={"guest": ("A",), "host": ("B",)}, timeout=600.0
    )
    guest, host = results["results"]["guest"], results["results"]["host"]
    print(f"guest PID view: {guest['messages']} messages, "
          f"{guest['wire_bytes'] / 2**20:.1f} MiB on the wire, losses "
          f"{set(guest['losses'])} (the loss lives at B)")
    print(f"host  PID view: AUC {host['auc']:.3f}, "
          f"{host['messages']} messages, {host['wire_bytes'] / 2**20:.1f} MiB on the wire")
    local = train_on(make_channel("serializing"))
    assert host["losses"] == local["losses"], "the split run diverged!"
    print("loss trajectory bit-identical to the single-process run — each "
          "process ran only its own party")


if __name__ == "__main__":
    main()
