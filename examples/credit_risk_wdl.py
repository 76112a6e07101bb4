"""Credit-risk scoring with a federated Wide & Deep model.

The paper's motivating Fintech scenario (§1): a lender (Party B) holds
repayment labels plus its own transaction features; a consumer platform
(Party A) holds behavioural features for the same customers.  The WDL
model (Figure 5) uses *two* federated source layers:

* a MatMul layer over the sparse numerical features (the wide part);
* an Embed-MatMul layer over the categorical fields (the deep part) —
  embedding tables are secretly shared, so neither party can even perform
  its own lookups in the clear.

Run:  python examples/credit_risk_wdl.py
"""

import numpy as np

from repro.baselines import (
    PlainWDL,
    collocated_view,
    party_b_view,
    train_plain,
)
from repro.comm import VFLConfig, VFLContext
from repro.core import FederatedWDL, TrainConfig, train_federated
from repro.data import make_mixed_classification, split_vertical


def main() -> None:
    # Sparse behaviour counters + categorical profile fields (device type,
    # region, occupation band, ...), split across the two companies.
    full = make_mixed_classification(
        n=320, sparse_dim=120, nnz_per_row=10, n_fields=6, vocab_size=12, seed=11
    )
    train, test = full.subset(np.arange(240)), full.subset(np.arange(240, 320))
    train_vd, test_vd = split_vertical(train), split_vertical(test)

    ctx = VFLContext(VFLConfig(key_bits=128, share_refresh="delta"), seed=1)
    model = FederatedWDL(
        ctx,
        in_a=60,
        in_b=60,
        vocab_a=train_vd.party("A").vocab_sizes,
        vocab_b=train_vd.party("B").vocab_sizes,
        emb_dim=4,
        deep_hidden=[8],
    )
    config = TrainConfig(epochs=2, batch_size=32, lr=0.1, momentum=0.9)
    history = train_federated(model, train_vd, config, test_data=test_vd)
    print(f"BlindFL WDL       test AUC: {history.final_metric:.3f}")
    print(f"  loss {history.losses[0]:.3f} -> {history.losses[-1]:.3f} over "
          f"{len(history.losses)} iterations")

    lender_only = train_plain(
        PlainWDL(60, train_vd.party("B").vocab_sizes, emb_dim=4, deep_hidden=[8]),
        party_b_view(train_vd),
        config,
        party_b_view(test_vd),
    )
    collocated = train_plain(
        PlainWDL(120, list(full.vocab_sizes), emb_dim=4, deep_hidden=[8]),
        collocated_view(train),
        config,
        collocated_view(test),
    )
    print(f"Lender-only WDL   test AUC: {lender_only.final_metric:.3f}")
    print(f"Collocated WDL    test AUC: {collocated.final_metric:.3f}")
    print(
        f"\nThe platform's features lift AUC by "
        f"{history.final_metric - lender_only.final_metric:+.3f} without either "
        "company revealing a single feature value, embedding, or weight."
    )


if __name__ == "__main__":
    main()
