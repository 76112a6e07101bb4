"""Baselines the paper compares against: non-federated training, split
learning (insecure), and SecureML (MPC data outsourcing)."""

from repro.baselines.nonfed import (
    PlainDLRM,
    PlainInputs,
    PlainLR,
    PlainMLP,
    PlainMLR,
    PlainWDL,
    collocated_view,
    party_b_view,
    train_plain,
)
from repro.baselines.secureml import SecureMLMatMul, outsource
from repro.baselines.split_learning import (
    SplitLinear,
    SplitRecord,
    SplitWDL,
    train_split_linear,
    train_split_wdl,
)

__all__ = [
    "PlainDLRM",
    "PlainInputs",
    "PlainLR",
    "PlainMLP",
    "PlainMLR",
    "PlainWDL",
    "collocated_view",
    "party_b_view",
    "train_plain",
    "SecureMLMatMul",
    "outsource",
    "SplitLinear",
    "SplitRecord",
    "SplitWDL",
    "train_split_linear",
    "train_split_wdl",
]
