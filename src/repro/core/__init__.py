"""BlindFL core: federated source layers, models, optimizer, trainer."""

from repro.core.embed_matmul_layer import EmbedMatMulSource
from repro.core.federated import FederatedModule, FederatedParameter, SourceLayer
from repro.core.matmul_layer import MatMulSource
from repro.core.multiparty import MultiPartyMatMulSource
from repro.core.models import (
    FederatedDLRM,
    FederatedLR,
    FederatedMLP,
    FederatedMLR,
    FederatedSSLR,
    FederatedWDL,
)
from repro.core.optimizer import FederatedSGD
from repro.core.trainer import (
    History,
    TrainConfig,
    batch_of,
    evaluate_federated,
    predict,
    train_federated,
)

__all__ = [
    "EmbedMatMulSource",
    "MatMulSource",
    "MultiPartyMatMulSource",
    "FederatedModule",
    "FederatedParameter",
    "SourceLayer",
    "FederatedLR",
    "FederatedMLR",
    "FederatedMLP",
    "FederatedSSLR",
    "FederatedWDL",
    "FederatedDLRM",
    "FederatedSGD",
    "History",
    "TrainConfig",
    "batch_of",
    "evaluate_federated",
    "predict",
    "train_federated",
]
