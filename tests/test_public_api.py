"""Public-API sanity: every documented entry point imports and is exported.

Downstream users consume the package through the subpackage ``__init__``
re-exports; these tests pin that surface so refactors cannot silently
remove documented names.
"""

import importlib

import numpy as np
import pytest

SURFACES = {
    "repro.crypto": [
        "generate_paillier_keypair", "PaillierPublicKey", "PaillierPrivateKey",
        "EncryptedNumber", "EncodedNumber", "CryptoTensor",
        "additive_share", "reconstruct", "he2ss_split", "he2ss_receive",
        "ss2he_send", "ss2he_combine", "BeaverTriple", "ClientAidedDealer",
        "PaillierTripleGenerator", "beaver_matmul",
    ],
    "repro.tensor": [
        "Tensor", "no_grad", "CSRMatrix", "Module", "Linear", "Embedding",
        "Sequential", "SGD", "Adam", "bce_with_logits", "softmax_cross_entropy",
        "embedding", "sparse_linear", "mlp",
    ],
    "repro.comm": [
        "Channel", "Message", "MessageKind", "Party", "VFLConfig", "VFLContext",
        "FabricChannel", "FabricTopology", "run_federation",
    ],
    "repro.core": [
        "MatMulSource", "EmbedMatMulSource", "MultiPartyMatMulSource",
        "FederatedModule", "FederatedParameter", "FederatedSGD",
        "FederatedLR", "FederatedMLR", "FederatedMLP", "FederatedWDL",
        "FederatedDLRM", "TrainConfig", "train_federated", "evaluate_federated",
        "predict", "IdealSSTop", "train_lr_with_ss_top",
    ],
    "repro.baselines": [
        "PlainLR", "PlainMLR", "PlainMLP", "PlainWDL", "PlainDLRM",
        "SplitLinear", "SplitWDL", "SecureMLMatMul", "SecureMLCostModel",
        "outsource", "collocated_view", "party_b_view", "train_plain",
    ],
    "repro.attacks": [
        "activation_attack_score", "cosine_direction_attack",
        "attack_accuracy_over_batches", "pairwise_distance_correlation",
        "piece_vs_weight_stats",
    ],
    "repro.data": [
        "load_dataset", "CATALOG", "BatchLoader", "split_vertical",
        "hashed_psi", "asymmetric_psi", "union_alignment",
        "make_dense_classification", "make_sparse_classification",
        "make_categorical_classification", "make_mixed_classification",
        "make_image_like",
    ],
    "repro.utils": ["roc_auc", "accuracy", "format_table", "Timer", "new_rng"],
}


@pytest.mark.parametrize("module_name", sorted(SURFACES))
def test_exports_present(module_name):
    module = importlib.import_module(module_name)
    for name in SURFACES[module_name]:
        assert hasattr(module, name), f"{module_name}.{name} missing"
        assert name in module.__all__, f"{module_name}.{name} not in __all__"


def test_package_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_multiparty_lr_wrapper_trains():
    from repro.comm import VFLConfig, VFLContext
    from repro.core.multiparty import MultiPartyLR
    from repro.data import make_dense_classification, split_vertical

    full = make_dense_classification(96, 9, seed=66, flip=0.02, nonlinear=False)
    vd = split_vertical(full, party_names=("A1", "A2", "B"))
    ctx = VFLContext(VFLConfig(key_bits=128), seed=25, n_a_parties=2)
    model = MultiPartyLR(ctx, {"A1": 3, "A2": 3}, in_b=3)
    x = {n: vd.party(n).numeric_block() for n in ("A1", "A2", "B")}
    losses = [model.train_step(x, vd.y, lr=0.2) for _ in range(6)]
    assert losses[-1] < losses[0]
    logits = model.forward(x, train=False)
    assert logits.shape == (96, 1)


def test_run_configuration_surface_is_pinned():
    """One place per knob: the loop's on ``TrainConfig`` (exactly these
    twelve), the protocol's on a frozen ``VFLConfig``, nothing patchable."""
    import dataclasses

    from repro.comm import VFLConfig
    from repro.core import TrainConfig

    assert [f.name for f in dataclasses.fields(TrainConfig)] == [
        "epochs", "batch_size", "lr", "momentum", "seed", "parallel_workers",
        "blinding_pool_per_epoch", "checkpoint_path", "checkpoint_every",
        "crash_after_batches", "telemetry", "telemetry_path",
    ]
    for override in ("packing", "channel", "blinding_lambda", "pipeline"):
        with pytest.raises(TypeError):
            TrainConfig(**{override: True})
    cfg = VFLConfig(key_bits=128)
    for field in dataclasses.fields(VFLConfig):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field.name, getattr(cfg, field.name))
    packed = dataclasses.replace(cfg, packing=True)  # variants are new objects
    assert packed.packing and not cfg.packing and packed.key_bits == 128


def test_one_encrypted_tensor_surface_is_pinned():
    """One kind of encrypted tensor: residues under one row/shape surface.

    ``CryptoTensor`` holds residue/exponent arrays (no ``EncryptedNumber``
    grid, no ``.data``), both tensor classes define the surface the layers
    program against, and the layers neither look behind it nor ask which
    class they hold."""
    import ast
    import pathlib

    import repro
    from repro.crypto import CryptoTensor, PackedCryptoTensor, crypto_tensor

    src = pathlib.Path(repro.__file__).parent
    core = sorted((src / "core").glob("*.py"))
    crypto = [src / "crypto" / f"{m}.py" for m in
              ("kernels", "packing", "secret_sharing", "beaver", "modexp")]

    def nodes(path, kind):
        return [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, kind)]

    def idents(node):  # every identifier under a node; never comments/docstrings
        return {
            getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
        }

    for path in core + crypto:
        assert "EncryptedNumber" not in idents(ast.parse(path.read_text())), path.name
    for path in core:
        for call in nodes(path, ast.Call):
            if getattr(call.func, "id", None) == "isinstance":
                assert "PackedCryptoTensor" not in idents(call.args[1]), (
                    f"{path.name}:{call.lineno} asks which tensor class it holds"
                )
    behind = [src / "core" / f"{m}.py" for m in
              ("matmul_layer", "embed_matmul_layer", "multiparty", "federated_top")]
    for path in behind + [src / "crypto" / "packing.py", src / "crypto" / "secret_sharing.py"]:
        reads = [n.lineno for n in nodes(path, ast.Attribute) if n.attr == "data"]
        assert not reads, f"{path.name}:{reads} reaches through a tensor's .data"

    surface = (
        "public_key", "shape", "size", "n_ciphertexts", "T", "take_rows",
        "set_rows", "reshape", "add_plain", "scatter_add_rows", "decrypt",
        "obfuscate", "rmatmul", "__rmatmul__", "t_rmatmul", "__matmul__", "to_wire",
        "from_wire",
    )
    for cls in (CryptoTensor, PackedCryptoTensor):
        assert [n for n in surface if n not in vars(cls)] == [], cls.__name__
    assert CryptoTensor.__slots__ == ("public_key", "residues", "exponents")
    for gone in ("_flat_parts", "_wrap"):
        assert not hasattr(crypto_tensor, gone)

    # EncryptedNumber objects are built on scalar access and in the
    # reference bridge only; packing is imported to pack, not to dispatch.
    own = src / "crypto" / "crypto_tensor.py"
    for fn in nodes(own, ast.FunctionDef):
        builds = any(getattr(c.func, "id", None) == "EncryptedNumber" for c in ast.walk(fn)
                     if isinstance(c, ast.Call))
        imports = any("packing" in (getattr(i, "module", "") or "") for i in ast.walk(fn)
                      if isinstance(i, ast.ImportFrom))
        assert builds == (fn.name in ("__getitem__", "_reference_grid")), fn.name
        assert imports == (fn.name == "pack"), fn.name
    for path in src.rglob("*.py"):
        if path.name not in ("paillier.py", "crypto_tensor.py"):
            assert not [c.lineno for c in nodes(path, ast.Call)
                        if getattr(c.func, "id", None) == "EncryptedNumber"], path


def test_matmul_actor_programs_are_pinned():
    """The MatMul protocol is two actor programs: a spoke or hub method
    reaches the world through its own ``Party`` and the channel only — no
    context party lookup, no locality question, no other actor class — and
    ``is_local`` is asked in ``core/`` only where the actors are built and
    in the trainer's resume, never around protocol statements."""
    import ast
    import pathlib

    import repro

    core = pathlib.Path(repro.__file__).parent / "core"
    classes = {
        n.name: n for n in ast.parse((core / "matmul_layer.py").read_text()).body
        if isinstance(n, ast.ClassDef)
    }

    def idents(node):
        return {
            getattr(n, "id", None) or getattr(n, "attr", None)
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
        }

    world = {"A", "B", "parties", "a_parties", "a_names", "is_local", "local_parties"}
    for actor, others in (("_Actor", {"_Spoke", "_Hub"}), ("_Spoke", {"_Hub"}), ("_Hub", {"_Spoke"})):
        methods = [n for n in classes[actor].body if isinstance(n, ast.FunctionDef)]
        assert methods, actor
        for fn in methods:
            assert not idents(fn) & (world | others), f"{actor}.{fn.name}"

    asked = [
        (path.name, fn.name)
        for path in sorted(core.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text())) if isinstance(fn, ast.FunctionDef)
        for n in ast.walk(fn)
        if getattr(n, "attr", getattr(n, "id", None)) in ("is_local", "local_parties")
    ]
    assert asked == [("matmul_layer.py", "__init__"), ("trainer.py", "train_multiparty")]
