"""Public-API sanity: every documented entry point imports and is exported.

Downstream users consume the package through the subpackage ``__init__``
re-exports; these tests pin that surface so refactors cannot silently
remove documented names.  ``SURFACES`` is the one API manifest: lint rule
BF008 (``repro.analysis.reachability``) accepts a public name with no
caller outside ``tests/`` only if it is listed here or says why with
``# repro: api-ok <reason>``.
"""

import importlib

import numpy as np
import pytest

SURFACES = {
    "repro.crypto": [
        "generate_paillier_keypair", "PaillierPublicKey", "PaillierPrivateKey",
        "CryptoTensor",
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
        "PlainInputs", "SplitRecord",
    ],
    "repro.attacks": [
        "activation_attack_score", "cosine_direction_attack",
        "attack_accuracy_over_batches", "pairwise_distance_correlation",
        "piece_vs_weight_stats", "PieceLeakageStats",
    ],
    "repro.data": [
        "CATALOG", "CatalogEntry", "BatchLoader", "split_vertical",
        "hashed_psi", "PSIResult",
        "make_dense_classification", "make_sparse_classification",
        "make_mixed_classification", "make_image_like",
    ],
    "repro.obs": [
        "Tracer", "Span", "use_tracer", "get_tracer", "span", "add", "counter_totals",
        "validate_trace", "JsonlSink", "read_jsonl_trace", "merge_traces",
        "chrome_timeline", "write_chrome_timeline", "critical_path", "fold_trace",
        "format_report",
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


def test_training_is_serial():
    """No process pool grows back: only the fabric, whose processes are
    protocol endpoints, imports ``multiprocessing``; no
    function takes a ``parallel`` argument and nothing reads one; and the
    leftover ``TrainConfig.parallel_workers`` refuses anything above 1."""
    import ast
    import pathlib

    import repro
    from repro.core import TrainConfig

    src = pathlib.Path(repro.__file__).parent
    importers, knobs = [], []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(name.split(".")[0] == "multiprocessing" for name in names):
                importers.append(path.relative_to(src).as_posix())
            if isinstance(node, ast.arg) and node.arg == "parallel":
                knobs.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Attribute) and node.attr == "parallel":
                knobs.append(f"{path.name}:{node.lineno}")
    assert sorted(set(importers)) == ["comm/fabric.py"]
    assert knobs == []
    assert not (src / "crypto" / "parallel.py").exists()
    for workers in (0, 1):
        assert TrainConfig(parallel_workers=workers).parallel_workers == workers
    for workers in (2, 8):
        with pytest.raises(ValueError, match="parallel_workers"):
            TrainConfig(parallel_workers=workers)


def test_obfuscation_has_one_path(tmp_path):
    """Every blinder is ``h^x``, drawn on demand: no λ knob on the config or
    the key constructors, no blinding pool, and the leftover
    ``TrainConfig.blinding_pool_per_epoch`` refuses anything above 0.  A
    checkpoint in the parent's version-1 layout (each key's blinding state
    ``(pool, rng, h, λ)``) is refused by version."""
    import dataclasses
    import inspect

    from repro.comm import VFLConfig, VFLContext, codec
    from repro.core import TrainConfig, train_federated
    from repro.core.checkpoint import CheckpointError, load_checkpoint, model_key_ring
    from repro.core.models import FederatedLR
    from repro.crypto import PaillierPublicKey, generate_paillier_keypair
    from repro.data import make_dense_classification, split_vertical

    assert "blinding_lambda" not in {f.name for f in dataclasses.fields(VFLConfig)}
    for fn in (PaillierPublicKey, generate_paillier_keypair):
        assert "blinding_lambda" not in inspect.signature(fn).parameters
    pk, _ = generate_paillier_keypair(128, seed=1)
    for name in ("prefill_blinding", "blinding_bitwork", "_blind_pool", "blinding_lambda"):
        assert not hasattr(pk, name), name
    assert TrainConfig(blinding_pool_per_epoch=0).blinding_pool_per_epoch == 0
    with pytest.raises(ValueError, match="blinding_pool_per_epoch"):
        TrainConfig(blinding_pool_per_epoch=1)

    vd = split_vertical(make_dense_classification(16, 4, seed=2))
    model = FederatedLR(VFLContext(VFLConfig(key_bits=128), seed=3), 2, 2)
    path = tmp_path / "now.ckpt"
    cfg = TrainConfig(epochs=1, batch_size=8, checkpoint_path=str(path), checkpoint_every=1)
    train_federated(model, vd, cfg, max_batches_per_epoch=1)
    ring = model_key_ring(model)
    frames = []
    for index, (_, body) in enumerate(codec.iter_frames(path.read_bytes())):
        name, section = codec.decode_payload(body, ring)
        if index == 0:
            section = 1
        elif name == "parties":
            section = [(p, rng, ([], *blind, 128)) for p, rng, blind in section]
        frames.append(codec.encode_payload_frame((name, section)))
    old = tmp_path / "parent.ckpt"
    old.write_bytes(b"".join(frames))
    with pytest.raises(CheckpointError, match="checkpoint version 1 not supported"):
        load_checkpoint(str(old), key_ring=ring)


def test_one_encrypted_tensor_surface_is_pinned():
    """One ciphertext representation: residues under one row/shape surface.

    ``CryptoTensor`` holds residue/exponent arrays (no per-ciphertext
    object, no ``.data``), both tensor classes define the surface the layers
    program against, and the layers neither look behind it nor ask which
    class they hold.  No module defines or names a scalar ciphertext or
    encoding class or a ``legacy_`` reference, and the codec has no scalar
    ciphertext frame: its retired type code 0x21 stays unassigned."""
    import ast
    import pathlib

    import repro
    from repro.comm import codec
    from repro.crypto import CryptoTensor, PackedCryptoTensor, PaillierPublicKey, crypto_tensor

    src = pathlib.Path(repro.__file__).parent
    core = sorted((src / "core").glob("*.py"))

    def nodes(path, kind):
        return [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, kind)]

    def idents(node):  # every identifier under a node; never comments/docstrings
        return {
            getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
        }

    scalar_classes = {"EncryptedNumber", "EncodedNumber"}
    for path in src.rglob("*.py"):
        names = {n for n in idents(ast.parse(path.read_text())) if n}
        assert not names & scalar_classes, path
        assert not [n for n in names if n.startswith("legacy_")], path
    assert not (src / "crypto" / "encoding.py").exists()
    codes = {v for k, v in vars(codec).items() if k.startswith("T_")}
    assert 0x21 not in codes | set(codec._TYPE_NAMES)
    with pytest.raises(codec.WireFormatError, match="unknown payload type code 0x21"):
        codec.decode_payload(b"\x21\x00")
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

    # Indexing one element out gives a 0-d tensor; packing is imported to
    # pack, not to dispatch.
    one = CryptoTensor.zeros(PaillierPublicKey(35), (2, 3))[1, 2]
    assert isinstance(one, CryptoTensor) and one.shape == ()
    own = src / "crypto" / "crypto_tensor.py"
    for fn in nodes(own, ast.FunctionDef):
        imports = any("packing" in (getattr(i, "module", "") or "") for i in ast.walk(fn)
                      if isinstance(i, ast.ImportFrom))
        assert imports == (fn.name == "pack"), fn.name


def test_matmul_actor_programs_are_pinned():
    """Every source layer is actor programs: a MatMul spoke or hub method,
    or an Embed-MatMul end method, reaches the world through its own
    ``Party`` and the channel only — no context party lookup, no locality
    question, no other actor class or end — and locality is asked in
    ``core/`` only where the actors are built and in the trainer, never
    around protocol statements."""
    import ast
    import pathlib

    import repro

    core = pathlib.Path(repro.__file__).parent / "core"
    classes = {
        n.name: n
        for module in ("matmul_layer.py", "embed_matmul_layer.py")
        for n in ast.parse((core / module).read_text()).body
        if isinstance(n, ast.ClassDef)
    }

    def idents(node):
        return {
            getattr(n, "id", None) or getattr(n, "attr", None)
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
        }

    world = {"A", "B", "parties", "a_parties", "a_names", "is_local", "local_parties"}
    for actor, others in (
        ("_Actor", {"_Spoke", "_Hub"}), ("_Spoke", {"_Hub"}), ("_Hub", {"_Spoke"}),
        ("_End", {"_a", "_b", "_ends", "_a_name"}),  # the driver's view of both ends
    ):
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
    assert asked == [
        ("embed_matmul_layer.py", "__init__"), ("matmul_layer.py", "__init__"),
        ("trainer.py", "train_federated"), ("trainer.py", "predict"),
    ]


def test_one_cross_process_execution_model():
    """Every cross-process run is the fabric: three channel tiers and the
    in-process fault wrapper are the only channels, the link module is the
    link and nothing else, and the trainer drives one endpoint's parties."""
    import ast
    import pathlib

    import repro
    from repro.comm import transport

    src = pathlib.Path(repro.__file__).parent
    channels = sorted(
        (path.relative_to(src).as_posix(), node.name)
        for path in src.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name.endswith("Channel")
    )
    assert channels == [
        ("comm/channel.py", "Channel"), ("comm/channel.py", "CodecChannel"),
        ("comm/channel.py", "SerializingChannel"), ("comm/fabric.py", "FabricChannel"),
        ("comm/faults.py", "FaultyChannel"),
    ]
    for gone in ("NetworkChannel", "run_two_party", "_endpoint_main", "_await_results"):
        assert not hasattr(transport, gone), gone
    assert [
        n.name for n in ast.parse((src / "comm" / "transport.py").read_text()).body
        if isinstance(n, ast.ClassDef)
    ] == [
        "TransportError", "RetryableTransportError", "FatalTransportError",
        "TransportTimeout", "TransportDisconnected", "LinkCorruptionError",
        "RetryPolicy", "LinkStats", "ReliableLink",
    ]


def test_one_link_one_way():
    """Every fabric frame is written by the program thread that produced
    it and read by its link's one receiver loop: no ``pipeline`` knob, a
    link with one send and one read method, and no pipelining metric."""
    import inspect

    import repro.obs
    from repro.comm import fabric
    from repro.comm.transport import ReliableLink

    for fn in (fabric.run_federation, fabric.FabricChannel, fabric._fabric_endpoint_main):
        assert "pipeline" not in inspect.signature(fn).parameters, fn
    assert not hasattr(fabric, "_PipelinedSender")
    public = [
        name for name, value in vars(ReliableLink).items()
        if callable(value) and not name.startswith("_")
    ]
    assert public == ["send_frame", "recv_frame"]
    assert not hasattr(repro.obs, "cross_role_overlap")
    assert not hasattr(repro.obs.collect, "cross_role_overlap")


def test_no_option_without_a_caller():
    """A trace is recorded one way (in memory, optionally streamed as
    JSONL), and no constructor keeps a parameter nothing passes: the
    tracer has no clock, the link no re-handshake hook or resend capacity,
    the fabric no start method, the reference ring no residue type."""
    import importlib.util
    import inspect

    import repro.obs
    from repro.comm.fabric import run_federation
    from repro.comm.transport import ReliableLink
    from repro.core import trainer
    from repro.crypto import math_utils
    from repro.crypto.bigint import PythonRing

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(repro.obs.Tracer) == ["sink"]
    assert params(ReliableLink) == ["sock", "retry", "reconnect"]
    assert params(run_federation) == [
        "program", "args", "roles", "mirror", "timeout", "record_transcript",
        "sock_timeout", "retry", "fault_plans", "resume_from",
    ]
    assert params(PythonRing) == ["modulus"]
    assert trainer.TELEMETRY == (None, "memory", "jsonl")
    for gone in ("ChromeTraceSink", "NullSink", "TeeSink", "make_sink",
                 "TELEMETRY_KINDS", "add_many"):
        assert not hasattr(repro.obs, gone), gone
        assert not hasattr(repro.obs.tracer, gone), gone
    assert [n for n in repro.obs.__all__ if n.endswith("Sink")] == ["JsonlSink"]
    assert importlib.util.find_spec("repro.obs.sinks") is None
    for gone in ("lcm", "crt_pair"):
        assert not hasattr(math_utils, gone), gone
