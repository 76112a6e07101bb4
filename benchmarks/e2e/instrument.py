"""Bench-side span shims around the public callables of ``repro.*``.

The benchmark measures the program from outside: nothing under ``src/``
knows it is being timed.  :func:`instrumented` wraps every callable named
in :data:`SPANS` in a shim that records one span per call — id, parent
span, thread, layer, start, end — and rebinds *every* loaded ``repro.*``
reference to it: the defining module's attribute, ``from x import f``
aliases in other modules, and class attributes (including aliases such as
``__radd__ = __add__``).  On exit every reference is put back, including
aliases bound by modules first imported while the shims were live.

Spans nest on a per-thread stack and stay in memory; :func:`fold` turns
them into per-layer numbers afterwards.  A layer's time is *self* time:
a span's duration minus the duration of its direct children, so the
layers of one thread add up to the wall clock they cover.  A span may
also feed an *inclusive* row (its whole duration), used for the
forward / backward / update split of the source layers.

The table is explicit rather than "everything public": which callable
belongs to which layer is the benchmark's definition of a layer, and a
target that no longer resolves fails the install loudly instead of
silently dropping a row.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import pkgutil
import sys
import threading
from time import perf_counter
from typing import Iterator

# target -> layer, or (layer, inclusive row).  A leading "*" marks a
# generator function: each ``next()`` is one span.  Pow-level helpers
# (``raw_mul_many``, ``crt_decrypt_many``, ``blinding_factors``) are left
# unwrapped on purpose, so a kernel's row includes its exponentiations.
_K = "crypto.kernels."
_P = "crypto.packing."
_T = "crypto.crypto_tensor.self"


def _source_layer(cls: str, row: str) -> dict[str, tuple[str, str]]:
    parts = {"forward": "forward", "backward": "backward", "apply_updates": "update"}
    return {
        f"{cls}.{method}": ("core.self", f"core.{row}.{part}")
        for method, part in parts.items()
    }


SPANS: dict[str, dict[str, str | tuple[str, str]]] = {
    "repro.data.loader": {
        "*BatchLoader.batches": "data.loader.batch",
        "BatchLoader.draw_order": "data.loader.batch",
    },
    "repro.core.models": {
        **{
            f"Federated{m}.forward": "tensor.top"
            for m in ("LR", "MLR", "MLP", "WDL", "DLRM")
        },
        **{
            f"Federated{m}.__init__": ("core.self", "core.init")
            for m in ("LR", "MLR", "MLP", "WDL", "DLRM")
        },
        "_SourceBacked.backward_sources": "core.self",
    },
    "repro.tensor.losses": {
        "bce_with_logits": "tensor.top",
        "softmax_cross_entropy": "tensor.top",
    },
    "repro.tensor.tensor": {"Tensor.backward": "tensor.top"},
    "repro.tensor.optim": {"SGD.step": "tensor.top", "SGD.zero_grad": "tensor.top"},
    "repro.core.optimizer": {
        "FederatedSGD.step": "core.self",
        "FederatedSGD.zero_grad": "core.self",
    },
    "repro.core.matmul_layer": _source_layer("MatMulSource", "matmul"),
    "repro.core.embed_matmul_layer": _source_layer("EmbedMatMulSource", "embed"),
    "repro.core.multiparty": {
        **_source_layer("MultiPartyMatMulSource", "multiparty"),
        "MultiPartyLR.__init__": ("core.self", "core.init"),
        "MultiPartyLR.forward": "core.self",
        "MultiPartyLR.train_step": "core.self",
    },
    "repro.crypto.paillier": {
        "generate_paillier_keypair": "crypto.paillier.keygen",
    },
    "repro.crypto.kernels": {
        "matmul_plain_cipher_flat": _K + "matmul",
        "matmul_cipher_plain_flat": _K + "matmul",
        "sparse_matmul_cipher_flat": _K + "matmul",
        "sparse_t_matmul_flat": _K + "matmul",
        "encode_flat": _K + "encrypt",
        "encrypt_flat": _K + "encrypt",
        "decrypt_flat": _K + "decrypt",
        "align_flat": _K + "elementwise",
        "add_cipher_flat": _K + "elementwise",
        "sub_cipher_flat": _K + "elementwise",
        "add_plain_flat": _K + "elementwise",
        "mul_plain_flat": _K + "elementwise",
        "scatter_add_flat": _K + "elementwise",
        "obfuscate_flat": _K + "elementwise",
    },
    "repro.crypto.crypto_tensor": {
        "CryptoTensor.encrypt": _T,
        "CryptoTensor.decrypt": _T,
        "CryptoTensor.take_rows": _T,
        "CryptoTensor.__add__": _T,
        "CryptoTensor.__sub__": _T,
        "CryptoTensor.__rsub__": _T,
        "CryptoTensor.__neg__": _T,
        "CryptoTensor.__mul__": _T,
        "CryptoTensor.__matmul__": _T,
        "CryptoTensor.__rmatmul__": _T,
        "CryptoTensor.scatter_add_rows": _T,
        "CryptoTensor.obfuscate": _T,
        "matmul_plain_cipher": _T,
        "matmul_cipher_plain": _T,
        "sparse_matmul_cipher": _T,
        "sparse_t_matmul_cipher": _T,
    },
    "repro.crypto.packing": {
        "pack_encode_flat": _P + "encrypt",
        "pack_encrypt_flat": _P + "encrypt",
        "PackedCryptoTensor.encrypt": _P + "encrypt",
        "pack_decrypt_flat": _P + "decrypt",
        "PackedCryptoTensor.decrypt": _P + "decrypt",
        "PackedCryptoTensor.unpack": _P + "decrypt",
        "pack_matmul_plain_cipher_flat": _P + "matmul",
        "pack_sparse_matmul_cipher_flat": _P + "matmul",
        "pack_matmul_plain_cipher": _P + "matmul",
        "pack_sparse_matmul_cipher": _P + "matmul",
        "PackedCryptoTensor.__matmul__": _P + "matmul",
        "PackedCryptoTensor.__rmatmul__": _P + "matmul",
        "pack_rows_flat": _P + "rows",
        "pack_scatter_add_flat": _P + "rows",
        "PackedCryptoTensor.pack": _P + "rows",
        "PackedCryptoTensor.take_rows": _P + "rows",
        "PackedCryptoTensor.set_rows": _P + "rows",
        "PackedCryptoTensor.scatter_add_rows": _P + "rows",
        "PackedCryptoTensor.reshape": _P + "rows",
        "pack_add_flat": _P + "elementwise",
        "pack_neg_flat": _P + "elementwise",
        "pack_scalar_mul_flat": _P + "elementwise",
        "pack_shift_flat": _P + "elementwise",
        "PackedCryptoTensor.add_plain": _P + "elementwise",
        "PackedCryptoTensor.__add__": _P + "elementwise",
        "PackedCryptoTensor.__sub__": _P + "elementwise",
        "PackedCryptoTensor.__neg__": _P + "elementwise",
        "PackedCryptoTensor.__mul__": _P + "elementwise",
        "PackedCryptoTensor.obfuscate": _P + "elementwise",
    },
    "repro.crypto.secret_sharing": {
        name: "crypto.secret_sharing.self"
        for name in (
            "additive_share", "he2ss_split", "he2ss_receive", "ss2he_send",
            "ss2he_combine",
        )
    },
    "repro.comm.codec": {
        "encode_message": "comm.codec.encode",
        "encode_payload": "comm.codec.encode",
        "decode_message": "comm.codec.decode",
        "decode_payload": "comm.codec.decode",
    },
    "repro.comm.channel": {
        "payload_nbytes": "comm.channel.self",
        "Channel.send": "comm.channel.self",
        "Channel.recv": "comm.channel.self",
    },
    "repro.comm.transport": {"ReliableLink.send_frame": "comm.transport.send"},
    "repro.comm.fabric": {"FabricChannel.recv": "comm.fabric.recv_wait"},
}

# Every layer a span can be charged to, in report order.
LAYERS = tuple(
    dict.fromkeys(
        (spec if isinstance(spec, str) else spec[0])
        for targets in SPANS.values()
        for spec in targets.values()
    )
)

_MARK = "__bench_shim__"


class Recorder:
    """In-memory span store: ``(id, parent, thread, layer, inclusive, t0, t1)``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._tls = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[int]:
        try:
            return self._tls.stack
        except AttributeError:
            stack = self._tls.stack = []
            return stack

    def shim(self, fn, layer: str, inclusive: str | None):
        """Wrap ``fn`` so that each call is one span."""
        record, ids, stack_of = self.spans.append, self._ids, self._stack
        ident = threading.get_ident

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                record((sid, parent, ident(), layer, inclusive, t0, t1))

        setattr(span, _MARK, fn)
        return span

    def shim_generator(self, fn, layer: str, inclusive: str | None):
        """Wrap generator function ``fn`` so that each ``next()`` is one span."""
        advance = self.shim(next, layer, inclusive)

        @functools.wraps(fn)
        def span_each(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = advance(it)
                except StopIteration:
                    return
                yield item

        setattr(span_each, _MARK, fn)
        return span_each


def _repro_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def _namespaces() -> list:
    """Every loaded ``repro`` module plus the classes each one defines."""
    out = []
    for mod in _repro_modules():
        out.append(mod)
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod.__name__:
                out.append(value)
    return out


def load_all() -> None:
    """Import every ``repro`` submodule, so no alias is bound mid-run."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def leaked_shims() -> list[str]:
    """``namespace.attr`` of every ``repro`` reference still bound to a shim."""
    leaks = []
    for ns in _namespaces():
        for name, value in list(vars(ns).items()):
            inner = getattr(value, "__func__", value)
            if hasattr(inner, _MARK):
                leaks.append(f"{getattr(ns, '__qualname__', ns.__name__)}.{name}")
    return leaks


@contextlib.contextmanager
def instrumented(recorder: Recorder) -> Iterator[Recorder]:
    """Install the :data:`SPANS` shims for the block; restore on exit."""
    load_all()
    # One pass over every namespace: object identity -> where it is bound.
    bound: dict[int, list[tuple[object, str]]] = {}
    for ns in _namespaces():
        for name, value in list(vars(ns).items()):
            bound.setdefault(id(value), []).append((ns, name))
    patches: list[tuple[object, str, object]] = []
    try:
        for modname, targets in SPANS.items():
            mod = sys.modules[modname]
            for target, spec in targets.items():
                layer, inclusive = (spec, None) if isinstance(spec, str) else spec
                generator = target.startswith("*")
                owner = mod
                *path, attr = target.lstrip("*").split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner).get(attr)
                if raw is None:
                    raise LookupError(f"span target {modname}.{target} not found")
                wrap = recorder.shim_generator if generator else recorder.shim
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(wrap(raw.__func__, layer, inclusive))
                else:
                    new = wrap(raw, layer, inclusive)
                for ns, name in bound[id(raw)]:
                    setattr(ns, name, new)
                    patches.append((ns, name, raw))
        yield recorder
    finally:
        for ns, name, raw in reversed(patches):
            setattr(ns, name, raw)
        # Modules first imported under the shims copied them as aliases.
        for mod in _repro_modules():
            for name, value in list(vars(mod).items()):
                original = getattr(value, _MARK, None)
                if original is not None:
                    setattr(mod, name, original)


def fold(
    spans: list[tuple], t_lo: float, t_hi: float, thread: int
) -> dict[str, dict[str, float]]:
    """Per-layer totals of the spans that started in ``[t_lo, t_hi)``.

    Returns ``{"self": ..., "off_thread": ..., "inclusive": ...}``: self time
    per layer on ``thread`` (the protocol thread, whose layers sum to its
    wall clock), self time per layer on every other thread (fabric receiver
    threads, overlapping the protocol thread's waits), and inclusive time
    per inclusive row.
    """
    child_time: dict[int, float] = {}
    for _sid, parent, _tid, _layer, _inc, t0, t1 in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    out = {"self": {}, "off_thread": {}, "inclusive": {}}
    for sid, _parent, tid, layer, inclusive, t0, t1 in spans:
        if not t_lo <= t0 < t_hi:
            continue
        own = (t1 - t0) - child_time.get(sid, 0.0)
        side = out["self"] if tid == thread else out["off_thread"]
        side[layer] = side.get(layer, 0.0) + own
        if inclusive is not None:
            out["inclusive"][inclusive] = (
                out["inclusive"].get(inclusive, 0.0) + (t1 - t0)
            )
    return out
