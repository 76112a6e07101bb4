"""§8 integration: training without revealing intersection membership.

Liu et al. [42] (asymmetric PSI): only Party B learns which rows are in
the intersection; Party A processes a superset.  The paper notes BlindFL
accommodates this "by tweaking Line 9 of Figure 6": Party B zeroes the
derivatives of non-member rows, so they contribute nothing to any
gradient.  These tests verify that claim end-to-end on the real protocol.
"""

import numpy as np

from repro.comm.party import VFLConfig, VFLContext
from repro.core.matmul_layer import MatMulSource

KEY_BITS = 128


def test_zeroed_derivatives_make_nonmembers_inert(rng):
    """Superset batch + masked grad == intersection-only batch, exactly."""
    ctx1 = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=30)
    ctx2 = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=30)  # same init
    layer_super = MatMulSource(ctx1, 5, 4, 1, name="asym")
    layer_inter = MatMulSource(ctx2, 5, 4, 1, name="asym")
    w0_super = layer_super.reveal_weights()
    w0_inter = layer_inter.reveal_weights()
    np.testing.assert_allclose(w0_super["W_A"], w0_inter["W_A"])  # same seed

    x_a = rng.normal(size=(8, 5))
    x_b = rng.normal(size=(8, 4))
    member = np.array([1, 0, 1, 1, 0, 1, 0, 1], dtype=bool)
    grad_full = rng.normal(size=(8, 1)) * 0.1

    # Superset run: B zeroes non-member derivatives (the §8 tweak).
    layer_super.forward(x_a, x_b)
    masked = grad_full * member[:, None]
    layer_super.backward(masked)
    layer_super.apply_updates(lr=0.1, momentum=0.0)

    # Reference run: only the intersection rows exist.
    layer_inter.forward(x_a[member], x_b[member])
    layer_inter.backward(grad_full[member])
    layer_inter.apply_updates(lr=0.1, momentum=0.0)

    w_super = layer_super.reveal_weights()
    w_inter = layer_inter.reveal_weights()
    np.testing.assert_allclose(w_super["W_A"], w_inter["W_A"], atol=1e-5)
    np.testing.assert_allclose(w_super["W_B"], w_inter["W_B"], atol=1e-6)


def test_all_nonmember_batch_is_a_noop(rng):
    """A batch entirely outside the intersection must not move the model."""
    ctx = VFLContext(VFLConfig(key_bits=KEY_BITS), seed=31)
    layer = MatMulSource(ctx, 4, 4, 1, name="noop")
    w0 = layer.reveal_weights()
    layer.forward(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
    layer.backward(np.zeros((4, 1)))
    layer.apply_updates(lr=0.1, momentum=0.0)
    w1 = layer.reveal_weights()
    np.testing.assert_allclose(w1["W_A"], w0["W_A"], atol=1e-6)
    np.testing.assert_allclose(w1["W_B"], w0["W_B"], atol=1e-9)
