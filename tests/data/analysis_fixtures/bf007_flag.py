# analysis-fixture: path=src/repro/crypto/kernels.py expect=BF007,BF007,BF007,BF007
"""Must-flag seam: a kernel reaching around the big-int ring."""

import ctypes  # a second foreign-function binding
from ctypes.util import find_library  # ... however it is spelled


def raw_mul(ciphertext, mantissa, nsquare):
    return pow(ciphertext, mantissa, nsquare)  # a residue no ring ever sees


def invert(value, modulus):
    return pow(value, -1, mod=modulus)  # keyword spelling of the same thing
