# analysis-fixture: path=src/repro/crypto/bigint.py expect=
"""Must-pass seam: the one module that may bind ctypes, 3-argument pow
only inside the reference ring; 2-argument pow is not modular anywhere."""

import ctypes
from ctypes import c_void_p


class PythonRing:
    def __init__(self, modulus):
        self._m = modulus

    def pow_many(self, bases, e):
        return [pow(b, e, self._m) for b in bases]

    def inv(self, a):
        return pow(a, -1, self._m)


class LibcryptoRing(PythonRing):
    def window(self, bits):
        return pow(2, bits)  # plain integer power


_POINTER = c_void_p
_DLL = ctypes.CDLL
