# analysis-fixture: path=src/repro/comm/transport.py expect=BF007
"""Must-flag seam: ctypes is off limits in every package, not just crypto/
(3-argument pow outside crypto/ is nobody's residue arithmetic, so the
checksum below stays legal)."""

from ctypes import CDLL


def checksum(frame, modulus):
    return pow(len(frame), 3, modulus)
