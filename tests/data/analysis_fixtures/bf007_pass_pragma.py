# analysis-fixture: path=src/repro/crypto/math_utils.py expect=
"""Must-pass seam: a justified exception carries its reason."""


def is_probable_prime_witness(a, d, n):
    # repro: seam-ok one-off witness on a candidate that has no ring yet
    return pow(a, d, n) in (1, n - 1)
