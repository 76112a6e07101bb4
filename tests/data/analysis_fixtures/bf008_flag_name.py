# analysis-fixture: path=src/repro/crypto/math_utils.py expect=BF008,BF008 manifest=generate_prime
"""Must-flag reachability: public names that only tests call.

``lcm`` is the helper this module once carried for tests alone; the
package ``__init__`` re-exporting it is not a caller.  ``crt_pair`` is
called, but only from inside its own module.
"""


def generate_prime(bits):  # declared in the manifest
    return bits


def invmod(a, n):  # an example imports it
    return crt_pair(a, n)


def powmod(a, e, n):  # a span table names it in a string
    return a


def crt_pair(a, n):  # own-module callers do not count
    return a, n


def lcm(a, b):  # only the package __init__ mentions it
    return a * b


def _gcd(a, b):  # private names are not surface
    return a


# analysis-caller: path=examples/probe.py
from repro.crypto.math_utils import invmod

invmod(3, 7)
# analysis-caller: path=benchmarks/e2e/probe.py
SPANS = {"repro.crypto.math_utils": {"powmod": "crypto.kernels.pow"}}
# analysis-caller: path=src/repro/crypto/__init__.py
from repro.crypto.math_utils import crt_pair, lcm

__all__ = ["crt_pair", "lcm"]
