"""Setuptools shim.

The runtime environment has no network access and no ``wheel`` package, so
pip's PEP-517 editable path (which builds a wheel) is unavailable.  This
shim lets ``pip install -e . --no-build-isolation --no-use-pep517`` fall
back to the classic ``setup.py develop`` flow, and is the single source of
packaging metadata (there is deliberately no ``pyproject.toml``).

The fast big-int path needs no extra: :mod:`repro.crypto.bigint` drives the
OpenSSL ``libcrypto`` that CPython itself links, through stdlib ``ctypes``.
The ``[fast]`` extra pulls in gmpy2, which only changes the residue type of
the reference ring (the sizes and operations libcrypto does not take); the
environment this repo is benchmarked in cannot install it.

The ``[lint]`` extra is intentionally empty: the ``blindfl-lint`` console
script (:mod:`repro.analysis`) is pure stdlib ``ast``/``tokenize``, so
installing the extra just documents intent — there is nothing to pull in.
"""

from setuptools import find_packages, setup

setup(
    name="blindfl-repro",
    packages=find_packages("src"),
    package_dir={"": "src"},
    entry_points={
        "console_scripts": [
            "blindfl-lint = repro.analysis.__main__:main",
        ],
    },
    extras_require={
        "fast": ["gmpy2>=2.1"],
        "lint": [],
    },
)
