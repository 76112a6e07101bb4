# analysis-fixture: path=src/repro/data/probe.py expect= manifest=load
"""Must-pass reachability: every public name and default has a caller.

A name may be declared in the manifest, imported, read as an attribute, or
spelled in a dotted string; a default may be set by keyword, by position,
through ``*args`` / ``**kw``, or by a classmethod's ``cls(...)``.
"""


def load(path):  # declared in the manifest
    return path


def shuffle(rows, seed=0):  # read as an attribute, seed set through **kw
    return rows


def split(rows, parts=2):  # imported; parts set through *args
    return rows


class Loader:  # named in a dotted string
    def __init__(self, rows, batch=8):
        self.rows, self.batch = rows, batch

    @classmethod
    def of(cls, rows):
        return cls(rows, batch=4)


def _helper(x, scale=1.0):  # private: neither the name nor the default is surface
    return x * scale


# analysis-caller: path=benchmarks/probe.py
from repro.data import probe
from repro.data.probe import split

probe.shuffle([], **{"seed": 1})
split([], *(3,))
TARGETS = ["repro.data.probe.Loader.of"]
