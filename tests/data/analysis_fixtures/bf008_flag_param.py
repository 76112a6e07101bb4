# analysis-fixture: path=src/repro/comm/probe.py expect=BF008,BF008 manifest=
"""Must-flag reachability: defaulted parameters no caller sets.

``connect``'s ``port`` is set positionally and ``retries`` by keyword, but
nothing sets ``timeout``; ``Link``'s ``window`` is set positionally,
``verify`` by a subclass's ``super().__init__``, but nothing sets
``strict``.
"""


def connect(host, port=80, timeout=5.0, *, retries=3):
    return host, port, timeout, retries


class Link:
    def __init__(self, sock, window=8, strict=False, verify=False):
        self.sock, self.window, self.strict, self.verify = sock, window, strict, verify


# analysis-caller: path=examples/dial.py
from repro.comm.probe import Link, connect

connect("h", 8080)
connect("h", retries=1)
Link(None, 16)


class TlsLink(Link):
    def __init__(self, sock):
        super().__init__(sock, verify=True)
