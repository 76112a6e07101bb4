# analysis-fixture: path=src/repro/comm/faults.py expect= manifest=
"""Must-pass reachability: a declared harness name and a declared default
carry their reasons."""


# repro: api-ok the in-process fault harness for detection tests
class FaultyHarness:
    def __init__(self, plan):
        self.plan = plan


def inject(frame, salt=0):  # repro: api-ok a seeded corruption for replayable faults
    return frame


# analysis-caller: path=examples/faults_demo.py
from repro.comm.faults import inject

inject(b"")
