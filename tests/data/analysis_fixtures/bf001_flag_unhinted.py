# analysis-fixture: path=src/repro/core/fixture.py expect=BF001
"""Must-flag: a CRT constant of the private key reached through a name
that does not hint at a private key is still key material."""


def f(channel, key):
    channel.send("A", "B", "t", None, key.hp)
