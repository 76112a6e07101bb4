# analysis-fixture: path=src/repro/crypto/parallel.py expect=BF001
"""Must-flag: a worker pool whose ``initargs`` carry key material, even a
private pool of the key owner's own children at the site that was once
allowlisted — the custody rule has no exception."""
import multiprocessing


def _init_private_worker(p, q, hp, hq, p_inverse):
    pass


class ParallelContext:
    def _ensure_private_pool(self, private_key):
        ctx = multiprocessing.get_context("fork")
        return ctx.Pool(
            2,
            initializer=_init_private_worker,
            initargs=(
                private_key.p, private_key.q, private_key.hp, private_key.hq,
                private_key.p_inverse,
            ),
        )
