"""Stand-in for the deleted numpy metadata-cache engine.

:class:`~repro.mem.cache.SetAssociativeCache` is the one metadata
cache. This class remains only because the repository benchmark's
traced run (``perfbench/run.py --trace 1``) wraps its ``simulate`` and
``access`` to count MEE speculation attempts and fallbacks
(``protection.mee.spec_attempts_per_chunk`` and ``fallback_chunks``).
No code calls either method, so both metrics read 0; the class goes
with those two metrics.
"""


class FastSetAssociativeCache:
    def simulate(self, *args, **kwargs):
        raise NotImplementedError("the numpy metadata-cache engine is gone")

    def access(self, *args, **kwargs):
        raise NotImplementedError("the numpy metadata-cache engine is gone")
