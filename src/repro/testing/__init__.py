"""Test-support machinery that ships with the package.

:mod:`repro.testing.faults` lives inside ``src`` (not ``tests/``)
because its hooks are compiled into production call sites — the
runner's worker entry, the pipeline chunk loop, the rewriters, the
result cache, the service's flights — and must also be importable inside
spawned worker processes, which only see the installed package.
"""

from repro.testing import faults

__all__ = ["faults"]
