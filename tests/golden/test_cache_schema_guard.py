"""The golden makespans may only change together with ``CACHE_SCHEMA_VERSION``.

Cache keys hash a cell's configuration, not the simulator's behaviour,
so a change that moves makespans without touching any configuration
field would keep serving the old results from every long-lived store
and server memo.  ``expected_makespans.json`` pins those makespans; this
test pins its digest to the schema version, so regenerating the goldens
fails here until the version is bumped.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.experiments.spec import CACHE_SCHEMA_VERSION

MAKESPANS = Path(__file__).with_name("expected_makespans.json")

#: ``(CACHE_SCHEMA_VERSION, sha256 of expected_makespans.json)``, updated
#: together whenever the golden makespans are regenerated.
PINNED = (2, "5bca8d4c4b70422c9da48ca480d9270067c0ed3a77c663ac1b3a5d339554cbce")


def makespans_digest() -> str:
    return hashlib.sha256(MAKESPANS.read_bytes().replace(b"\r\n", b"\n")).hexdigest()


def test_golden_makespans_change_only_with_a_cache_schema_bump():
    version, digest = PINNED
    current = (CACHE_SCHEMA_VERSION, makespans_digest())
    if current == PINNED:
        return
    if current[1] != digest and CACHE_SCHEMA_VERSION == version:
        message = (
            f"tests/golden/expected_makespans.json changed but CACHE_SCHEMA_VERSION "
            f"is still {version}: cached results of the old behaviour would keep "
            f"being served. Bump CACHE_SCHEMA_VERSION in "
            f"src/repro/experiments/spec.py to {version + 1}, then set PINNED in "
            f"{Path(__file__).name} to ({version + 1}, {current[1]!r}).")
    else:
        message = (
            f"CACHE_SCHEMA_VERSION or the golden makespans moved; set PINNED in "
            f"{Path(__file__).name} to {current!r}.")
    raise AssertionError(message)
