"""The four golden manager configurations, as fresh-instance factories.

Mirrors ``tests/golden/golden_config.GOLDEN_MANAGERS`` (same paper
configurations) without importing across test directories.  The ideal
and nanos managers publish lane kernels, so ``Machine.run`` replays them
on the lane kernel; the two nexus managers decline (``lane_kernel() is
None``) and stay on the generic loop.  Either way ``Machine.run`` must
be byte-identical to the generic loop (``Machine._run_trace``).
"""

from __future__ import annotations

from repro.analysis.factories import (
    ideal_factory,
    nanos_factory,
    nexus_pp_factory,
    nexus_sharp_factory,
)

BATCH_TEST_MANAGERS = {
    "ideal": ideal_factory(),
    "nanos": nanos_factory(),
    "nexuspp": nexus_pp_factory(),
    "nexussharp": nexus_sharp_factory(6),
}

#: Managers ``Machine.run`` replays on the lane kernel.
KERNEL_MANAGERS = ("ideal", "nanos")
