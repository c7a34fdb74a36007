"""A sweep through ``Machine.run`` equals the same sweep on the generic loop.

The mixed-axes demo grid (microbench + c-ray, ideal + nexus#2, fifo/sjf,
homogeneous/biglittle) runs through :class:`SweepRunner` twice: once as
shipped, where the ideal FIFO homogeneous cells take the lane kernel,
and once with the kernel disabled so every cell runs on the generic
loop.  The JSONL rows must be byte-identical.
"""

from __future__ import annotations

import repro.system.machine as machine_module
from repro.experiments.runner import SweepRunner
from repro.experiments.spec import SweepSpec

DEMO_GRID = SweepSpec(
    workloads=["microbench", "c-ray"],
    managers=["ideal", "nexus#2"],
    core_counts=[1, 2],
    seeds=(2015,),
    scale=0.05,
    schedulers=("fifo", "sjf"),
    topologies=("homogeneous", "biglittle:0.5"),
)


def test_sweep_rows_match_generic_loop(tmp_path, monkeypatch):
    kernel_runs = []
    lane_run = machine_module.lane_run

    def counting_lane_run(*args, **kwargs):
        kernel_runs.append(args[0].name)
        return lane_run(*args, **kwargs)

    monkeypatch.setattr(machine_module, "lane_run", counting_lane_run)
    shipped = SweepRunner().run(DEMO_GRID, jsonl_path=tmp_path / "run.jsonl")
    # ideal x fifo x 2 workloads x {homogeneous at 1 and 2 cores,
    # biglittle at 1 core (one big unit-speed core)}.
    assert len(kernel_runs) == 6

    monkeypatch.setattr(machine_module, "lane_fallback_reason",
                        lambda *args: "generic loop forced")
    generic = SweepRunner().run(DEMO_GRID, jsonl_path=tmp_path / "generic.jsonl")

    assert shipped.executed == generic.executed == 32
    assert len(kernel_runs) == 6
    assert (tmp_path / "run.jsonl").read_bytes() == (tmp_path / "generic.jsonl").read_bytes()
