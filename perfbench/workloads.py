"""The benchmark's workloads: generated campaign specs plus how to invoke them.

Every workload is a campaign spec run through the normal user path,
``repro campaign --spec <file> --store <dir> --jobs N``.  The workload seed
is folded into the spec name, which seeds every scenario platform and trial
realisation, so a seed fully determines the inputs.  All workloads use m=5,
20 processors and the default Markov availability (the paper's Table I
setting); ``BENCHMARK.json`` and ``perfbench/README.md`` say why each exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["DEFAULT_SEED", "HOLDOUT_SEED", "WORKLOADS", "Workload"]

#: The seed whose per-cell digests are committed in ``digests.json``.
DEFAULT_SEED = 1
#: A second seed no tuning looked at; a claimed gain must hold on it too.
HOLDOUT_SEED = 2

# The paper's 17 heuristics, spelled out rather than read from the registry
# so that a registry change cannot silently change a workload.
ALL_HEURISTICS = (
    "RANDOM",
    "IP", "IE", "IY", "IAY",
    "P-IP", "P-IE", "P-IY", "P-IAY",
    "E-IP", "E-IE", "E-IY", "E-IAY",
    "Y-IP", "Y-IE", "Y-IY", "Y-IAY",
)
PASSIVE_HEURISTICS = ("IP", "IE", "IY", "IAY")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: ``--jobs`` of the untraced invocations (traced runs use 1).
    jobs: int
    #: The ``[campaign]`` table of the spec, without its name.
    campaign: Dict[str, object]
    #: The ``[grid]`` table of the spec.
    grid: Dict[str, Tuple[int, ...]]
    #: Run as two invocations: the first stops after half the cells
    #: (``--max-cells``), the second resumes the store.
    resume_split: bool = False
    heuristics: Tuple[str, ...] = field(default=ALL_HEURISTICS)

    def spec(self, seed: int) -> dict:
        """The spec file payload for *seed* (the seed names the campaign)."""
        campaign = {"name": f"perfbench-{self.name}-seed{seed}", "m": [5]}
        campaign["heuristics"] = list(self.heuristics)
        campaign.update(self.campaign)
        grid = {key: list(values) for key, values in self.grid.items()}
        grid["num_processors"] = [20]
        return {"campaign": campaign, "grid": grid, "availability": {"kind": "markov"}}

    def num_cells(self) -> int:
        count = len(self.heuristics) * self.campaign["scenarios_per_cell"]
        count *= self.campaign["trials"]
        for values in self.grid.values():
            count *= len(values)
        return count

    def invocations(self) -> List[List[str]]:
        """Extra ``repro campaign`` arguments of each invocation, in order."""
        if self.resume_split:
            return [["--max-cells", str(self.num_cells() // 2)], []]
        return [[]]


# The caps sit far below the paper's 1,000,000: each cell's cost is bounded,
# so a workload sums many similar costs and its time barely moves with the
# seed (README.md, "Why the caps are low").
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-mix",
            jobs=1,
            campaign={
                "scenarios_per_cell": 2,
                "trials": 1,
                "iterations": 10,
                "makespan_cap": 600,
            },
            grid={"ncom": (5, 10, 20), "wmin": (1, 4, 7, 10)},
        ),
        Workload(
            name="passive-long",
            jobs=1,
            campaign={
                "scenarios_per_cell": 4,
                "trials": 1,
                "iterations": 100,
                "makespan_cap": 20_000,
            },
            grid={"ncom": (5, 10, 20), "wmin": (4, 6, 8)},
            heuristics=PASSIVE_HEURISTICS,
        ),
        Workload(
            name="many-cells",
            jobs=2,
            campaign={
                "scenarios_per_cell": 10,
                "trials": 2,
                "iterations": 2,
                "makespan_cap": 20_000,
            },
            grid={"ncom": (5, 10, 20), "wmin": (1, 4, 7)},
            resume_split=True,
            heuristics=PASSIVE_HEURISTICS,
        ),
    )
}
