"""Section VII-B: hardware overhead (analytic, no simulation).

Paper: < 1 KB per core of storage, 2.7e-3 mm^2 at 22 nm, < 0.01 % of the
46.19 mm^2 chip; 86.5 B of state saved/restored at a context switch
(Section IV-C).
"""

from __future__ import annotations

from repro.experiments.tables import format_table
from repro.rnr.hw_cost import CHIP_AREA_MM2, HardwareCostModel


def compute(cores: int = 4) -> dict:
    model = HardwareCostModel(cores=cores)
    cost = model.per_core()
    return {
        "per_core_bytes": cost.total_bytes,
        "per_core_area_mm2": cost.area_mm2,
        "chip_fraction": cost.chip_fraction,
        "total_area_mm2": model.total_area_mm2(),
        "save_restore_bytes": model.save_restore_bytes,
    }


def report(runner=None) -> str:
    """The table; analytic, so ``runner`` is unused."""
    data = compute()
    rows = [
        ["per-core storage (B)", f"{data['per_core_bytes']:.0f}", "< 1024"],
        ["per-core area (mm^2)", f"{data['per_core_area_mm2']:.2e}", "2.7e-3"],
        [
            "fraction of chip",
            f"{100 * data['chip_fraction']:.4f}%",
            f"< 0.01% of {CHIP_AREA_MM2} mm^2",
        ],
        ["context-switch state (B)", f"{data['save_restore_bytes']:.1f}", "86.5"],
    ]
    return format_table(
        ("quantity", "measured", "paper"),
        rows,
        title="Section VII-B — RnR hardware overhead",
    )
