"""P-ASIC planning: PE count from an area and power budget (Section 4.4).

"For P-ASICs, the Planner determines the largest number of PEs that fits
in the area and power budget of the target chip. However, this metric
depends on the PE buffer capacity that is decided according to a set of
benchmarks." This module implements that flow: a 45 nm area/power model
per PE (calibrated so Table 2's two design points — 768 PEs at 29 mm^2 /
11 W and 2880 PEs at 105 mm^2 / 37 W — fall out), buffer sizing from a
benchmark set, and the budget solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from ..dfg import ir
from ..hw.spec import PASIC, ChipSpec

# 45 nm HVT standard-cell model, calibrated to Table 2:
#   area(n)  = AREA_BASE_MM2  + n * AREA_PER_PE_MM2  (+ buffers)
#   power(n) = POWER_BASE_W   + n * POWER_PER_PE_W
# Solving the two Table 2 points:
#   (2880 - 768) PEs -> (105 - 29) mm^2 => 0.036 mm^2 / PE
#   (2880 - 768) PEs -> (37 - 11) W     => 12.3 mW / PE
AREA_PER_PE_MM2 = (105.0 - 29.0) / (2880 - 768)
AREA_BASE_MM2 = 29.0 - 768 * AREA_PER_PE_MM2
POWER_PER_PE_W = (37.0 - 11.0) / (2880 - 768)
POWER_BASE_W = 11.0 - 768 * POWER_PER_PE_W
#: SRAM macro density at 45 nm (per byte of PE buffer), folded into the
#: per-PE slope above for the default buffer size; extra buffer bytes
#: beyond the default cost this much more.
AREA_PER_BUFFER_BYTE_MM2 = 2.2e-6
DEFAULT_BUFFER_BYTES = 2048


@dataclass(frozen=True)
class PasicBudget:
    """Manufacturing constraints for a custom chip."""

    area_mm2: float
    power_w: float
    frequency_hz: float = 1e9
    bandwidth_bytes: float = 9.6e9
    columns: int = 16

    def __post_init__(self):
        if self.area_mm2 <= AREA_BASE_MM2:
            raise ValueError(
                f"area budget {self.area_mm2} mm^2 cannot fit the "
                f"{AREA_BASE_MM2:.1f} mm^2 uncore"
            )
        if self.power_w <= POWER_BASE_W:
            raise ValueError(
                f"power budget {self.power_w} W cannot feed the "
                f"{POWER_BASE_W:.1f} W uncore"
            )


@dataclass(frozen=True)
class PasicPlan:
    """Outcome of the P-ASIC budget solve."""

    pe_count: int
    buffer_bytes_per_pe: int
    area_mm2: float
    power_w: float
    limited_by: str  # "area" | "power"

    def chip(self, budget: PasicBudget, name: str = "P-ASIC-custom") -> ChipSpec:
        """Materialise the plan as a ChipSpec the stack can target."""
        rows = max(1, self.pe_count // budget.columns)
        return ChipSpec(
            name=name,
            kind=PASIC,
            frequency_hz=budget.frequency_hz,
            bandwidth_bytes=budget.bandwidth_bytes,
            tdp_watts=self.power_w,
            explicit_pes=self.pe_count,
            max_rows=rows,
            columns_override=budget.columns,
            bram_count=self.pe_count,
            bram_bytes=self.buffer_bytes_per_pe,
            technology_nm=45,
        )


def buffer_bytes_for(
    dfgs: Iterable[ir.Dfg], word_bytes: int = 4
) -> int:
    """PE buffer capacity sized from a benchmark set (Section 4.4).

    Each PE must hold its share of the largest benchmark's working set
    when spread over a reference array; rounded up to a power of two as
    SRAM macros come.
    """
    reference_pes = 768
    worst = DEFAULT_BUFFER_BYTES
    for dfg in dfgs:
        per_pe = math.ceil(
            dfg.thread_storage_words() * word_bytes / reference_pes
        )
        worst = max(worst, per_pe)
    return 1 << math.ceil(math.log2(worst))


def area_mm2(pe_count: int, buffer_bytes: int = DEFAULT_BUFFER_BYTES) -> float:
    extra = max(0, buffer_bytes - DEFAULT_BUFFER_BYTES)
    return (
        AREA_BASE_MM2
        + pe_count * (AREA_PER_PE_MM2 + extra * AREA_PER_BUFFER_BYTE_MM2)
    )


def power_w(pe_count: int) -> float:
    return POWER_BASE_W + pe_count * POWER_PER_PE_W


def plan_pasic(
    budget: PasicBudget,
    benchmark_dfgs: Optional[Iterable[ir.Dfg]] = None,
    word_bytes: int = 4,
) -> PasicPlan:
    """Largest PE count meeting both budgets, row-granular.

    The PE count is rounded down to a whole number of rows
    (``budget.columns`` PEs each) so the 2-D template stays rectangular.
    """
    buffer_bytes = (
        buffer_bytes_for(benchmark_dfgs, word_bytes)
        if benchmark_dfgs is not None
        else DEFAULT_BUFFER_BYTES
    )
    extra = max(0, buffer_bytes - DEFAULT_BUFFER_BYTES)
    per_pe_area = AREA_PER_PE_MM2 + extra * AREA_PER_BUFFER_BYTE_MM2
    by_area = int((budget.area_mm2 - AREA_BASE_MM2) / per_pe_area)
    by_power = int((budget.power_w - POWER_BASE_W) / POWER_PER_PE_W)
    pe_count = max(budget.columns, min(by_area, by_power))
    pe_count -= pe_count % budget.columns
    limited_by = "area" if by_area <= by_power else "power"
    return PasicPlan(
        pe_count=pe_count,
        buffer_bytes_per_pe=buffer_bytes,
        area_mm2=area_mm2(pe_count, buffer_bytes),
        power_w=power_w(pe_count),
        limited_by=limited_by,
    )
