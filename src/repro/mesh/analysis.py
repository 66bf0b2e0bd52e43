"""Cross-architecture comparison harness (experiments E1-E3).

Gathers the per-architecture metrics the paper's Section 4 discusses —
programming performance (fidelity), expressivity, robustness, and hardware
inventory — into a single comparison table, so benchmarks and examples can
produce the paper-style architecture comparison with one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.mesh.base import MeshErrorModel
from repro.mesh.clements import ClementsMesh
from repro.mesh.compact import CompactClementsMesh
from repro.mesh.errors import evaluate_mesh_under_error
from repro.mesh.fldzhyan import FldzhyanMesh
from repro.mesh.reck import ReckMesh
from repro.utils.linalg import matrix_fidelity, random_unitary
from repro.utils.rng import RngLike, ensure_rng


#: The architectures evaluated in the paper's Section 4, keyed by name.
DEFAULT_ARCHITECTURES: Dict[str, Callable[[int], object]] = {
    "clements": lambda n: ClementsMesh(n),
    "compact-clements": lambda n: CompactClementsMesh(n),
    "reck": lambda n: ReckMesh(n),
    "fldzhyan": lambda n: FldzhyanMesh(n),
}


@dataclass(frozen=True)
class ArchitectureReport:
    """Summary metrics of one mesh architecture at one size."""

    architecture: str
    n_modes: int
    n_mzis: int
    n_phase_shifters: int
    depth: int
    programming_fidelity: float
    fidelity_under_phase_error: float
    fidelity_under_coupler_error: float


def compare_architectures(
    n_modes: int,
    architectures: Optional[Dict[str, Callable[[int], object]]] = None,
    n_targets: int = 3,
    phase_error_std: float = 0.05,
    coupler_error_std: float = 0.02,
    n_error_trials: int = 5,
    rng: RngLike = 0,
) -> List[ArchitectureReport]:
    """Build the architecture comparison table for one mesh size.

    For each architecture: program ``n_targets`` Haar-random unitaries,
    record the mean ideal programming fidelity, and the mean fidelity when
    phase errors (``phase_error_std``) or coupler splitting errors
    (``coupler_error_std``) are injected.
    """
    architectures = architectures if architectures is not None else DEFAULT_ARCHITECTURES
    generator = ensure_rng(rng)
    targets = [random_unitary(n_modes, rng=generator) for _ in range(max(1, n_targets))]
    reports = []
    for name, factory in architectures.items():
        ideal = []
        under_phase = []
        under_coupler = []
        mesh = factory(n_modes)
        for target in targets:
            mesh = factory(n_modes)
            mesh.program(target)
            ideal.append(matrix_fidelity(mesh.matrix(), target))
            phase_stats = evaluate_mesh_under_error(
                mesh,
                target,
                MeshErrorModel(phase_error_std=phase_error_std),
                n_trials=n_error_trials,
                rng=generator.integers(0, 2**31 - 1),
            )
            coupler_stats = evaluate_mesh_under_error(
                mesh,
                target,
                MeshErrorModel(coupler_ratio_error_std=coupler_error_std),
                n_trials=n_error_trials,
                rng=generator.integers(0, 2**31 - 1),
            )
            under_phase.append(phase_stats["fidelity_mean"])
            under_coupler.append(coupler_stats["fidelity_mean"])
        counts = mesh.component_count()
        reports.append(
            ArchitectureReport(
                architecture=name,
                n_modes=n_modes,
                n_mzis=counts["mzis"],
                n_phase_shifters=counts["phase_shifters"],
                depth=counts["depth"],
                programming_fidelity=float(np.mean(ideal)),
                fidelity_under_phase_error=float(np.mean(under_phase)),
                fidelity_under_coupler_error=float(np.mean(under_coupler)),
            )
        )
    return reports


def format_report_table(reports: Sequence[ArchitectureReport]) -> str:
    """Render a list of architecture reports as an aligned text table."""
    headers = [
        "architecture",
        "N",
        "MZIs",
        "PS",
        "depth",
        "fidelity",
        "F(phase err)",
        "F(coupler err)",
    ]
    rows = [
        [
            report.architecture,
            str(report.n_modes),
            str(report.n_mzis),
            str(report.n_phase_shifters),
            str(report.depth),
            f"{report.programming_fidelity:.4f}",
            f"{report.fidelity_under_phase_error:.4f}",
            f"{report.fidelity_under_coupler_error:.4f}",
        ]
        for report in reports
    ]
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
