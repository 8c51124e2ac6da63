"""The paper's analytical execution model (Section 3) — the core library.

Equations (1)-(7) of El-Araby, Gonzalez & El-Ghazawi (HPRCTA'07), plus the
closed-form bounds, sensitivities and sweep utilities built on them.

Quick use::

    >>> from repro.model import ModelParameters, asymptotic_speedup
    >>> p = ModelParameters(x_task=0.17, x_prtr=0.17, hit_ratio=0.0)
    >>> round(float(asymptotic_speedup(p)), 2)   # the ~7x estimated peak
    6.88
"""

from .application import (
    ApplicationProfile,
    Kernel,
    amdahl_limit,
    application_speedup,
    application_time,
    breakeven_kernel_time,
)
from .bounds import (
    Regime,
    classify_regime,
    hit_ratio_required,
    is_beneficial,
    large_task_bound,
    left_branch_increasing,
    min_calls_for_speedup,
    peak_speedup,
    peak_x_task,
)
from .frtr import (
    frtr_per_call_normalized,
    frtr_total_normalized,
    frtr_total_time,
)
from .parameters import ModelParameters, RawParameters
from .prtr import (
    hit_stage_normalized,
    missed_stage_normalized,
    prtr_per_call_normalized,
    prtr_total_normalized,
    prtr_total_time,
)
from .sensitivity import (
    dS_dH,
    dS_dx_control,
    dS_dx_decision,
    dS_dx_prtr,
    dS_dx_task,
    finite_difference,
    gradient,
)
from .stochastic import (
    DISTRIBUTIONS,
    expected_max_uniform,
    heterogeneous_per_call,
    heterogeneous_speedup,
    heterogeneous_speedup_finite,
    jensen_gap,
    resolve_rng,
    sample_task_times,
    uniform_heterogeneous_speedup,
)
from .speedup import (
    asymptotic_speedup,
    convergence_n,
    speedup,
    speedup_from_raw,
)
from .sweep import (
    SweepResult,
    figure5_grid,
    figure9_grid,
    log_task_axis,
    sweep_asymptotic,
    sweep_finite,
)

__all__ = [
    "ApplicationProfile",
    "DISTRIBUTIONS",
    "Kernel",
    "amdahl_limit",
    "application_speedup",
    "application_time",
    "breakeven_kernel_time",
    "ModelParameters",
    "RawParameters",
    "Regime",
    "SweepResult",
    "asymptotic_speedup",
    "classify_regime",
    "convergence_n",
    "dS_dH",
    "dS_dx_control",
    "dS_dx_decision",
    "dS_dx_prtr",
    "dS_dx_task",
    "figure5_grid",
    "figure9_grid",
    "finite_difference",
    "frtr_per_call_normalized",
    "frtr_total_normalized",
    "frtr_total_time",
    "gradient",
    "hit_ratio_required",
    "hit_stage_normalized",
    "is_beneficial",
    "large_task_bound",
    "left_branch_increasing",
    "log_task_axis",
    "min_calls_for_speedup",
    "missed_stage_normalized",
    "peak_speedup",
    "peak_x_task",
    "prtr_per_call_normalized",
    "prtr_total_normalized",
    "prtr_total_time",
    "expected_max_uniform",
    "heterogeneous_per_call",
    "heterogeneous_speedup",
    "heterogeneous_speedup_finite",
    "jensen_gap",
    "resolve_rng",
    "sample_task_times",
    "speedup",
    "speedup_from_raw",
    "uniform_heterogeneous_speedup",
    "sweep_asymptotic",
    "sweep_finite",
]
