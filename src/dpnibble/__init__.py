"""Randomized DP-coloring engine.

Builds proper colorings against correspondence covers by iterating a
randomized activate/assign/prune round until the cover is sparse enough for
a resampling finisher, plus the surrounding science kit: cover validation
and regularization, closed-form parameter schedules, reproducible instance
generators, and seeded Monte-Carlo verification of the per-round laws.

The public names below are loaded on first use (PEP 562), so importing the
package, or one module of it, does not import every module.
"""

import importlib

# public name -> the module that defines it
_MODULE_OF = {name: module for module, names in {
    "analysis": ("RoundStats", "StructureReport", "classify_structure",
                 "exact_round_expectation", "round_stats"),
    "cover": ("DpCover", "Violation", "cover_from_json", "cover_to_json",
              "from_list_assignment", "regularize", "uniform_list_cover", "validate",
              "verify_proper"),
    "errors": ("BudgetExceededError", "CoverValidationError", "DpnibbleError",
               "GenerationError", "PipelineError", "ResampleBudgetError",
               "RetriesExhaustedError"),
    "generators": ("incidence_graph", "kst_free_bipartite", "random_dp_cover",
                   "random_girth5_regular", "random_regular"),
    "graph": ("Graph", "contains_kst", "girth", "graph_from_text", "graph_to_text",
              "kst_edge_bound", "max_degree"),
    "nibble": ("RoundOutcome", "RoundParams", "d_next", "ell_next",
               "good_round_targets", "keep_fn", "round_is_good", "run_round",
               "run_round_until_good", "uncolor_fn"),
    "pipeline": ("ColoringResult", "PipelineConfig", "color_graph", "result_to_json"),
    "schedule": ("Schedule", "ScheduleError", "ScheduleInput", "ScheduleState",
                 "compute_schedule", "derive_constants", "hat_deviation_report",
                 "schedule_to_csv"),
}.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
