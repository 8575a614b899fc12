"""Randomized DP-coloring engine.

Builds proper colorings against correspondence covers by iterating a
randomized activate/assign/prune round until the cover is sparse enough for
a resampling finisher, plus the surrounding science kit: cover validation
and regularization, closed-form parameter schedules, reproducible instance
generators, and seeded Monte-Carlo verification of the per-round laws.
"""

from .analysis import (RoundStats, StructureReport, classify_structure,
                       exact_round_expectation, round_stats, verify_proper)
from .cover import (DpCover, Violation, cover_from_json, cover_to_json,
                    from_list_assignment, regularize, uniform_list_cover,
                    validate)
from .errors import (BudgetExceededError, CoverValidationError, DpnibbleError,
                     GenerationError, PipelineError, ResampleBudgetError,
                     RetriesExhaustedError)
from .generators import (incidence_graph, kst_free_bipartite, random_dp_cover,
                         random_girth5_regular, random_regular)
from .graph import (Graph, contains_kst, girth, graph_from_text, graph_to_text,
                    kst_edge_bound, max_degree)
from .nibble import (RoundOutcome, RoundParams, d_next, ell_next,
                     good_round_targets, keep_fn, round_is_good, run_round,
                     run_round_until_good, uncolor_fn)
from .pipeline import ColoringResult, PipelineConfig, color_graph, result_to_json
from .schedule import (Schedule, ScheduleError, ScheduleInput, ScheduleState,
                       compute_schedule, derive_constants, hat_deviation_report,
                       schedule_to_csv)

__version__ = "0.1.0"
