"""Record-linkage accuracy and dual-system coverage from link counts.

The package simulates census-like two-register populations, links them
with blocked deterministic rules, and estimates linkage accuracy and
capture-recapture coverage by fitting finite mixtures to the number of
links per record, without clerical review.
"""

from .frequencies import (FrequencyTable, build_soundex_index,
                          load_frequency_table, synthetic_age_table,
                          synthetic_surname_table)
from .soundex import soundex
from .popsim import (PATTERNS, PerturbationParams, Population, SampleFlags,
                     draw_samples, generate_population, pattern_distribution)
from .linkage import (ClericalEstimates, ConfusionMatrix, CountVector,
                      LinkSet, RULE_BASELINE_AND_ANY_EXACT,
                      RULE_BASELINE_ONLY, baseline_pairs, block_pairs,
                      clerical_sample, confusion, counts, dedupe_rule2,
                      link_rule1, sample_records)
from ._optim import CountHistogram, MixtureParams, comp_pmf, mix_pmf
from .neighbor_uni import (AccuracySummary, accuracy_from_fit, capped_loglik,
                           fit_uni, sample_counts, select_G)
from .neighbor_multi import (LogLinear, appendix_c_start, coverage_from_fit,
                             fit_multi, init_appendix_c, loglinear_probs,
                             sample_multi_counts, select_G_multi,
                             single_class_p_hat)
from .baselines import (CoverageEstimate, df_dt_estimators, lincoln_petersen,
                        racinskij_fit)
from .experiment import (MetricsTable, ScenarioConfig, adjust_incomplete,
                         render_report, run_experiment, run_replication,
                         stratified_fit)

__version__ = "0.1.0"
