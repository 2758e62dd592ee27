"""Functional co-response group discovery over co-occurrence networks.

The pipeline: normalize an abundance table, smooth it over a weighted
taxon network (one symmetric-normalized graph-convolution step), then run
a genetic search for the binary taxon group whose combined signal best
correlates with a functional variable.  Model selection, stratified
evaluation against the raw-abundance baseline, importance aggregation and
network analytics round out the toolkit; everything is reproducible from a
single master seed.
"""

from .analytics import (CentralityReport, ClusterResult, LocationReport,
                        centralities, locate_group, louvain, modularity)
from .errors import (CoresponseError, NumericError, ParseError,
                     ValidationError)
from .evaluation import (EvaluationReport, SplitPlan, TTestResult,
                         evaluate_method, paired_t_test, stratified_split)
from .ga import (FitnessEvaluation, GAResult, GroupChromosome,
                 OptimizerConfig, run_ga)
from .importance import (DiscoveryReport, ImportanceResult,
                         aggregate_importance, discover_importance)
from .ingest import (AbundanceMatrix, FunctionalVariable, css_normalize,
                     filter_sparse_taxa, load_abundance, load_function)
from .model_select import (ModelSelectionResult, aic_for_group, mu_sweep,
                           sweep_k)
from .network import (CoOccurrenceNetwork, NetworkInferenceConfig, convolve,
                      infer_network, load_adjacency)
from .synth import SynthBundle, SynthSpec, generate

__version__ = "1.0.0"

__all__ = [
    "AbundanceMatrix",
    "CentralityReport",
    "ClusterResult",
    "CoOccurrenceNetwork",
    "CoresponseError",
    "DiscoveryReport",
    "EvaluationReport",
    "FitnessEvaluation",
    "FunctionalVariable",
    "GAResult",
    "GroupChromosome",
    "ImportanceResult",
    "LocationReport",
    "ModelSelectionResult",
    "NetworkInferenceConfig",
    "NumericError",
    "OptimizerConfig",
    "ParseError",
    "SplitPlan",
    "SynthBundle",
    "SynthSpec",
    "TTestResult",
    "ValidationError",
    "aggregate_importance",
    "aic_for_group",
    "centralities",
    "convolve",
    "css_normalize",
    "discover_importance",
    "evaluate_method",
    "filter_sparse_taxa",
    "generate",
    "infer_network",
    "load_abundance",
    "load_adjacency",
    "load_function",
    "locate_group",
    "louvain",
    "modularity",
    "mu_sweep",
    "paired_t_test",
    "run_ga",
    "stratified_split",
    "sweep_k",
    "__version__",
]
