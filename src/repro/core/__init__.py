"""CoSplit: ownership and commutativity analysis for Scilla contracts.

The paper's primary contribution: a compositional static analysis that
infers per-transition effect summaries and derives sharding signatures
used by the chain substrate (:mod:`repro.chain`) to parallelise
contract transactions across shards.
"""

from .constraints import (
    Bot, Constraint, ContractShard, NoAliases, Owns, SenderShard,
    UserAddr, hogged_fields, is_bot,
)
from .domain import (
    Card, ConstKey, Contrib, ContribType, CT, EFun, FieldSource,
    FormalSource, ConstSource, ParamKey, PseudoField,
)
from .effects import (
    AcceptFunds, Condition, MsgInfo, Read, SendMsg, Summary, TopEffect,
    Write,
)
from .cache import ANALYSIS_VERSION, CacheStats, GLOBAL_CACHE, SummaryCache
from .joins import JoinKind, MergeConflict
from .pipeline import (
    DeploymentResult, PipelineTimings, run_pipeline, run_pipeline_cached,
    validate_signature,
)
from .signature import (
    ShardingSignature, StaleReadsRejected, WEAK_READS_AUTO,
    derive_signature, is_commutative_write, signature_for,
    signatures_equal,
)
from .solver import GEReport, ShardingSolver, is_good_enough
from .summary import SummaryAnalyzer, analyze_module

__all__ = [
    "Bot", "Constraint", "ContractShard", "NoAliases", "Owns",
    "SenderShard", "UserAddr", "hogged_fields", "is_bot",
    "Card", "ConstKey", "Contrib", "ContribType", "CT", "EFun",
    "FieldSource", "FormalSource", "ConstSource", "ParamKey",
    "PseudoField",
    "AcceptFunds", "Condition", "MsgInfo", "Read", "SendMsg", "Summary",
    "TopEffect", "Write",
    "ANALYSIS_VERSION", "CacheStats", "GLOBAL_CACHE", "SummaryCache",
    "JoinKind", "MergeConflict",
    "DeploymentResult", "PipelineTimings", "run_pipeline",
    "run_pipeline_cached", "validate_signature",
    "ShardingSignature", "StaleReadsRejected", "WEAK_READS_AUTO",
    "derive_signature", "is_commutative_write", "signature_for",
    "signatures_equal",
    "GEReport", "ShardingSolver", "is_good_enough",
    "SummaryAnalyzer", "analyze_module",
]
