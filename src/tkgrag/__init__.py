"""Temporal knowledge graph forecasting toolkit: rule mining, rule-guided
history retrieval, prompt construction, instruction-set export, generative
prediction parsing, and time-aware filtered evaluation."""

from .client import (
    ClientError,
    EndpointError,
    GenParams,
    MalformedResponseError,
    PredictionList,
    TransportError,
    generate,
    generate_batch,
    parse_predictions,
    rule_score_predict,
)
from .config import ConfigError, RunConfig, build_run_config
from .evaluation import (
    EvalRecord,
    EvalReport,
    LLMPredictor,
    OraclePredictor,
    ablation_run,
    ablation_summary,
    build_filter_index,
    hits_at_k,
    run_eval,
    time_aware_filter,
)
from .kg import (
    Dataset,
    DatasetFormatError,
    DatasetSpec,
    Quadruple,
    TemporalKG,
    load_dataset,
    save_dataset,
)
from .prompts import (
    DEFAULT_INSTRUCTION,
    InstructionSample,
    Prompt,
    PromptConfig,
    build_prompt,
    export_finetune_set,
    make_instruction_sample,
    sample_fewshot,
    select_history,
)
from .retrieval import (
    Provenance,
    Query,
    RetrievalConfig,
    RetrievedHistory,
    queries_from_split,
    retrieve,
)
from .rules import (
    MiningParams,
    RuleBank,
    TemporalRule,
    estimate_confidence,
    learn_rules,
    sample_walk,
)
from .synthetic import SyntheticSpec, generate_events, write_synthetic_dataset

__version__ = "0.1.0"
