"""streamlab: a desk-scale lab for measuring the runtime overhead of a
unified dataflow layer over native mini stream engines."""

from .broker import LogBroker, LogEntry, TopicConfig
from .corpus import CorpusSpec, SearchLogRecord, generate_corpus, parse_record, send, serialize_record
from .harness import BenchmarkConfig, phase_execute, phase_ingest
from .microbatch import BatchPolicy, MicrobatchEngine
from .queries import ApiKind, EngineKind, QueryKind, QuerySpec, build_query
from .tuple_engine import TupleEngine
from .unified import Pipeline, translate

__version__ = "0.1.0"

__all__ = [
    "ApiKind",
    "BatchPolicy",
    "BenchmarkConfig",
    "CorpusSpec",
    "EngineKind",
    "LogBroker",
    "LogEntry",
    "MicrobatchEngine",
    "Pipeline",
    "QueryKind",
    "QuerySpec",
    "SearchLogRecord",
    "TopicConfig",
    "TupleEngine",
    "build_query",
    "generate_corpus",
    "parse_record",
    "phase_execute",
    "phase_ingest",
    "send",
    "serialize_record",
    "translate",
    "__version__",
]
