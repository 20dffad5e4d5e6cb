"""Physical relational operators (Volcano-style iterator model).

Every operator exposes an output :class:`~repro.relational.schema.Schema`
and is iterable, yielding plain tuples; ``batches()`` yields the same rows
as :class:`~repro.relational.batch.Batch` es.  The relation-centric engine
builds its matmul-as-join-plus-aggregation pipelines from exactly these
operators, so they are shared between ordinary SQL queries and tensor
computation.
"""

from .base import Operator, MaterializedResult, collect
from .scan import SeqScan, ValuesScan, GeneratorScan
from .filter import Filter
from .project import Project
from .join import HashJoin, NestedLoopJoin
from .similarity_join import SimilarityJoin
from .aggregate import Aggregate, AggregateSpec
from .sort import Sort, SortKey
from .limit import Limit
from .distinct import Distinct
from .concat import Concat
from .map_batches import MapBatches

__all__ = [
    "Operator",
    "MaterializedResult",
    "collect",
    "SeqScan",
    "ValuesScan",
    "GeneratorScan",
    "Filter",
    "Project",
    "HashJoin",
    "NestedLoopJoin",
    "SimilarityJoin",
    "Aggregate",
    "AggregateSpec",
    "Sort",
    "SortKey",
    "Limit",
    "Distinct",
    "Concat",
    "MapBatches",
]
