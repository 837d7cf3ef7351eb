"""Feature extractors mapping entity-pair questions into vector spaces.

The paper's question batching and demonstration selection both operate on
feature vectors of questions (Section III-B).  Two extractor families are
implemented:

* **structure-aware** (:class:`StructureAwareExtractor`): a vector of
  per-attribute string similarities between the two entities of a pair
  (Levenshtein ratio or Jaccard), which captures attribute-matching signals;
* **semantics-based** (:class:`SemanticExtractor`): the embedding of the
  serialized pair produced by a sentence encoder.

Both expose the same interface, so the rest of the pipeline is agnostic to the
extractor choice (which is exactly what Exp-6 / Table VII varies).

Consumers featurize through the columnar feature engine
(:class:`FeatureStore`), which featurizes in vectorised, fixed-size blocks and
owns the run's batch planner; repeated value pairs are served by the
process-wide similarity memo below it.  The scalar ``extract`` path is kept as
the equivalence oracle.
"""

from repro.features.base import FeatureExtractor
from repro.features.engine import FeatureStore, FeatureStoreStats, create_feature_store
from repro.features.structure_aware import StructureAwareExtractor
from repro.features.semantic import SemanticExtractor
from repro.features.factory import create_feature_extractor

__all__ = [
    "FeatureExtractor",
    "FeatureStore",
    "FeatureStoreStats",
    "SemanticExtractor",
    "StructureAwareExtractor",
    "create_feature_extractor",
    "create_feature_store",
]
