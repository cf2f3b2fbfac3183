"""SpecEE core: the paper's contribution.

* :mod:`repro.core.features` — T1 feature extraction (Sec. 4.3.1).
* :mod:`repro.core.predictor` — the lightweight MLP exit predictor and the
  per-layer predictor bank (Sec. 4.3.2).
* :mod:`repro.core.predictor_training` — offline trace harvesting and
  training (Sec. 7.4.4).
* :mod:`repro.core.verification` — the global-argmax verification algorithm
  (Sec. 4.3.3).
* :mod:`repro.core.scheduling` — T2 two-level heuristic scheduling (Sec. 5).
* :mod:`repro.core.engine` — the autoregressive SpecEE engine (T1 + T2).
* :mod:`repro.core.spec_engine` — SpecEE under speculative decoding with
  context-aware merged mapping (T3, Sec. 6).
"""

from repro.core.engine import GenerationResult, SpecEEEngine
from repro.core.features import FeatureExtractor
from repro.core.predictor import ExitPredictor, PredictorBank
from repro.core.predictor_training import (
    TrainingCorpus,
    harvest_training_corpus,
    train_predictor_bank,
)
from repro.core.scheduling import (
    AllLayersScheduler,
    OfflineScheduler,
    OnlineScheduler,
    TwoLevelScheduler,
    make_scheduler,
)
from repro.core.spec_engine import SpecDecodeResult, SpecEESpeculativeEngine
from repro.core.verification import verify_exits

__all__ = [
    "AllLayersScheduler",
    "ExitPredictor",
    "FeatureExtractor",
    "GenerationResult",
    "OfflineScheduler",
    "OnlineScheduler",
    "PredictorBank",
    "SpecDecodeResult",
    "SpecEEEngine",
    "SpecEESpeculativeEngine",
    "TrainingCorpus",
    "TwoLevelScheduler",
    "harvest_training_corpus",
    "make_scheduler",
    "train_predictor_bank",
    "verify_exits",
]
