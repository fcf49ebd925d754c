"""PFR — Projected Functional Regularization (Gomez-Villa et al., CVPRW 2022).

Cited by the paper (Sec. II-B2) alongside CaSSLe as the other regularization-
based UCL method.  Like CaSSLe it distils the frozen previous model through a
learned projector (Eq. 9); unlike CaSSLe the alignment is a *plain* negative
cosine between the projected current representation and the old one — the
objective-specific predictor machinery is not reused.  That makes PFR
slightly weaker than CaSSLe under SimSiam (whose predictor-based alignment
matches the training geometry) but insensitive to the choice of objective.
"""

from __future__ import annotations

import numpy as np

from repro.continual.cassle import CaSSLe
from repro.ssl.base import CSSLObjective
from repro.tensor import ops
from repro.tensor.tensor import Tensor, no_grad


class PFR(CaSSLe):
    name = "pfr"

    def _distill(self, view: np.ndarray, current: Tensor) -> Tensor:
        with no_grad():
            target = self.old_objective.representation(view).numpy()
        projected = self.head.projector(current)
        return -(ops.cosine_similarity(projected, Tensor(target))).mean()
