"""Contrastive self-supervised learning (Sec. II-A of the paper).

Provides the encoder ``f(.)`` (backbone + projector MLP), the two CSSL
objectives the paper evaluates — SimSiam (Eq. 3) and BarlowTwins (Eq. 4) —
and the distillation head ``p_dis`` implementing ``L_dis`` (Eq. 9) for both
objectives.
"""

from repro.ssl.encoder import Encoder, build_backbone
from repro.ssl.base import CSSLObjective
from repro.ssl.simsiam import SimSiam
from repro.ssl.barlow import BarlowTwins
from repro.ssl.byol import BYOL
from repro.ssl.distill import DistillationHead
from repro.ssl.vae import VAE, VAEObjective

__all__ = [
    "Encoder",
    "build_backbone",
    "CSSLObjective",
    "SimSiam",
    "BarlowTwins",
    "BYOL",
    "VAE",
    "VAEObjective",
    "DistillationHead",
]
