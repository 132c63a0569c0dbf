"""Affine and projective lifted Reed-Solomon codes.

Construction via degree sets, encoding, smooth local correction, and
structural analysis (shortening/puncturing, information sets,
quasi-cyclicity, distance bounds, dimension tables).
"""

from liftedcodes.gf import GF, ExtensionIso, FiniteField
from liftedcodes.geometry import LineEmbedding, Support, enumerate_points, standardize
from liftedcodes.degrees import adeg, adim, pdeg, pdim
from liftedcodes.codes import MonomialCode, Word, apply_affine_action, apply_projective_action, \
    encode, make_code
from liftedcodes.decode import CorrectionConfig, local_correct, mc_experiment, prs_decode
from liftedcodes.analysis import distance_report, information_set, qc_certificate, rate_table

__all__ = [
    "GF", "FiniteField", "ExtensionIso",
    "Support", "LineEmbedding", "enumerate_points", "standardize",
    "adeg", "pdeg", "adim", "pdim",
    "MonomialCode", "Word", "make_code", "encode",
    "apply_projective_action", "apply_affine_action",
    "CorrectionConfig", "prs_decode", "local_correct", "mc_experiment",
    "information_set", "qc_certificate", "distance_report", "rate_table",
]

__version__ = "0.1.0"
