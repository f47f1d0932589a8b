"""Reliability-aware dual-embedding recommender.

Reviews are parsed into a sparse interaction store, each review earns a
network reliability score from helpfulness votes and readership order,
and two branches -- a linear factor model and a ReLU tower over
embedding tables -- learn pair embeddings from ratings plus reliability.
A blended head concatenates the two embeddings and regresses the rating,
initialized from the pre-trained branches with a trade-off constant.

Import names from the modules, e.g. ``from dualrec.reliability import
score_store``; the package root only loads them.
"""

from . import fusion, harness, ingest, linalg, metrics, mf_model, mlp_model, reliability, training

__version__ = "0.1.0"
