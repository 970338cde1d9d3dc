"""Nightly sepsis-onset prediction on synthetic EHR cohorts.

Subpackage map:

- ``numgrad``: float64 tensors, tape autodiff, Adam, gradient checking
- ``model``: bidirectional-GRU multi-modal classifier and parameter geometry
- ``artifacts``: the text format of every run file, and atomic writes
- ``cohort``: seeded synthetic EHR generator and its CSV formats
- ``pipeline``: cleaning, night-window extraction, labeling, folds, resampling
- ``train``: ERM, class-balanced loss, profile pretraining, fine-tuning
- ``evaluation``: AUROC, confusion counts, cross-validation harness
- ``theory``: Lipschitz estimation and representation-geometry checks
- ``cli``: config-driven orchestration of full runs
"""

__version__ = "0.1.0"
