"""fedvid: pair V2V messages with camera bounding boxes.

A deterministic desk-scale toolkit covering the whole pipeline: synthetic
scenario simulation, plate-reading auto-labeling with field-of-view data
augmentation, sensor feature preprocessing, a feedback box-prediction
network trained from scratch, greedy confidence-based mapping decisions,
federated averaging over TCP, and correctness-ratio evaluation.
"""

from . import (experiment, fed, features, geo, labeling, mapping, metrics, model, plates, records,
               scenario)

__all__ = [
    "experiment", "fed", "features", "geo", "labeling", "mapping",
    "metrics", "model", "plates", "records", "scenario",
]

__version__ = "0.1.0"
