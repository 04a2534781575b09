"""labelpure: purify noisy classification labels over frozen feature embeddings.

A closed-form ridge regression over each training batch turns a clean
validation set's prediction discrepancy into an exact gradient on the noisy
label logits; an accompanying linear classifier trained on the evolving soft
labels periodically replaces them outright. Includes synthetic benchmark
generation, noise injection, retraining, evaluation, and a reproducible CLI.
The API is the modules (``labelpure.data``, ``labelpure.purifier``, ...).
"""

__version__ = "0.1.0"
