"""Desk-scale laboratory for component-aware self-speculative decoding.

Toy hybrid byte-level language models (parallel SSM+attention, sequential
interleaved, pure transformer), a lossless draft-verify speculative decoding
engine with four fixed draft strategies, and the measurement stack around them:
acceptance rates, divergence, speedup modelling, and ablation diagnostics.
"""

__version__ = "0.1.0"
