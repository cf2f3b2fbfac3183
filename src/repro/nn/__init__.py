"""Numpy neural-network substrate.

Forward-only layers power the float32 inference-path transformer backend
(``attention.INFERENCE_DTYPE``); the minimal reverse-mode autodiff engine
(:mod:`repro.nn.autograd`) powers the float64 trainable components (tiny
transformer LM example, predictor reference trainer).
"""
