"""Importance-based variable selection for stacked denoising auto-encoders.

A linear pre-classifier scores input variables by how much each one tilts
the pairwise discriminant hyperplanes; low-importance variables are masked
out iteratively, and denoising auto-encoders train layer by layer on the
survivors before a supervised fine-tuning pass.
"""
