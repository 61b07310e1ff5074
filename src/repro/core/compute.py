"""Quantized arithmetic executed by the functional device.

The FPGA prototype computes in 8-bit (or 6-bit) fixed point (Table II).
The functional model does the same: int8 operands, int32 accumulation,
right-shift requantization with saturation, optional ReLU. Having real
arithmetic lets the end-to-end tests check that a remote user gets the
*correct* result through the full encrypt -> compute -> decrypt path,
against a NumPy reference computed locally.
"""

from __future__ import annotations

import numpy as np


def gemm_int8(a: np.ndarray, b: np.ndarray, shift: int = 7, relu: bool = False) -> np.ndarray:
    """C = requantize(A @ B) with int32 accumulation.

    ``shift`` is the right-shift requantization (hardware uses
    truncating shifts; we match a truncating arithmetic shift).
    """
    if a.dtype != np.int8 or b.dtype != np.int8:
        raise TypeError("operands must be int8")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    if not 0 <= shift < 32:
        raise ValueError("shift must be in [0, 32)")
    acc = a.astype(np.int32) @ b.astype(np.int32)
    if relu:
        acc = np.maximum(acc, 0)
    out = acc >> shift  # arithmetic shift (floor), as in fixed-point HW
    return np.clip(out, -128, 127).astype(np.int8)


def sgd_update_int8(weights: np.ndarray, grad: np.ndarray, lr_shift: int = 4) -> np.ndarray:
    """w <- clip(w - (g >> lr_shift)): the UpdateWeight instruction's
    arithmetic. The learning rate is a power of two (shift), as
    fixed-point training hardware implements it."""
    if weights.dtype != np.int8 or grad.dtype != np.int8:
        raise TypeError("operands must be int8")
    if weights.shape != grad.shape:
        raise ValueError(f"shape mismatch: {weights.shape} vs {grad.shape}")
    if not 0 <= lr_shift < 16:
        raise ValueError("lr_shift must be in [0, 16)")
    step = grad.astype(np.int32) >> lr_shift
    return np.clip(weights.astype(np.int32) - step, -128, 127).astype(np.int8)


def tensor_to_bytes(array: np.ndarray) -> bytes:
    """Serialize an int8 tensor row-major (the device's memory layout)."""
    if array.dtype != np.int8:
        raise TypeError("expected int8")
    return array.tobytes(order="C")


def tensor_from_bytes(data: bytes, shape) -> np.ndarray:
    expected = int(np.prod(shape))
    if len(data) < expected:
        raise ValueError(f"need {expected} bytes for shape {shape}, got {len(data)}")
    return np.frombuffer(data[:expected], dtype=np.int8).reshape(shape).copy()
