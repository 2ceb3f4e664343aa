"""Flat, layer-segmented parameter containers, masks, and their binary format."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

FLOAT = np.float32

_MAGIC = b"FSPV"


class SegmentationError(ValueError):
    """Two parameter vectors (or a vector and a mask) disagree on layout."""


class BlobError(ValueError):
    """Bytes that are not one whole parameter blob: short, garbage, or with
    bytes left over. ``ParamVector.from_blob`` raises only this."""


@dataclass
class ParamVector:
    """All trainable scalars of one network, flattened.

    ``data`` is a flat float32 array. ``bounds`` holds one ``(start, end)``
    pair per parameterized layer; within a slice the layer's weights come
    first, then its bias. Segment boundaries are a function of topology
    only, which is what makes masked aggregation across clients well
    defined.
    """

    data: np.ndarray
    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data)
        if self.bounds and self.bounds[-1][1] != self.data.shape[0]:
            raise SegmentationError(
                f"segment table covers {self.bounds[-1][1]} scalars, "
                f"data holds {self.data.shape[0]}"
            )

    @property
    def total_len(self) -> int:
        return int(self.data.shape[0])

    @property
    def n_segments(self) -> int:
        return len(self.bounds)

    def segment(self, i: int) -> np.ndarray:
        """View (not copy) of segment ``i``."""
        start, end = self.bounds[i]
        return self.data[start:end]

    def copy(self) -> "ParamVector":
        return ParamVector(self.data.copy(), self.bounds)

    def zeros_like(self) -> "ParamVector":
        return ParamVector(np.zeros_like(self.data), self.bounds)

    def same_segmentation(self, other: "ParamVector") -> bool:
        return self.bounds == other.bounds

    def require_same_segmentation(self, other: "ParamVector") -> None:
        if not self.same_segmentation(other):
            raise SegmentationError("parameter vectors have different segmentations")

    # --- binary checkpoint format -------------------------------------
    # little-endian: magic, u32 segment count, u32 length per segment,
    # then the float32 payload.

    def to_blob(self) -> bytes:
        lengths = [end - start for start, end in self.bounds]
        header = _MAGIC + struct.pack("<I", len(lengths))
        header += struct.pack(f"<{len(lengths)}I", *lengths) if lengths else b""
        payload = self.data.astype("<f4", copy=False).tobytes()
        return header + payload

    @classmethod
    def from_blob(cls, blob: bytes) -> "ParamVector":
        """Parse ``to_blob`` output; raises BlobError for anything else."""
        if len(blob) < 8 or blob[:4] != _MAGIC:
            raise BlobError("not a parameter blob (bad magic or short header)")
        (n_seg,) = struct.unpack_from("<I", blob, 4)
        offset = 8 + 4 * n_seg
        if len(blob) < offset:
            raise BlobError(f"truncated parameter blob: {n_seg} segments announced")
        lengths = struct.unpack_from(f"<{n_seg}I", blob, 8)
        total = sum(lengths)
        if len(blob) != offset + 4 * total:
            raise BlobError(
                f"parameter blob holds {len(blob) - offset} payload bytes, "
                f"its header announces {4 * total}"
            )
        data = np.frombuffer(blob, dtype="<f4", count=total, offset=offset)
        bounds = []
        start = 0
        for length in lengths:
            bounds.append((start, start + length))
            start += length
        return cls(data.astype(FLOAT), tuple(bounds))


@dataclass(frozen=True)
class ParamMask:
    """Per-layer boolean selection over a ParamVector's segments.

    ``include[i]`` says whether segment ``i`` is touched by an update or
    an aggregation; excluded segments must come out bit-identical.
    """

    include: tuple[bool, ...]

    @classmethod
    def full(cls, n_segments: int) -> "ParamMask":
        return cls((True,) * n_segments)

    @classmethod
    def only(cls, n_segments: int, indices: tuple[int, ...]) -> "ParamMask":
        return cls(tuple(i in indices for i in range(n_segments)))

    @classmethod
    def excluding(cls, n_segments: int, indices: tuple[int, ...]) -> "ParamMask":
        return cls(tuple(i not in indices for i in range(n_segments)))

    def check(self, params: ParamVector) -> None:
        if len(self.include) != params.n_segments:
            raise SegmentationError(
                f"mask covers {len(self.include)} segments, "
                f"params have {params.n_segments}"
            )

    def selected(self) -> tuple[int, ...]:
        return tuple(i for i, inc in enumerate(self.include) if inc)
