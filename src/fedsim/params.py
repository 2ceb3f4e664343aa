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

    A group of M clients that train in lockstep holds an (M, P) stack:
    row m is client m's vector, and ``bounds`` index the last axis.
    """

    data: np.ndarray
    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data)
        if self.bounds and self.bounds[-1][1] != self.data.shape[-1]:
            raise SegmentationError(
                f"segment table covers {self.bounds[-1][1]} scalars, "
                f"data holds {self.data.shape[-1]}"
            )

    @classmethod
    def stack(cls, vectors: list["ParamVector"]) -> "ParamVector":
        """(M, P) stack of M equally segmented vectors, copied."""
        for v in vectors[1:]:
            vectors[0].require_same_segmentation(v)
        return cls(np.array([v.data for v in vectors]), vectors[0].bounds)

    def as_stack(self) -> "ParamVector":
        """This stack, or a (1, P) view of this single vector."""
        return self if self.data.ndim == 2 else ParamVector(self.data[None], self.bounds)

    def rows(self) -> list["ParamVector"]:
        """Views of the vectors in an (M, P) stack."""
        return [ParamVector(row, self.bounds) for row in self.data]

    @property
    def total_len(self) -> int:
        """Scalars per vector (per row of a stack)."""
        return int(self.data.shape[-1])

    @property
    def n_segments(self) -> int:
        return len(self.bounds)

    def segment(self, i: int) -> np.ndarray:
        """View (not copy) of segment ``i`` (of every row of a stack)."""
        start, end = self.bounds[i]
        return self.data[..., start:end]

    def copy(self) -> "ParamVector":
        return ParamVector(self.data.copy(), self.bounds)

    def zeros_like(self) -> "ParamVector":
        return ParamVector(np.zeros_like(self.data), self.bounds)

    def require_same_segmentation(self, other: "ParamVector") -> None:
        if self.bounds != other.bounds:
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
    """One part of a network: the segments ``[first, stop)`` of a
    ParamVector, a contiguous run of scalars. Updates and aggregations touch
    only these; every other segment must come out bit-identical.
    """

    first: int
    stop: int

    @classmethod
    def full(cls, n_segments: int) -> "ParamMask":
        return cls(0, n_segments)

    def check(self, params: ParamVector) -> None:
        if not 0 <= self.first <= self.stop <= params.n_segments:
            raise SegmentationError(
                f"mask covers segments [{self.first}, {self.stop}), "
                f"params have {params.n_segments}"
            )

    def selected(self) -> tuple[int, ...]:
        return tuple(range(self.first, self.stop))

    def scalars(self, params: ParamVector) -> slice:
        """The range's scalars: a slice of the last axis of ``params.data``."""
        self.check(params)
        if self.first == self.stop:
            return slice(0, 0)
        return slice(params.bounds[self.first][0], params.bounds[self.stop - 1][1])
