"""matrixgt: synthetic driving-scene ground-truth forge.

A deterministic scene simulator emits engine-style capture buffers
(log-encoded depth, packed class stencil, loose projected boxes), an
annotator refines them into tight 2D vehicle boxes using only those buffers,
and an evaluator verifies the annotations against a withheld per-pixel
oracle with KITTI-style difficulty-binned average precision.
"""

__version__ = "0.1.0"
