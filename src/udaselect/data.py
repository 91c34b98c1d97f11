"""Synthetic domain pairs, feature-file ingestion and paired batching.

Classes are isotropic Gaussian blobs; the domain gap for shared classes
is an affine map (rotation in a random plane, translation, scale and
noise inflation).  Label ids are dense integers with the label-set
partition deciding which ids appear in which domain.

Feature files are streamed: a chunked pass counts the lines, and
numpy's C reader parses the body straight from the open file into one
table whose columns are the returned arrays, so no copy of the whole
text, list of its lines or second copy of the table is held.  The
per-line row walk ``_parse_rows`` stays the definition of a valid file
and of each error's text and line number: ``load_features`` falls back
to it whenever the C reader raises, warns or returns another row count.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ContractError, FeatureFileError

#: reserved "unknown" class symbol, distinct from every real class id
TAU = -1

#: steps whose row indices ``batches`` draws in one ``integers`` call.
#: Each call pays numpy's fixed Python-level cost (``np.prod(size)``, and
#: the bound checks of array bounds) once, and a block of a 64-row
#: batch's indices is 32 KiB of int64.
BLOCK_STEPS = 64


@dataclass(frozen=True)
class LabelSetSpec:
    """Partition of class ids into shared, source-private and target-private."""

    shared: tuple[int, ...]
    source_private: tuple[int, ...] = ()
    target_private: tuple[int, ...] = ()

    def __post_init__(self):
        all_ids = (*self.shared, *self.source_private, *self.target_private)
        if len(set(all_ids)) != len(all_ids):
            raise ConfigError("label sets must be pairwise disjoint")
        if TAU in all_ids:
            raise ConfigError(f"class id {TAU} is reserved for the unknown symbol")
        if not self.shared and not self.source_private:
            raise ConfigError("source label set must be non-empty")

    @property
    def source_labels(self) -> tuple[int, ...]:
        return (*self.shared, *self.source_private)

    @property
    def all_labels(self) -> tuple[int, ...]:
        return (*self.shared, *self.source_private, *self.target_private)

    @property
    def jaccard(self) -> float:
        """|shared| / |union of both label sets|."""
        return len(self.shared) / len(self.all_labels)


@dataclass(frozen=True)
class ShiftConfig:
    """Affine domain shift applied to shared-class target samples."""

    rotation: float = 0.0   # radians, in a seeded random 2-d subspace
    translation: float = 0.0  # magnitude of a seeded random direction
    scale: float = 1.0
    noise: float = 1.0      # multiplier on the target sampling noise

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.noise < 0:
            raise ConfigError(f"noise must be >= 0, got {self.noise}")


@dataclass(frozen=True)
class DomainDataset:
    """Feature rows plus labels; target labels are evaluation-only."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if len(self.features) != len(self.labels):
            raise ConfigError("features and labels must align")

    @property
    def n(self) -> int:
        return len(self.features)

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class DomainBatch:
    """One paired mini-batch: ``x`` stacks the labeled source half (slice
    0) over the unlabeled target half (slice 1), and ``source_y`` holds
    the source half's labels from the dataset its rows were drawn from.

    A training step takes the batch of a stack of R lanes in the same
    form with a leading lane axis: ``x`` is ``(R, 2, half, dim)`` and
    ``source_y`` the ``(R, half)`` classifier indices of each lane's
    source rows (``ModelBundle.class_index``)."""

    x: np.ndarray
    source_y: np.ndarray

    @property
    def target_x(self) -> np.ndarray:
        """Every target row, ``(half, dim)`` or a stack's ``(R * half,
        dim)`` in lane order: a view of ``x`` for one lane, a copy for
        more."""
        return self.x[..., 1, :, :].reshape(-1, self.x.shape[-1])


def _rotation_matrix(dim: int, angle: float, rng: np.random.Generator) -> np.ndarray:
    """Rotation by ``angle`` in a random 2-d subspace of R^dim."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, 2)))
    u, v = q[:, 0], q[:, 1]
    c, s = np.cos(angle), np.sin(angle)
    # R = I + (c-1)(uu^T + vv^T) + s(vu^T - uv^T)
    return (np.eye(dim) + (c - 1.0) * (np.outer(u, u) + np.outer(v, v))
            + s * (np.outer(v, u) - np.outer(u, v)))


def gen_synthetic(spec: LabelSetSpec, dim: int, per_class: int,
                  shift: ShiftConfig, seed: int) -> tuple[DomainDataset, DomainDataset]:
    """Gaussian-blob source/target pair with the given label-set geometry.

    Class centers are drawn with std 3; source blobs have unit std and
    target blobs std ``shift.noise``.  Shared-class target blobs are the
    source blobs pushed through the affine shift; private classes get
    fresh centers.  Identical seeds reproduce identical datasets
    bit-for-bit.  Each class is drawn straight into its block of the
    preallocated source or target rows, so no class is held twice.
    """
    if dim < 2:
        raise ConfigError(f"dim must be >= 2, got {dim}")
    if per_class < 1:
        raise ConfigError(f"per_class must be >= 1, got {per_class}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    centers = {y: rng.normal(0.0, 3.0, size=dim) for y in spec.all_labels}
    rot = _rotation_matrix(dim, shift.rotation, rng)
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    offset = shift.translation * direction

    def _blobs(x, labels, std):
        """Each class's blob into its ``per_class`` rows of ``x``, in the
        order of ``labels``; returns the blocks."""
        blocks = x.reshape(len(labels), per_class, dim)
        for y, block in zip(labels, blocks):
            np.add(centers[y], rng.normal(0.0, std, size=(per_class, dim)), out=block)
        return blocks

    src_ids = spec.source_labels
    tgt_ids = spec.shared + spec.target_private
    src_x = np.empty((len(src_ids) * per_class, dim))
    tgt_x = np.empty((len(tgt_ids) * per_class, dim))
    _blobs(src_x, src_ids, 1.0)
    for block in _blobs(tgt_x, tgt_ids, shift.noise)[:len(spec.shared)]:
        np.matmul(shift.scale * block, rot.T, out=block)
        block += offset

    source = DomainDataset(src_x, np.repeat(np.array(src_ids, dtype=np.int64), per_class))
    target = DomainDataset(tgt_x, np.repeat(np.array(tgt_ids, dtype=np.int64), per_class))
    return source, target


def batches(src: DomainDataset, tgt: DomainDataset, half: int, steps: int,
            rng: np.random.Generator, out: DomainBatch | None = None
            ) -> Iterator[DomainBatch]:
    """``steps`` paired batches of ``half`` rows per domain, each row drawn
    uniformly with replacement.  A batch's ``source_y`` holds the drawn
    source rows' ``src.labels``.

    One ``integers`` call with the bounds ``((src.n,), (tgt.n,))`` draws
    the indices of up to ``BLOCK_STEPS`` steps: the same stream as a
    source then a target call with a scalar bound per step.  ``take``
    gathers each step's rows into one buffer, ``out`` if given (a lane's
    slice of a stack's batch), so every batch yielded is the same
    object, valid until the next one is drawn; both domains' features
    must share the buffer's dtype.  Nothing is drawn before the first
    batch is asked for.
    """
    batch = out if out is not None else DomainBatch(
        np.empty((2, half, src.dim), src.features.dtype), np.empty(half, src.labels.dtype))
    for start in range(0, steps, BLOCK_STEPS):
        if src.n == 0 or tgt.n == 0:
            raise ContractError("cannot sample from an empty dataset")
        bounds = np.array(((src.n,), (tgt.n,)))
        for rows in rng.integers(0, bounds, size=(min(BLOCK_STEPS, steps - start), 2, half)):
            # the rows are in range by construction, and mode "raise" would
            # gather into a temporary and copy it to ``out``
            src.features.take(rows[0], axis=0, out=batch.x[0], mode="clip")
            tgt.features.take(rows[1], axis=0, out=batch.x[1], mode="clip")
            src.labels.take(rows[0], out=batch.source_y, mode="clip")
            yield batch


def sample_batch(src: DomainDataset, tgt: DomainDataset, batch_size: int,
                 rng: np.random.Generator) -> DomainBatch:
    """Equal halves drawn uniformly with replacement from each domain:
    the one-step case of ``batches``, in a batch of its own."""
    if batch_size < 2 or batch_size % 2 != 0:
        raise ContractError(f"batch_size must be even and >= 2, got {batch_size}")
    batch, = batches(src, tgt, batch_size // 2, 1, rng)
    return batch


# ---------------------------------------------------------------------------
# feature-file io: header line, then one sample per row, its label last


#: characters of text ``_count_lines`` reads at a time
_SCAN_CHUNK = 1 << 16

#: the line boundaries ``str.splitlines`` knows; text mode has already
#: turned ``\r`` and ``\r\n`` into ``\n``
_BREAKS = "\n\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def save_features(path, dataset: DomainDataset) -> None:
    with open(path, "w") as fh:
        fh.write(f"# dim={dataset.dim} count={dataset.n} labeled=1\n")
        # one row's floats at a time: a whole-table ``tolist`` holds the
        # table as Python floats, several MB on a 20k-row file
        for x, y in zip(np.asarray(dataset.features, dtype=np.float64), dataset.labels):
            fh.write("\t".join(map(repr, x.tolist())) + f"\t{int(y)}\n")


def load_features(path) -> DomainDataset:
    """Parse a labelled feature file; any malformed line aborts with its
    line number, and a ``labeled=0`` header is rejected.

    The body is parsed straight from the open file: one pass over
    fixed-size chunks counts the ``splitlines`` lines, the header is the
    first ``splitlines`` line of ``readline()`` and numpy's C reader
    parses the rest of the handle, so no copy of the whole text or list
    of its lines is ever held.  Where the C reader raises, warns or
    returns another row count, the row walk ``_parse_rows`` parses the
    body instead: a value ``float()`` or ``int()`` accepts and the C
    reader does not (``1_0``, non-ASCII digits) loads as before, and a
    malformed line gets the row walk's message and line number.  Every
    value the C reader accepts is bit-identical to ``float()``'s.  The C
    reader breaks lines only at ``\n``, so another ``splitlines``
    boundary (say ``\f`` or ``\u2028``) inside the text leaves it short
    of the count; one that ends the text adds a line for neither.  It
    therefore never sees more rows than the count, and ``max_rows``
    lets it allocate its table once at that size.  A file that is not
    valid text raises ``FeatureFileError`` too.

    The C reader's features and labels are returned as views of its
    one table, not copied: each feature row is followed by its label,
    so the feature rows are ``dim + 1`` floats apart and reach BLAS with
    a leading dimension of ``dim + 1``; their scores have the bits of
    contiguous rows'.  The row walk's are contiguous.
    """
    try:
        with open(path) as fh:
            n_lines = _count_lines(fh)
            fh.seek(0)
            dim = _check_header(path, (fh.readline().splitlines() or [""])[0], n_lines)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    # comments=None: the default "#" would cut a field short
                    table = np.loadtxt(fh, dtype=[("x", np.float64, (dim,)), ("y", np.int64)],
                                       delimiter="\t", comments=None, ndmin=1,
                                       max_rows=n_lines - 1)
            except (ValueError, Warning):
                table = None
            if table is not None and table.shape == (n_lines - 1,):
                return DomainDataset(table["x"], table["y"])
            fh.seek(0)
            return _parse_rows(path, fh.read().splitlines()[1:], dim)
    except UnicodeDecodeError as exc:
        raise FeatureFileError(f"{path}: {exc}") from exc


def _count_lines(fh) -> int:
    """The ``splitlines`` line count of ``fh``'s text.  A boundary is
    counted only where ``in`` finds it, a far faster scan than ``count``."""
    count, last = 0, "\n"
    while chunk := fh.read(_SCAN_CHUNK):
        count += sum(chunk.count(c) for c in _BREAKS if c in chunk)
        last = chunk[-1]
    return count + (last not in _BREAKS)


def _check_header(path, header: str, n_lines: int) -> int:
    """The ``dim`` of a file whose first line is ``header`` and which has
    ``n_lines`` lines, after the header and row-count checks."""
    if not n_lines:
        raise FeatureFileError(f"{path}: empty file")
    if not header.startswith("#"):
        raise FeatureFileError(f"{path}:1: missing header line")
    try:
        pairs = [kv.split("=") for kv in header.lstrip("#").split()]
        fields = dict(pairs)
        if len(fields) != len(pairs):
            keys = [k for k, _ in pairs]
            repeated = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"repeated keys {repeated}")
        unknown = set(fields) - {"dim", "count", "labeled"}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        dim, count = int(fields["dim"]), int(fields["count"])
        labeled = int(fields.get("labeled", "1"))
        if dim < 1 or count < 0 or labeled not in (0, 1):
            raise ValueError(f"need dim >= 1, count >= 0 and labeled 0 or 1, got "
                             f"dim={dim} count={count} labeled={labeled}")
    except (KeyError, ValueError) as exc:
        raise FeatureFileError(f"{path}:1: bad header: {exc}") from exc
    if not labeled:
        raise FeatureFileError(f"{path}: labels requested but file is unlabeled")
    if n_lines - 1 != count:
        raise FeatureFileError(
            f"{path}: header promises {count} rows, found {n_lines - 1}")
    return dim


def _parse_rows(path, body: list[str], dim: int) -> DomainDataset:
    """The row walk: one line at a time, ``float()`` per feature and
    ``int()`` per label.  It is the definition of a valid body."""
    count = len(body)
    feats = np.empty((count, dim))
    labels = np.empty(count, dtype=np.int64)
    for i, line in enumerate(body):
        parts = line.split("\t")
        if len(parts) != dim + 1:
            raise FeatureFileError(
                f"{path}:{i + 2}: expected {dim + 1} columns, got {len(parts)}")
        try:
            feats[i] = [float(v) for v in parts[:dim]]
            labels[i] = int(parts[dim])
        except ValueError as exc:
            raise FeatureFileError(f"{path}:{i + 2}: non-numeric field: {exc}") from exc
        except OverflowError as exc:  # int() took it, the int64 array did not
            raise FeatureFileError(f"{path}:{i + 2}: label does not fit int64: {exc}") from exc
    return DomainDataset(feats, labels)


# ---------------------------------------------------------------------------
# the desk-scale benchmark used throughout the acceptance runs


def benchmark_label_spec() -> LabelSetSpec:
    """4 shared, 2 source-private, 6 target-private classes (overlap 1/3)."""
    return LabelSetSpec(shared=(0, 1, 2, 3), source_private=(4, 5),
                        target_private=(6, 7, 8, 9, 10, 11))


def benchmark_shift() -> ShiftConfig:
    return ShiftConfig(rotation=0.6, translation=1.5, scale=1.0, noise=1.5)
