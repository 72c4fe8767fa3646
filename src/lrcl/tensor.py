"""A deterministic counter-based RNG and the float64 array helpers around it.

Every number in the package is a plain float64 numpy array. The SplitMix64
generator here has an integer stream that is identical across platforms,
so seeded experiments reproduce bit for bit; the helpers draw uniform
matrices from it, check arrays for NaN/Inf where such values can enter,
and write and read matrices as CSV without losing a bit. A state
directory (save_state) is the one on-disk format for saved networks and
Fisher estimates: one CSV per named matrix plus a JSON manifest.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import NumericalError, ParameterError, ParseError

_MASK64 = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class RngState:
    """SplitMix64 generator (Steele, Lea & Flood 2014).

    The state advances by the golden-gamma constant on every draw and the
    output is the mixed counter, so the stream is a pure function of the
    seed. Floats take the top 53 bits, giving uniforms on [0, 1).
    """

    __slots__ = ("seed", "_state", "_spare_normal")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._state = self.seed
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * _INV_2_53

    def normal(self) -> float:
        """Standard normal via Box-Muller; the sine variate is cached."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        u1 = 1.0 - self.next_float()  # (0, 1], keeps log() finite
        u2 = self.next_float()
        radius = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)

    def floats(self, n: int) -> np.ndarray:
        """The next n values of next_float, as one float64 array.

        The counters state + k*gamma (k = 1..n) are mixed in uint64 array
        arithmetic, which wraps modulo 2**64 like the masked scalar path.
        (Arrays, not numpy scalars: scalar overflow warns.)
        """
        if n < 0:
            raise ParameterError(f"cannot draw {n} floats")
        z = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self._state = (self._state + n * _GAMMA) & _MASK64
        return (z >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def normals(self, n: int) -> np.ndarray:
        """The next n values of normal(), as one float64 array.

        A pending spare comes first; a sine variate left over becomes the
        new spare. log, cos and sin stay on `math`: numpy's log differs from
        it in the last bit on some inputs, and numpy does not promise libm's
        cos and sin on every build. Products and the square root are
        correctly rounded in both, so they run on arrays.
        """
        if n < 0:
            raise ParameterError(f"cannot draw {n} normals")
        out = np.empty(n)
        start = 0
        if n and self._spare_normal is not None:
            out[0] = self._spare_normal
            self._spare_normal = None
            start = 1
        pairs = (n - start + 1) // 2
        u = self.floats(2 * pairs)
        log_u1 = np.fromiter(map(math.log, (1.0 - u[0::2]).tolist()), np.float64, pairs)
        angle = (2.0 * math.pi * u[1::2]).tolist()
        radius = np.sqrt(-2.0 * log_u1)
        draws = np.empty(2 * pairs)
        draws[0::2] = radius * np.fromiter(map(math.cos, angle), np.float64, pairs)
        draws[1::2] = radius * np.fromiter(map(math.sin, angle), np.float64, pairs)
        out[start:] = draws[: n - start]
        if 2 * pairs > n - start:
            self._spare_normal = float(draws[-1])
        return out

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, so no modulo bias."""
        if n <= 0:
            raise ParameterError(f"randint needs n >= 1, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            draw = self.next_u64()
            if draw < limit:
                return draw % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices drawn uniformly from range(n), stable order of draw."""
        if not 0 <= k <= n:
            raise ParameterError(f"cannot draw {k} from {n} without replacement")
        pool = list(range(n))
        out = []
        for i in range(k):
            j = i + self.randint(n - i)
            pool[i], pool[j] = pool[j], pool[i]
            out.append(pool[i])
        return out

    def derive(self, label: str) -> "RngState":
        """Independent stream keyed by the original seed and a label: FNV-1a, then one SplitMix64 draw."""
        h = 0xCBF29CE484222325
        for byte in label.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & _MASK64
        return RngState(RngState(self.seed ^ h).next_u64())


class Matrix:
    """Shim for the benchmark's call counter, which still looks up Matrix.from_array.

    Nothing in lrcl calls it; it goes with the next benchmark change.
    """

    @classmethod
    def from_array(cls, arr) -> "Matrix":
        return cls()


def _check_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NumericalError("matrix contains NaN or Inf")


def uniform_matrix(rng: RngState, rows: int, cols: int, lo: float, hi: float) -> np.ndarray:
    """Entries i.i.d. uniform on [lo, hi), drawn in row-major order."""
    if rows <= 0 or cols <= 0:
        raise ParameterError(f"matrix dims must be positive, got {rows}x{cols}")
    if not lo < hi:
        raise ParameterError(f"uniform_matrix needs lo < hi, got [{lo}, {hi})")
    return (lo + (hi - lo) * rng.floats(rows * cols)).reshape(rows, cols)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax of each row, max-subtracted for stability."""
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def format_float(x: float) -> str:
    """Shortest decimal that round-trips to the same float64."""
    return repr(float(x))


def atomic_write(path, text: str) -> None:
    """Replace path with text in one rename; on failure the old file stays.

    The text goes to a temporary file beside path, which is renamed over
    path only once fully written and is removed if anything fails.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_matrix_csv(path, m: np.ndarray) -> None:
    atomic_write(path, "".join(",".join(format_float(v) for v in row) + "\n" for row in m))


def read_matrix_csv(path) -> np.ndarray:
    """The 2-D array write_matrix_csv wrote; NumericalError on a nan or inf entry."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise ParseError(f"bad float in matrix csv: {exc}", line=lineno)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError("ragged matrix csv row", line=lineno)
            rows.append(row)
    if not rows:
        raise ParseError("empty matrix csv")
    arr = np.array(rows)
    _check_finite(arr)
    return arr


def state_files(directory, names) -> list[str]:
    """The files save_state writes for arrays of these names, in its order."""
    return [os.path.join(directory, f"{name}.csv") for name in names] + [os.path.join(directory, "manifest.json")]


def save_state(directory, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Each named matrix as {name}.csv, then meta as manifest.json, all written atomically."""
    os.makedirs(directory, exist_ok=True)
    *tables, manifest = state_files(directory, arrays)
    for path, m in zip(tables, arrays.values()):
        write_matrix_csv(path, m)
    atomic_write(manifest, json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_state(directory) -> tuple[dict[str, np.ndarray], dict]:
    """The named matrices and the meta that save_state wrote."""
    with open(os.path.join(directory, "manifest.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    names = sorted(f[: -len(".csv")] for f in os.listdir(directory) if f.endswith(".csv"))
    return {name: read_matrix_csv(os.path.join(directory, f"{name}.csv")) for name in names}, meta
