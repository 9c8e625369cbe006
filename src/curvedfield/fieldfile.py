"""Self-describing binary container for sampled fields.

Layout (all multi-byte data little-endian):

    bytes 0..767    header: 8 ASCII lines, each exactly 96 bytes, space padded
      line 0  CURVEDFLD1
      line 1  geometry=<open|flat|closed>
      line 2  K=<%.17g>
      line 3  spin=<int> dtype=<float64|complex128> seed=<int>
      line 4  nchi=<int> ntheta=<int> nphi=<int>
      line 5  confighash=<64 hex chars or "-">
      line 6  created=<ISO-8601 UTC or "-">
      line 7  sha256=<64 hex chars>
    bytes 768..     chi grid   (nchi float64)
                    theta grid (ntheta float64)
                    phi grid   (nphi float64)
                    values     (nchi*ntheta*nphi of dtype, C order:
                                chi slowest, phi fastest)

The checksum on line 7 is sha256 over the header with lines 6 and 7 blanked
to spaces, followed by every payload byte; the creation timestamp therefore
never changes the checksum, and two files written from identical data and
metadata differ at most in line 6.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import FieldFileError
from .geometry import Geometry, Kind

MAGIC = "CURVEDFLD1"
_LINE = 96
_NLINES = 8
HEADER_BYTES = _LINE * _NLINES

_DTYPES = {"float64": "<f8", "complex128": "<c16"}


@dataclass(frozen=True)
class FieldFile:
    """In-memory form of a field container."""

    geometry: Geometry
    spin: int
    seed: int
    chi: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    values: np.ndarray          # (nchi, ntheta, nphi)
    config_hash: str = "-"
    created: str = "-"


def _line(text: str) -> bytes:
    raw = text.encode("ascii")
    if len(raw) > _LINE - 1:
        raise FieldFileError(f"header line too long: {text!r}")
    return raw + b" " * (_LINE - 1 - len(raw)) + b"\n"


def _grid(name: str, x) -> np.ndarray:
    x = np.ascontiguousarray(np.asarray(x, dtype="<f8"))
    if x.ndim != 1 or x.size == 0 or not np.all(np.isfinite(x)):
        raise FieldFileError(f"{name} grid must be a finite non-empty 1-d array")
    return x


def _checksum(head: bytes, payload: bytes) -> str:
    """sha256 of header lines 0-5 (head), lines 6 and 7 as spaces, then the payload."""
    return hashlib.sha256(head + b" " * (2 * _LINE) + payload).hexdigest()


def _header_and_payload(ff: FieldFile, created: str):
    chi = _grid("chi", ff.chi)
    theta = _grid("theta", ff.theta)
    phi = _grid("phi", ff.phi)
    vals = np.asarray(ff.values)
    if vals.shape != (chi.size, theta.size, phi.size):
        raise FieldFileError(
            f"values shape {vals.shape} does not match grids "
            f"({chi.size}, {theta.size}, {phi.size})")
    dtype = "complex128" if np.iscomplexobj(vals) else "float64"
    vals = np.ascontiguousarray(vals.astype(_DTYPES[dtype], copy=False))
    if ff.config_hash != "-" and (len(ff.config_hash) != 64
                                  or any(c not in "0123456789abcdef" for c in ff.config_hash)):
        raise FieldFileError("config_hash must be 64 lowercase hex chars or '-'")
    lines = [
        _line(MAGIC),
        _line(f"geometry={ff.geometry.kind.value}"),
        _line(f"K={ff.geometry.K:.17g}"),
        _line(f"spin={ff.spin} dtype={dtype} seed={ff.seed}"),
        _line(f"nchi={chi.size} ntheta={theta.size} nphi={phi.size}"),
        _line(f"confighash={ff.config_hash}"),
    ]
    payload = chi.tobytes() + theta.tobytes() + phi.tobytes() + vals.tobytes()
    digest = _checksum(b"".join(lines), payload)
    lines.append(_line(f"created={created}"))
    lines.append(_line(f"sha256={digest}"))
    return b"".join(lines), payload, digest


def write_field(path, ff: FieldFile) -> str:
    """Write the container; returns the checksum."""
    created = ff.created
    if created == "-":
        created = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    header, payload, digest = _header_and_payload(ff, created)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    return digest


def _parse_kv(line: str, *keys: str) -> list[str]:
    parts = line.split()
    vals = []
    for key, part in zip(keys, parts):
        if not part.startswith(key + "="):
            raise FieldFileError(f"malformed header line {line!r}: expected {key}=")
        vals.append(part[len(key) + 1:])
    if len(parts) != len(keys):
        raise FieldFileError(f"malformed header line {line!r}")
    return vals


def read_field(path, verify: bool = True) -> FieldFile:
    """Read a container, verifying the checksum (before any header number is
    parsed) unless verify=False; a malformed file raises FieldFileError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < HEADER_BYTES:
        raise FieldFileError("file shorter than header")
    header, payload = raw[:HEADER_BYTES], raw[HEADER_BYTES:]
    lines = [header[i * _LINE:(i + 1) * _LINE].decode("ascii", "replace").rstrip()
             for i in range(_NLINES)]
    if lines[0] != MAGIC:
        raise FieldFileError(f"bad magic {lines[0]!r}; not a field container")
    digest = _parse_kv(lines[7], "sha256")[0]
    if verify and _checksum(header[:6 * _LINE], payload) != digest:
        raise FieldFileError("checksum mismatch: file corrupt or truncated")

    kind = _parse_kv(lines[1], "geometry")[0]
    K_s = _parse_kv(lines[2], "K")[0]
    spin_s, dtype, seed_s = _parse_kv(lines[3], "spin", "dtype", "seed")
    if dtype not in _DTYPES:
        raise FieldFileError(f"unknown dtype {dtype!r}")
    sizes = _parse_kv(lines[4], "nchi", "ntheta", "nphi")
    config_hash = _parse_kv(lines[5], "confighash")[0]
    created = _parse_kv(lines[6], "created")[0]
    try:
        geom = Geometry(Kind(kind), float(K_s))
        spin, seed = int(spin_s), int(seed_s)
        nchi, ntheta, nphi = (int(v) for v in sizes)
    except ValueError as exc:           # DomainError from Geometry is one too
        raise FieldFileError(f"malformed header: {exc}") from None
    if min(nchi, ntheta, nphi) < 1:
        raise FieldFileError(f"grid sizes must be >= 1, got {nchi}, {ntheta}, {nphi}")

    itemsize = np.dtype(_DTYPES[dtype]).itemsize
    need = 8 * (nchi + ntheta + nphi) + itemsize * nchi * ntheta * nphi
    if len(payload) != need:
        raise FieldFileError(f"payload is {len(payload)} bytes, expected {need}")
    off = 0
    grids = []
    for n in (nchi, ntheta, nphi):
        grids.append(np.frombuffer(payload, dtype="<f8", count=n, offset=off).copy())
        off += 8 * n
    vals = np.frombuffer(payload, dtype=_DTYPES[dtype],
                         count=nchi * ntheta * nphi, offset=off)
    vals = vals.reshape(nchi, ntheta, nphi).copy()
    return FieldFile(geom, spin, seed, grids[0], grids[1], grids[2], vals,
                     config_hash, created)
