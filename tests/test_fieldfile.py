import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedfield.errors import FieldFileError
from curvedfield.fieldfile import (HEADER_BYTES, FieldFile, read_field,
                                   write_field)
from curvedfield.geometry import Geometry


def sample_file(dtype=float, created="-", config_hash="-"):
    rng = np.random.default_rng(8)
    chi = np.array([0.0, 0.5, 1.0, 1.5])
    theta = np.array([0.4, 1.2, 2.0])
    phi = np.array([0.0, 2.1])
    vals = rng.standard_normal((4, 3, 2))
    if dtype is complex:
        vals = vals + 1j * rng.standard_normal((4, 3, 2))
    return FieldFile(Geometry.open(-0.5), 2, 77, chi, theta, phi, vals,
                     config_hash=config_hash, created=created)


def test_roundtrip_bit_exact(tmp_path):
    for dtype in (float, complex):
        ff = sample_file(dtype)
        path = tmp_path / f"f_{dtype.__name__}.fld"
        digest = write_field(path, ff)
        assert len(digest) == 64
        back = read_field(path)
        np.testing.assert_array_equal(back.chi, ff.chi)
        np.testing.assert_array_equal(back.theta, ff.theta)
        np.testing.assert_array_equal(back.phi, ff.phi)
        np.testing.assert_array_equal(back.values, ff.values)
        assert back.values.dtype == (np.complex128 if dtype is complex
                                     else np.float64)
        assert back.geometry == ff.geometry
        assert back.spin == 2 and back.seed == 77
        assert back.created != "-"


def test_checksum_excludes_timestamp(tmp_path):
    a = tmp_path / "a.fld"
    b = tmp_path / "b.fld"
    da = write_field(a, sample_file(created="2026-01-01T00:00:00Z"))
    db = write_field(b, sample_file(created="2031-12-31T23:59:59Z"))
    assert da == db
    raw_a, raw_b = a.read_bytes(), b.read_bytes()
    assert raw_a != raw_b                      # timestamps differ on disk
    assert raw_a[HEADER_BYTES:] == raw_b[HEADER_BYTES:]
    assert read_field(a).created == "2026-01-01T00:00:00Z"


def test_corruption_detected(tmp_path):
    path = tmp_path / "f.fld"
    write_field(path, sample_file())
    raw = bytearray(path.read_bytes())
    raw[HEADER_BYTES + 11] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldFileError, match="checksum"):
        read_field(path)
    # verify=False skips the digest but still validates the layout
    read_field(path, verify=False)


def test_truncation_detected(tmp_path):
    path = tmp_path / "f.fld"
    write_field(path, sample_file())
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(FieldFileError):
        read_field(path)
    path.write_bytes(raw[:HEADER_BYTES - 32])
    with pytest.raises(FieldFileError, match="shorter than header"):
        read_field(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "f.fld"
    write_field(path, sample_file())
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldFileError, match="magic"):
        read_field(path)


def test_config_hash_roundtrip_and_validation(tmp_path):
    h = hashlib.sha256(b"some config").hexdigest()
    path = tmp_path / "f.fld"
    write_field(path, sample_file(config_hash=h))
    assert read_field(path).config_hash == h
    with pytest.raises(FieldFileError, match="config_hash"):
        write_field(path, sample_file(config_hash="zz"))


def test_shape_and_grid_validation(tmp_path):
    ff = sample_file()
    bad = FieldFile(ff.geometry, ff.spin, ff.seed, ff.chi, ff.theta, ff.phi,
                    ff.values[:-1])
    with pytest.raises(FieldFileError, match="shape"):
        write_field(tmp_path / "x.fld", bad)
    nonfinite = FieldFile(ff.geometry, ff.spin, ff.seed,
                          np.array([0.0, np.inf]), ff.theta, ff.phi,
                          np.zeros((2, 3, 2)))
    with pytest.raises(FieldFileError):
        write_field(tmp_path / "y.fld", nonfinite)


def test_payload_order_chi_slowest(tmp_path):
    # values[c, t, p] laid out C order: phi fastest
    ff = sample_file()
    path = tmp_path / "f.fld"
    write_field(path, ff)
    raw = path.read_bytes()
    off = HEADER_BYTES + 8 * (4 + 3 + 2)
    flat = np.frombuffer(raw, dtype="<f8", offset=off)
    np.testing.assert_array_equal(flat.reshape(4, 3, 2), ff.values)
    assert flat[1] == ff.values[0, 0, 1]


def test_malformed_header_numbers_raise_field_file_error(tmp_path):
    path = tmp_path / "f.fld"
    write_field(path, sample_file())
    raw = path.read_bytes()
    for old, new in ((b"K=-0.5", b"K=-0.x"), (b"K=-0.5", b"K=+0.5"), (b"K=-0.5", b"K=nan0"),
                     (b"nchi=4", b"nchi=x"), (b"nchi=4 ntheta=3", b"nchi=-4 ntheta=-3"),
                     (b"seed=77", b"seed=7x"), (b"geometry=open", b"geometry=oval")):
        path.write_bytes(raw.replace(old, new, 1))
        for verify in (True, False):
            with pytest.raises(FieldFileError):
                read_field(path, verify=verify)


@settings(max_examples=300, deadline=None)
# positions favour the numeric header lines (2-4, bytes 192-479)
@given(flips=st.lists(st.tuples(st.integers(192, 479) | st.integers(0, 2 * HEADER_BYTES),
                                st.integers(1, 255)), max_size=4),
       cut=st.none() | st.integers(0, 2 * HEADER_BYTES),
       verify=st.booleans())
def test_read_field_fuzz_only_field_file_error(tmp_path_factory, flips, cut, verify):
    # flipped and truncated bytes either read or raise FieldFileError
    path = tmp_path_factory.getbasetemp() / "fuzz.fld"
    write_field(path, sample_file(created="2026-01-01T00:00:00Z"))
    raw = bytearray(path.read_bytes())
    for pos, mask in flips:
        raw[pos % len(raw)] ^= mask
    path.write_bytes(bytes(raw[:cut]))
    try:
        read_field(path, verify=verify)
    except FieldFileError:
        pass


def _write_with_dtype(path, dtype):
    write_field(path, sample_file())
    path.write_bytes(path.read_bytes().replace(b"dtype=float64", dtype, 1))
    return read_field(path, verify=False)


@pytest.mark.parametrize("call, message", [
    (lambda path: write_field(path, sample_file(created="x" * 96)), "header line too long"),
    (lambda path: _write_with_dtype(path, b"dtype=float32"), "unknown dtype 'float32'"),
])
def test_fieldfile_input_checks(tmp_path, call, message):
    with pytest.raises(FieldFileError, match=message):
        call(tmp_path / "f.fld")
