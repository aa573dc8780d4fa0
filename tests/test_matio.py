import tracemalloc

import numpy as np
import pytest

from blockprune.core import WeightMatrix, partition_capacities
from blockprune.generate import (
    blockdiag_matrix,
    gauss_matrix,
    generate,
    planted_assignment,
    uniform_matrix,
)
from blockprune.matio import (
    read_matrix,
    write_matrix,
    write_matrix_binary,
    write_matrix_csv,
)


class TestBinaryFormat:
    def test_write_read_roundtrip_bytes(self, tmp_path):
        w = uniform_matrix(6, 8, seed=1)
        path = tmp_path / "m.bpwm"
        write_matrix_binary(path, w)
        again = read_matrix(path)
        path2 = tmp_path / "m2.bpwm"
        write_matrix_binary(path2, again)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_layout(self, tmp_path):
        w = WeightMatrix(np.array([[1.5, -2.0]]))
        path = tmp_path / "m.bpwm"
        write_matrix_binary(path, w)
        raw = path.read_bytes()
        assert raw[:4] == b"BPWM"
        assert int.from_bytes(raw[4:8], "little") == 1  # version
        assert int.from_bytes(raw[8:12], "little") == 1  # rows
        assert int.from_bytes(raw[12:16], "little") == 2  # cols
        assert len(raw) == 16 + 2 * 4

    def test_values_stored_as_float32(self, tmp_path):
        # a value not representable in float32 must round on write
        w = WeightMatrix(np.array([[0.1]]))
        path = tmp_path / "m.bpwm"
        write_matrix_binary(path, w)
        got = read_matrix(path)
        assert got.data[0, 0] == float(np.float32(0.1))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bpwm"
        path.write_bytes(b"BPWM" + b"\x00" * 8)
        with pytest.raises(ValueError, match="truncated"):
            read_matrix(path)

    def test_payload_length_must_match_dims(self, tmp_path):
        w = uniform_matrix(2, 2, seed=0)
        path = tmp_path / "m.bpwm"
        write_matrix_binary(path, w)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="expected"):
            read_matrix(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.bpwm"
        path.write_bytes(b"BPWM" + (99).to_bytes(4, "little") * 3)
        with pytest.raises(ValueError, match="version"):
            read_matrix(path)

    def test_read_widens_once(self, tmp_path):
        path = tmp_path / "m.bpwm"
        write_matrix_binary(path, uniform_matrix(512, 512, seed=4))
        tracemalloc.start()
        try:
            w = read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The file's bytes (half the float64 array) and the array itself;
        # a second float64 copy would pass 2x.
        assert peak < 1.75 * w.data.nbytes

    def test_non_finite_payload_rejected(self, tmp_path):
        import struct

        path = tmp_path / "nan.bpwm"
        payload = struct.pack("<ff", 1.0, float("nan"))
        path.write_bytes(b"BPWM" + struct.pack("<III", 1, 1, 2) + payload)
        with pytest.raises(ValueError, match="non-finite"):
            read_matrix(path)


class TestCsvFormat:
    def test_csv_matches_binary_exactly(self, tmp_path):
        w = gauss_matrix(5, 7, seed=3)
        bin_path = tmp_path / "m.bpwm"
        csv_path = tmp_path / "m.csv"
        write_matrix_binary(bin_path, w)
        write_matrix_csv(csv_path, w)
        from_bin = read_matrix(bin_path)
        from_csv = read_matrix(csv_path)
        assert (from_bin.data == from_csv.data).all()

    def test_extension_dispatch(self, tmp_path):
        w = uniform_matrix(3, 3, seed=4)
        csv_path = tmp_path / "m.csv"
        write_matrix(csv_path, w)
        assert csv_path.read_bytes()[:4] != b"BPWM"
        bin_path = tmp_path / "m.mat"
        write_matrix(bin_path, w)
        assert bin_path.read_bytes()[:4] == b"BPWM"

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="expected 3"):
            read_matrix(path)

    def test_bad_token_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,banana\n")
        with pytest.raises(ValueError, match="bad number"):
            read_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="empty"):
            read_matrix(path)

    def test_scientific_notation_accepted(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1e-3,-2.5E2\n0.0,4\n")
        got = read_matrix(path)
        assert got.data.tolist() == [[0.001, -250.0], [0.0, 4.0]]


class TestGenerators:
    def test_uniform_range(self):
        w = uniform_matrix(50, 50, seed=5)
        assert (w.data >= -1.0).all() and (w.data < 1.0).all()

    def test_gauss_moments(self):
        w = gauss_matrix(100, 100, seed=6)
        assert abs(float(w.data.mean())) < 0.05
        assert abs(float(w.data.std()) - 1.0) < 0.05

    def test_blockdiag_support(self):
        w = blockdiag_matrix(10, 14, 3, seed=7)
        row_of, col_of = planted_assignment(10, 14, 3)
        off_block = w.data[row_of[:, None] != col_of[None, :]]
        on_block = w.data[row_of[:, None] == col_of[None, :]]
        assert (off_block == 0.0).all()
        assert (np.abs(on_block) >= 0.5).all()
        assert (np.abs(on_block) < 1.5).all()

    def test_planted_sizes_follow_capacities(self):
        row_of, col_of = planted_assignment(11, 7, 3)
        assert np.bincount(row_of).tolist() == list(partition_capacities(11, 3))
        assert np.bincount(col_of).tolist() == list(partition_capacities(7, 3))

    def test_same_seed_same_matrix(self):
        a = generate(6, 8, "uniform", seed=9)
        b = generate(6, 8, "uniform", seed=9)
        assert (a.data == b.data).all()

    def test_distribution_dispatch(self):
        assert generate(4, 4, "blockdiag:2", seed=0).data.shape == (4, 4)
        with pytest.raises(ValueError, match="unknown distribution"):
            generate(4, 4, "laplace", seed=0)
        with pytest.raises(ValueError, match="bad partition count"):
            generate(4, 4, "blockdiag:x", seed=0)
