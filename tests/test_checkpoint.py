"""Checkpoint format: bit-exact round trips and corruption diagnostics."""

import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from condkd.checkpoint import (
    CheckpointError,
    group_state,
    load_checkpoint,
    load_group,
    save_checkpoint,
)
from condkd.tensor import ParamGroup, Tensor


def sample_state():
    rng = np.random.default_rng(0)
    return {
        "scalar": np.array(3.25),
        "vector": rng.normal(size=7),
        "matrix": rng.normal(size=(4, 5)),
        "cube": rng.normal(size=(2, 3, 4)),
    }


class TestRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        state = sample_state()
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(state)
        for name in state:
            assert loaded[name].shape == state[name].shape
            np.testing.assert_array_equal(loaded[name], state[name])

    def test_empty_checkpoint(self, tmp_path):
        path = str(tmp_path / "empty.ckpt")
        save_checkpoint(path, {})
        assert load_checkpoint(path) == {}

    def test_noncontiguous_array(self, tmp_path):
        path = str(tmp_path / "t.ckpt")
        arr = np.arange(24.0).reshape(4, 6)[:, ::2]
        save_checkpoint(path, {"x": arr})
        np.testing.assert_array_equal(load_checkpoint(path)["x"], arr)

    def test_double_save_identical_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "1.ckpt"), str(tmp_path / "2.ckpt")
        state = sample_state()
        save_checkpoint(p1, state)
        save_checkpoint(p2, state)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        with open(path, "wb") as f:
            f.write(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path = str(tmp_path / "v.ckpt")
        with open(path, "wb") as f:
            f.write(b"ICDC" + (99).to_bytes(4, "little") + (0).to_bytes(4, "little"))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(path)

    def test_version_1_file_is_rejected(self, tmp_path):
        # version 1 held one f_k/f_v/f_q projection per decoder head
        path = tmp_path / "v1.ckpt"
        save_checkpoint(str(path), {"decoder.dec0.h0.f_k.w": np.zeros((2, 4))})
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version 1 at offset 4"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("keep", [2, 10, 13, 20, 40])
    def test_truncation_reports_offset(self, tmp_path, keep):
        path = str(tmp_path / "t.ckpt")
        save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3)})
        blob = open(path, "rb").read()
        assert keep < len(blob)
        with open(path, "wb") as f:
            f.write(blob[:keep])
        with pytest.raises(CheckpointError, match="offset"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = str(tmp_path / "t.ckpt")
        save_checkpoint(path, {"w": np.zeros(2)})
        with open(path, "ab") as f:
            f.write(b"xx")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)


    @staticmethod
    def two_tensor_blob(tmp_path):
        """A checkpoint holding "w" then "v", and the offset of "v"'s name."""
        path = str(tmp_path / "two.ckpt")
        save_checkpoint(path, {"w": np.arange(3.0), "v": np.ones(2)})
        second_name = 12 + (2 + 1 + 1 + 4 + 3 * 8) + 2
        return path, bytearray(open(path, "rb").read()), second_name

    def test_duplicate_name_reports_offset(self, tmp_path):
        path, blob, off = self.two_tensor_blob(tmp_path)
        assert blob[off:off + 1] == b"v"
        blob[off] = ord("w")
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match=f"duplicate tensor name 'w' at offset {off}"):
            load_checkpoint(path)

    def test_non_utf8_name_reports_offset(self, tmp_path):
        path, blob, off = self.two_tensor_blob(tmp_path)
        blob[off] = 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match=f"not UTF-8 at offset {off}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_reports_offset(self, tmp_path, value):
        # save_checkpoint refuses non-finite arrays, so the bad value is
        # written over the third element of a finite checkpoint
        path = str(tmp_path / "nan.ckpt")
        save_checkpoint(path, {"w": np.array([0.0, 1.0, 2.0])})
        off = 12 + 2 + 1 + 1 + 4 + 2 * 8
        blob = bytearray(open(path, "rb").read())
        blob[off:off + 8] = np.array([value], dtype="<f8").tobytes()
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match=f"non-finite value in w at offset {off}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_save_raises_and_keeps_the_old_file(self, tmp_path, value):
        path = str(tmp_path / "keep.ckpt")
        save_checkpoint(path, {"w": np.zeros(2)})
        before = open(path, "rb").read()
        with pytest.raises(CheckpointError, match="non-finite value in v"):
            save_checkpoint(path, {"w": np.ones(2), "v": np.array([[1.0, value]])})
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["keep.ckpt"]

    def test_failed_save_leaves_the_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = str(tmp_path / "keep.ckpt")
        save_checkpoint(path, {"w": np.zeros(2)})
        before = open(path, "rb").read()

        def broken_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk gone"):
            save_checkpoint(path, {"w": np.ones(5)})
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["keep.ckpt"]


names = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
finite_arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=4),
                           elements=st.floats(allow_nan=False, allow_infinity=False))
states = st.dictionaries(names, finite_arrays, max_size=4)


class TestFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(state=states)
    def test_round_trip_is_exact_and_resave_identical(self, tmp_path, state):
        path = str(tmp_path / "f.ckpt")
        save_checkpoint(path, state)
        blob = open(path, "rb").read()
        loaded = load_checkpoint(path)
        assert list(loaded) == list(state)
        for name, arr in state.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == np.ascontiguousarray(arr).tobytes()
        save_checkpoint(path, loaded)
        assert open(path, "rb").read() == blob

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(state=states, data=st.data())
    def test_mutated_bytes_load_or_raise_checkpoint_error(self, tmp_path, state, data):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, state)
        blob = bytearray(open(path, "rb").read())
        cut = data.draw(st.integers(0, len(blob)), label="keep")
        edits = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                             st.integers(0, 255)), max_size=3), label="edits")
        for pos, byte in edits:
            blob[pos] = byte
        open(path, "wb").write(bytes(blob[:cut]))
        try:
            loaded = load_checkpoint(path)
        except CheckpointError:
            return
        assert all(np.all(np.isfinite(v)) for v in loaded.values())
        assert len(set(loaded)) == len(loaded)


class TestGroupBridge:
    def make_group(self):
        g = ParamGroup("student")
        rng = np.random.default_rng(1)
        g.add("a.w", rng.normal(size=(3, 3)))
        g.add("a.b", rng.normal(size=3))
        return g

    def test_state_save_load_into_fresh_group(self, tmp_path):
        g = self.make_group()
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(path, group_state(g))
        g2 = self.make_group()
        for _, p in g2.named():
            p.data[...] = 0.0
        load_group(g2, load_checkpoint(path))
        for (_, p), (_, q) in zip(g.named(), g2.named()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_load_rejects_name_mismatch(self):
        g = self.make_group()
        state = group_state(g)
        del state["a.b"]
        state["zzz"] = np.zeros(1)
        with pytest.raises(CheckpointError, match="missing.*a.b"):
            load_group(g, state)

    def test_load_rejects_shape_mismatch(self):
        g = self.make_group()
        state = group_state(g)
        state["a.b"] = np.zeros(5)
        with pytest.raises(CheckpointError, match="shape mismatch"):
            load_group(g, state)
