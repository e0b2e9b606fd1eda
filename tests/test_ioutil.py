import pytest

from stgno.ioutil import atomic_writer


def _raise_inside(path):
    with pytest.raises(RuntimeError, match="boom"):
        with atomic_writer(path) as fh:
            fh.write(b"partial")
            raise RuntimeError("boom")


def test_atomic_writer_leaves_no_temp_file_when_the_block_raises(tmp_path):
    # a new target: neither it nor the temp file appears
    _raise_inside(tmp_path / "x.npz")
    assert list(tmp_path.iterdir()) == []
    # an existing target keeps its bytes
    path = tmp_path / "y.json"
    path.write_bytes(b"kept\n")
    _raise_inside(path)
    assert path.read_bytes() == b"kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["y.json"]
