import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from wvdnet.ioutil import atomic_write_bytes, atomic_writer
from wvdnet.neuralnet import Network, reference_config, save_checkpoint


def test_two_writers_to_one_path_leave_one_whole_payload(tmp_path):
    target = tmp_path / "shared.bin"
    payloads = [bytes([i]) * (1 << 20) for i in (1, 2)]

    def write_many(payload):
        for _ in range(20):
            atomic_write_bytes(target, payload)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(write_many, p) for p in payloads]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert target.read_bytes() in payloads
    assert [p.name for p in tmp_path.iterdir()] == ["shared.bin"]


def test_write_into_a_missing_directory_creates_it(tmp_path):
    target = tmp_path / "new" / "nested" / "out.bin"
    atomic_write_bytes(target, b"payload")
    assert target.read_bytes() == b"payload"
    assert [p.name for p in target.parent.iterdir()] == ["out.bin"]


def test_failed_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        atomic_write_bytes(target, b"payload")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []


def test_checkpoint_save_that_raises_mid_file_leaves_no_file(tmp_path):
    net = Network(reference_config((1, 16, 16), 3))
    net.layers[11].weight[3, 5] = np.nan  # fc1, after the conv tensors are written
    target = tmp_path / "model.wvdn"
    with pytest.raises(ValueError, match="non-finite network: layer 11 weight"):
        with atomic_writer(target) as handle:
            save_checkpoint(net, handle)
    assert list(tmp_path.iterdir()) == []
