import os

import numpy as np
import pytest

from forking import assert_no_child_left, count_forks, patch_cpus
from spinaccess.workers import in_order

#: Rows of each part: one row, lengths around the 64 KiB a Linux pipe holds
#: (24 bytes a row), and a part several times that.
PART_ROWS = [1, 2730, 2731, 17, 12000, 5, 2732, 3]


def float_part(i):
    """Part i: a C-contiguous (rows, 3) float array of its own length."""
    return np.random.default_rng(i).standard_normal((PART_ROWS[i], 3))


@pytest.mark.parametrize("cpus", [2, 3])
def test_in_order_hands_back_every_float_part_bit_for_bit(monkeypatch, cpus):
    # the parts a worker sends arrive whole, not by their first axis's length,
    # and each equals the one computed here
    patch_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    taken = []
    in_order(len(PART_ROWS), float_part,
             lambda i, part: taken.append((i, np.frombuffer(part).reshape(-1, 3).copy())),
             "test")
    assert len(forks) == cpus - 1
    assert_no_child_left()
    assert [i for i, _ in taken] == list(range(len(PART_ROWS)))
    for i, part in taken:
        assert part.tobytes() == float_part(i).tobytes(), i


def test_a_frame_cut_short_fails_its_worker(monkeypatch):
    # a worker that ends its pipe within a frame, here after a header for 100
    # bytes and 10 of them, has failed even where it exits 0
    patch_cpus(monkeypatch, 2)
    parent, ends = os.getpid(), []
    real_pipe = os.pipe

    def pipe():
        ends.append(real_pipe())
        return ends[-1]

    def work(i):
        if os.getpid() != parent:
            os.write(ends[-1][1], (100).to_bytes(8, "little") + bytes(10))
            os._exit(0)
        return float_part(i)

    monkeypatch.setattr(os, "pipe", pipe)
    taken = []
    with pytest.raises(RuntimeError, match=r"^1 of 1 test workers failed, exit codes \[0\]$"):
        in_order(4, work, lambda i, part: taken.append(i), "test")
    assert_no_child_left()
    assert taken == [0]
