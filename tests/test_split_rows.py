"""``tables._rows_in_two``, the one routine through which the drop engine and
the beam pattern split their rows: the split array must be the serial one, a
job of one row must fork nothing, and a fill that fails in the helper's rows
must fail here with the same error."""
import numpy as np
import pytest

from fwcsim import tables
from fwcsim.errors import ValidationError
from test_beam_split import forks  # noqa: F401  (a fixture)
from test_drop_split import assert_no_child_left


def row_filler(cells, filled, bad=None):
    """A ``fill`` that writes row i from seed i and records each row it fills
    in this process (the helper's record stays in the helper)."""
    def fill(lo, hi):
        for i in range(lo, hi):
            if i == bad:
                raise ValidationError(f"row {i} fails")
            filled.append(i)
            cells[i] = np.random.default_rng(i).standard_normal(cells.shape[1:])
    return fill


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_split_rows_match_the_serial_array(forks, n):
    serial = np.empty((n, 2, 3))
    tables._rows_in_two(row_filler(serial, []), serial, False)
    assert forks == []
    cells, filled = np.empty((n, 2, 3)), []
    tables._rows_in_two(row_filler(cells, filled), cells, True)
    assert cells.view(np.uint64).tolist() == serial.view(np.uint64).tolist()
    # One row forks nothing; from two rows the helper fills rows n // 2 on.
    assert len(forks) == (n > 1)
    assert filled == list(range(n // 2 if n > 1 else n))
    assert_no_child_left()


def test_a_fill_failing_in_the_helpers_rows_raises_the_same_error_here(forks):
    cells = np.empty((7, 4))
    with pytest.raises(ValidationError, match="^row 5 fails$"):
        tables._rows_in_two(row_filler(cells, [], bad=5), cells, True)
    assert len(forks) == 1
    assert_no_child_left()
