"""Build a Dataset from (id, cdr3a, cdr3b, peptide, epitope_id, label) rows."""

from tcrselect.data import Dataset


def dataset_of(rows):
    """The checked Dataset of the rows, in order; no rows give an empty one."""
    return Dataset(*(tuple(zip(*rows)) or ((),) * 6))
