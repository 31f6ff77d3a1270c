"""Dense/sparse linear algebra, a reverse-mode tape, Adam and the training
loop."""

from .optim import adam_step, fit
from .sparse import EdgePattern, SparseMatrix, edge_update, spmm
from .tensor import (
    Tensor,
    backward,
    class_means,
    gather_rows,
    lowrank_layer,
    matmul,
    peak_tape_bytes,
    prompt_cosines,
    prompt_nll,
    relu,
    row_cosine_sim,
    rowwise_cosine_sim,
    scatter_rows,
    softmax_nll,
    triplet_nll,
)

__all__ = [
    "EdgePattern",
    "SparseMatrix",
    "Tensor",
    "adam_step",
    "backward",
    "class_means",
    "edge_update",
    "fit",
    "gather_rows",
    "lowrank_layer",
    "matmul",
    "peak_tape_bytes",
    "prompt_cosines",
    "prompt_nll",
    "relu",
    "row_cosine_sim",
    "rowwise_cosine_sim",
    "scatter_rows",
    "softmax_nll",
    "spmm",
    "triplet_nll",
]
