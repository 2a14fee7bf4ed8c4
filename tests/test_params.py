"""Parameter containers: the names and order ``params()`` lists, and the
sizes each container reads from its arrays.

The name lists are contracts: checkpoint entries and any pairing of two
networks' parameters follow this order.
"""

import numpy as np
import pytest

from cluenet import gfc, icp, pfe
from cluenet import tensor as T

OWNER_ALL_FLAGS = [
    "b.norm1_g", "b.norm1_b", "b.w_s", "b.b_s", "b.w_v", "b.b_v", "b.tau_raw",
    "b.gate.w1", "b.gate.b1", "b.gate.w2", "b.gate.b2", "b.w_q", "b.alpha", "b.beta",
    "b.fc_out", "b.b_out", "b.norm2_g", "b.norm2_b",
    "b.ffn_w1", "b.ffn_b1", "b.ffn_dw", "b.ffn_w2", "b.ffn_b2",
]
CONSUMER_NO_FA = [
    "b.norm1_g", "b.norm1_b", "b.w_v", "b.b_v", "b.fc_out", "b.b_out", "b.norm2_g", "b.norm2_b",
    "b.ffn_w1", "b.ffn_b1", "b.ffn_dw", "b.ffn_w2", "b.ffn_b2",
]
CONSUMER_ALL_FLAGS = [
    "b.norm1_g", "b.norm1_b", "b.w_s", "b.b_s", "b.w_v", "b.b_v", "b.tau_raw",
    "b.gate.w1", "b.gate.b1", "b.gate.w2", "b.gate.b2",
    "b.fc_out", "b.b_out", "b.norm2_g", "b.norm2_b",
    "b.ffn_w1", "b.ffn_b1", "b.ffn_dw", "b.ffn_w2", "b.ffn_b2",
]
OWNER_NO_TCOS = [
    "b.norm1_g", "b.norm1_b", "b.w_s", "b.b_s", "b.w_v", "b.b_v",
    "b.gate.w1", "b.gate.b1", "b.gate.w2", "b.gate.b2", "b.w_q", "b.alpha", "b.beta",
    "b.fc_out", "b.b_out", "b.norm2_g", "b.norm2_b",
    "b.ffn_w1", "b.ffn_b1", "b.ffn_dw", "b.ffn_w2", "b.ffn_b2",
]
CONSUMER_NO_TCOS = [
    "b.norm1_g", "b.norm1_b", "b.w_s", "b.b_s", "b.w_v", "b.b_v",
    "b.gate.w1", "b.gate.b1", "b.gate.w2", "b.gate.b2",
    "b.fc_out", "b.b_out", "b.norm2_g", "b.norm2_b",
    "b.ffn_w1", "b.ffn_b1", "b.ffn_dw", "b.ffn_w2", "b.ffn_b2",
]
OWNER_NO_FA = [
    "b.norm1_g", "b.norm1_b", "b.w_s", "b.b_s", "b.w_v", "b.b_v", "b.w_q", "b.alpha", "b.beta",
    "b.fc_out", "b.b_out", "b.norm2_g", "b.norm2_b",
    "b.ffn_w1", "b.ffn_b1", "b.ffn_dw", "b.ffn_w2", "b.ffn_b2",
]


def names(p):
    return [q.name for q in p.params()]


@pytest.mark.parametrize("fa, owns, want", [   # tcos is on exactly when want holds b.tau_raw
    (True, True, OWNER_ALL_FLAGS), (False, False, CONSUMER_NO_FA),
    (True, False, CONSUMER_ALL_FLAGS), (True, True, OWNER_NO_TCOS),
    (True, False, CONSUMER_NO_TCOS), (False, True, OWNER_NO_FA)])
def test_block_params_names_and_sizes(fa, owns, want):
    """Every block layout (fa with tcos, fa without, no fa) x (owner, consumer)."""
    flags = gfc.BlockFlags(fa=fa, tcos="b.tau_raw" in want)
    p = gfc.make_gfc_params(np.random.default_rng(0), 8, 12, 2, (2, 2), flags, owns, name="b")
    assert names(p) == want
    assert (p.d, p.dp, p.flags, p.owns_assignment) == (8, 12, flags, owns)


def test_icp_params_names_and_sizes():
    p = icp.make_icp_params(np.random.default_rng(0), 4, 6, name="t")
    assert names(p) == ["t.norm_g", "t.norm_b", "t.proj_f",
                        "t.proj_v1.w", "t.proj_v1.b", "t.proj_v2.w", "t.proj_v2.b"]
    assert (p.d_in, p.d_out) == (4, 6)


def test_linear_transition_params_names_and_sizes():
    p = icp.make_linear_transition(np.random.default_rng(0), 4, 6, name="t")
    assert names(p) == ["t.norm_g", "t.norm_b", "t.w", "t.b"]
    assert (p.d_in, p.d_out) == (4, 6)


def test_patch_embed_params_names():
    zeros = lambda name, shape: T.Parameter(name, np.zeros(shape))
    p = pfe.PatchEmbedParams(zeros("stem.weight", (2, pfe.PATCH, pfe.PATCH, 5)),
                             zeros("stem.bias", 2), zeros("stem.dw", (3, 3, 2)))
    assert names(p) == ["stem.weight", "stem.bias", "stem.dw"]


def test_parameter_stores_a_c_contiguous_array_and_keeps_0d():
    assert T.Parameter("w", np.arange(6.0).reshape(2, 3).T).value.flags.c_contiguous
    assert T.Parameter("s", np.float64(2.0)).value.shape == ()
