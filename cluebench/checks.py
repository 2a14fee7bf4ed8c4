"""Output checks. Each returns a list of problems (empty = pass). Known
defects of the package (checkpoint and trace round trips) come back as
counts, never as problems."""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from cluenet import gfc, icp, interpret
from cluenet import tensor as T

from . import model

GOLDEN_SEED = 2512      # fixed input of the golden and finite-difference checks
GOLDEN_RTOL = 1e-8      # float64 against float64: only summation order may differ
# float32 against a float64 re-run with the same hard assignments. Seen at
# this commit: at most 1.4e-7 on logits, stage outputs and centers and 2.8e-7
# on the input gradient (`tiny`, B=1); a float32-only float16 softmax or
# cosine_sim, or a tanh GELU on `small`, gives 6e-7 to 2e-5.
F64_RTOL = 5e-7
F64_GRAD_RTOL = 1e-4    # parameter gradients; seen at most 9e-6
# Share of a step's hard choices that float64 may make differently. Only
# near ties flip: on `small`, 4 of about 710,000 choices over 120 steps.
MAX_FLIP_SHARE = 1e-3
FD_STEP = 1e-7          # larger steps flip hard assignments on `small`
FD_RTOL = 1e-4


def golden_path(preset: model.Preset) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), f"golden_{preset.name}.npz")


def golden_inputs(preset: model.Preset):
    rng = np.random.default_rng(GOLDEN_SEED)
    x = rng.uniform(0.0, 1.0, (1, preset.image, preset.image, 3))
    return x, rng.integers(0, preset.classes, 1)


def rel_err(a, b, floor: float = 1e-30) -> float:
    """Normwise relative error of ``a`` against the reference ``b``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), floor))


def write_golden(net64: model.Net) -> str:
    """Store the golden of ``net64`` next to this file. Only for a deliberate
    change of the network's numerics, from the repository root:

        python3 -c 'import numpy as np; from cluebench import checks as c, model as m; c.write_golden(m.cast(m.build(m.SMALL), np.float64))'
    """
    x, labels = golden_inputs(net64.preset)
    _, logits, dx, _ = model.train_step(net64, x, labels)
    path = golden_path(net64.preset)
    np.savez(path, logits=logits, dx=dx)
    return path


def check_golden(net64: model.Net) -> list[str]:
    """float64 logits and input gradient against the stored golden."""
    x, labels = golden_inputs(net64.preset)
    _, logits, dx, _ = model.train_step(net64, x, labels)
    with np.load(golden_path(net64.preset)) as g:
        errs = {"logits": rel_err(logits, g["logits"]), "input gradient": rel_err(dx, g["dx"])}
    return [f"golden {k}: relative error {e:.3e} > {GOLDEN_RTOL:g}"
            for k, e in errs.items() if not e <= GOLDEN_RTOL]


def assignment_flips(a: model.Record, b: model.Record) -> int:
    """HardAssignment.cols and PoolAssignment.owner entries that differ."""
    flips = sum(int((s.assignment.cols != t.assignment.cols).sum()) for s, t in zip(a.states, b.states))
    return flips + sum(int((p.owner != q.owner).sum()) for p, q in zip(a.pools, b.pools))


def check_fd(net64: model.Net) -> tuple[list[str], float]:
    """Directional central difference of the loss along one joint seeded
    direction in the input and every parameter, against the analytic
    gradients. The check is only valid if no hard assignment flips between
    the base and the +-h forwards, so a flip is a problem too.
    Returns (problems, relative error)."""
    x, labels = golden_inputs(net64.preset)
    params = net64.params()
    rng = np.random.default_rng(GOLDEN_SEED + 1)
    vx = rng.standard_normal(x.shape)
    vps = [rng.standard_normal(p.shape) for p in params]
    norm = np.sqrt((vx * vx).sum() + sum((v * v).sum() for v in vps))
    vx /= norm
    vps = [v / norm for v in vps]

    _, _, dx, rec0 = model.train_step(net64, x, labels)
    analytic = float((dx * vx).sum() + sum((p.grad * v).sum() for p, v in zip(params, vps)))
    orig = [p.value for p in params]

    def loss_at(sign):
        for p, v, o in zip(params, vps, orig):
            p.value = o + sign * FD_STEP * v
        try:
            logits, rec, _ = model.forward(net64, x + sign * FD_STEP * vx)
        finally:
            for p, o in zip(params, orig):
                p.value = o
        return model.xent(logits, labels)[0], rec

    lp, rec_p = loss_at(1.0)
    lm, rec_m = loss_at(-1.0)
    fd = (lp - lm) / (2.0 * FD_STEP)
    err = abs(fd - analytic) / max(abs(analytic), 1e-12)
    problems = []
    flips = assignment_flips(rec0, rec_p) + assignment_flips(rec0, rec_m)
    if flips:
        problems.append(f"finite difference: {flips} assignments flipped at h={FD_STEP:g}")
    if not err <= FD_RTOL:
        problems.append(f"finite difference: relative error {err:.3e} > {FD_RTOL:g} "
                        f"(analytic {analytic:.6e}, central {fd:.6e})")
    return problems, err


def finite_problems(**arrays) -> list[str]:
    return [f"non-finite {k}" for k, v in arrays.items()
            if v is not None and not np.all(np.isfinite(v))]


@contextmanager
def forced_assignments(net: model.Net, rec: model.Record):
    """Make the next forward of ``net`` take its hard choices from ``rec``:
    the owner blocks' HardAssignment.cols stage by stage, and the icp
    transitions' PoolAssignment.owner. Yields a list that receives, per
    choice, how many entries the forward would have chosen differently.

    gfc.compute_assignment is replaced by a copy whose argmax is the given
    columns; icp's partition step returns the given owners.
    """
    cols = iter([st.assignment.cols for st in rec.states])
    owners = iter([p.owner for p, t in zip(rec.pools, net.transitions)
                   if isinstance(t, icp.IcpParams)])
    flips: list[int] = []
    real_assignment, real_partition = gfc.compute_assignment, icp._partition

    def compute_assignment(p_s, q, alpha, beta):
        sim, back_sim = T.cosine_sim(p_s, q)
        s_p, back_sig = T.sigmoid(alpha * sim + beta)
        c = next(cols)
        flips.append(int((np.argmax(s_p, axis=-1) != c).sum()))
        weights = np.take_along_axis(s_p, c[..., None], axis=-1)[..., 0]

        def backward(d_weights):
            d_sp = np.zeros_like(s_p)
            np.put_along_axis(d_sp, c[..., None], d_weights[..., None], axis=-1)
            d_z = back_sig(d_sp)
            d_ps, d_q = back_sim(d_z * alpha)
            return d_ps, d_q, float((d_z * sim).sum()), float(d_z.sum())

        return gfc.HardAssignment(c, weights, m=s_p.shape[-1]), backward

    def partition(s_flat, seeds):
        o = next(owners)
        flips.append(int((real_partition(s_flat, seeds) != o).sum()))
        return o

    gfc.compute_assignment, icp._partition = compute_assignment, partition
    try:
        yield flips
    finally:
        gfc.compute_assignment, icp._partition = real_assignment, real_partition


def compare_f64(net64: model.Net, x, labels, out32: dict, backward: bool) -> tuple[list[str], int]:
    """Re-run one step in float64 on the same weights, with the float32
    step's hard assignments forced, and compare.

    ``out32`` holds the float32 step's logits, Record, and for training its
    input and parameter gradients. Dtypes are not asserted: icp returns
    float64 today. Returns (problems, flips), where flips counts the
    assignments float64 would have chosen differently: near ties flip a
    few, a share above MAX_FLIP_SHARE is a problem.
    """
    x64 = np.asarray(x, dtype=np.float64)
    rec32 = out32["rec"]
    with forced_assignments(net64, rec32) as flips:
        if backward:
            _, logits, dx, rec = model.train_step(net64, x64, labels)
        else:
            logits, rec, _ = model.forward(net64, x64)
    problems = []
    if assignment_flips(rec32, rec):
        problems.append("float64 re-run did not take the float32 assignments")
    total = sum(st.assignment.cols.size for st in rec.states) + sum(
        p.owner.size for p, t in zip(rec.pools, net64.transitions) if isinstance(t, icp.IcpParams))
    if sum(flips) > MAX_FLIP_SHARE * total:
        problems.append(f"float32 vs float64: {sum(flips)} of {total} assignments flipped, "
                        f"more than {MAX_FLIP_SHARE:g} of them")
    errs = {"logits": rel_err(out32["logits"], logits)}
    for s, (a, b) in enumerate(zip(rec32.stage_outs, rec.stage_outs), start=1):
        errs[f"stage {s} output"] = rel_err(a, b)
    for s, (a, b) in enumerate(zip(rec32.states, rec.states), start=1):
        errs[f"stage {s} centers"] = rel_err(a.centers_v, b.centers_v)
    if backward:
        errs["input gradient"] = rel_err(out32["dx"], dx)
    problems += [f"float32 vs float64 {k}: relative error {e:.3e} > {F64_RTOL:g}"
                 for k, e in errs.items() if not e <= F64_RTOL]
    if backward:
        scale = max(np.linalg.norm(p.grad) for p in net64.params())
        for p, g32 in zip(net64.params(), out32["grads"]):
            e = rel_err(g32, p.grad, 1e-6 * scale)
            if not e <= F64_GRAD_RTOL:
                problems.append(f"float32 vs float64 gradient of {p.name}: "
                                f"relative error {e:.3e} > {F64_GRAD_RTOL:g}")
    return problems, sum(flips)


def check_explain(ex, ppm_path) -> tuple[list[str], int]:
    """Receptive fields partition the image for every stage and head; the
    trace's cols, owner and centers round-trip exactly; the written PPM
    reads back as the returned overlay. Returns (problems, pools whose
    ``m`` changed in the trace round trip)."""
    bundle, back = ex.bundle, ex.trace_back
    npix = bundle.image_hw[0] * bundle.image_hw[1]
    problems = []
    for s, (st,) in enumerate(bundle.states):
        for h in range(st.heads):
            sets = [ex.maps[s, h, c] for c in range(st.assignment.m)]
            total = sum(len(v) for v in sets)
            covered = len(set().union(*sets))
            if total != npix or covered != npix:
                problems.append(f"stage {s + 1} head {h}: receptive fields cover {covered} "
                                f"pixels with {total} memberships, expected a partition of {npix}")
        got = back.states[s][0]
        if not np.array_equal(got.assignment.cols, st.assignment.cols):
            problems.append(f"trace stage {s + 1}: cols changed in the round trip")
        if got.centers_v.tobytes() != st.centers_v.astype(np.float32).tobytes():
            problems.append(f"trace stage {s + 1}: centers changed in the round trip")
    m_mismatch = 0
    for k, (p, q) in enumerate(zip(bundle.pools, back.pools)):
        if not np.array_equal(p.owner, q.owner):
            problems.append(f"trace pool {k + 1}: owner changed in the round trip")
        m_mismatch += int(p.m != q.m)
    if not np.array_equal(interpret.read_ppm(ppm_path), ex.rendered):
        problems.append("overlay PPM does not read back as the rendered array")
    return problems, m_mismatch
