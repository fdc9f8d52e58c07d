"""The four benchmark workloads: set-up, job lists and output checks.

A workload is built once by ``setup(name)`` and then yields its jobs one
cycle at a time with ``cycle(state, rng)``.  Every job is a pair
``(label, fn)``; ``fn()`` does the work, checks the answer against a
pinned value or an independent oracle and returns ``(ok, digest)``.
``digest`` is a short canonical text of the output, so a traced run can
be compared with an untraced one.

Which jobs start with a cold ``AlgebraDef`` (empty ``_pair_cache`` and
``_hat_cache``):

- ``centroid``: every job; the caches of the algebra are emptied before
  each solve, so a job does not profit from the previous one.
- ``axioms``: every job; each parses the shipped ``.csa`` text afresh.
- ``modes``: none; the algebras are built once in set-up and the bracket
  caches stay warm, as when a user explores one loop interactively.
- ``cli``: every job; each is a fresh ``python -m csalg.cli`` process.

``CycloField`` instances are interned for the whole process, so every
conductor a workload uses is built during set-up and counted in
``setup_s``.
"""

import math
import os
import selectors
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("centroid", "axioms", "modes", "cli")

#: Conductors lcm(24, 2n) used by the class-count jobs of ``modes``.
PGL2_ORDERS = range(1, 9)

#: Mode window of the spectrum and split-form jobs of ``modes``.
MODE_WINDOW = 6

#: The ``cli`` commands, run once per cycle: the README command list,
#: ``pgl2-classes 2`` for its pinned text, and the untwisted ``loop``.
#: Each comes with its check: a string is the exact expected stdout, a
#: list holds lines the stdout must contain.  The lines are derived by
#: hand from the algebra tables, not read back from the program.
#:
#: Five commands take about 48 ms (scaled) and the rest 55 ms or more.
#: With ten commands the median fell in the gap between the two groups
#: and jumped between ~49 and ~57 ms from run to run; the eleventh puts
#: it inside the upper group.
CLI_COMMANDS = [
    (["check", "n2.csa"],
     ["  CS4: pass (16 pairs)", "  CS5: pass (64 triples)"]),
    (["bracket", "n2.csa", "G+", "G-"], []),
    (["bracket", "n2.csa", "G+", "G-", "--n", "1"], "J\n"),
    (["hom", "n2.csa", "omega.csm"], ["  homomorphism: pass"]),
    (["loop", "n2.csa", "--auto", "omega", "--window", "3"],
     ["odd L0 fractional parts: {0, 1/2}"]),
    (["loop", "n2.csa", "--auto", "id", "--window", "3"],
     ["odd L0 fractional parts: {1/2}"]),
    (["alg", "n2.csa", "--auto", "id", "--bracket", "L[2] L[-1]"],
     "3*L[0]\n"),
    (["classify-n4", "--matrix", "zeta^6,0;0,-zeta^6"], ["class {-1, -1}"]),
    (["pgl2-classes", "4"], ["3 classes of order dividing 4:"]),
    (["pgl2-classes", "2"],
     "2 classes of order dividing 2:\n  {1, 1}\n  {-1, -1}\n"),
    (["centroid", "n2.csa", "--auto", "omega", "--window", "3",
      "--interior", "1"],
     ["3 centroid solutions on window 3 (interior 1):",
      "  r = t^{-1}", "  r = 1", "  r = t^{1}"]),
]


def child_env():
    """Environment for every ``csalg`` child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["NO_COLOR"] = "1"
    return env


def data_text(name):
    return (resources.files("csalg") / "data" / name).read_text()


# -- set-up -------------------------------------------------------------------


class State:
    """What a workload needs to run jobs; built by ``setup``."""

    def __init__(self, name):
        self.name = name
        self.cycle_index = 0
        #: Highest peak resident memory of a ``cli`` job child, in MB.
        self.child_peak_mb = 0.0


def setup(name):
    """Build the inputs of one workload; fields, algebras and loops."""
    if name not in WORKLOADS:
        raise ValueError("unknown workload %r" % name)
    state = State(name)
    if name == "cli":
        return state
    from csalg import parse_algebra, parse_morphism
    state.n2_text = data_text("n2.csa")
    state.n4_text = data_text("n4.csa")
    state.N2 = parse_algebra(state.n2_text)
    state.N4 = parse_algebra(state.n4_text)
    state.omega = parse_morphism(data_text("omega.csm"), state.N2)[1]
    if name == "centroid":
        _setup_centroid(state)
    elif name == "modes":
        _setup_modes(state)
    return state


def _n4_loop(state, x, order):
    from csalg import eigenspaces, n4_auto
    return eigenspaces(state.N4, n4_auto([[1, 0], [0, 1]], x, state.N4), order)


def _setup_centroid(state):
    from csalg import eigenspaces, identity_morphism
    N2 = state.N2
    n2_id = eigenspaces(N2, identity_morphism(N2), 1)
    n2_omega = eigenspaces(N2, state.omega, 2)
    n4_minus = _n4_loop(state, [[-1, 0], [0, -1]], 2)
    # (label, loop, window, interior, window-3 case pinned exactly)
    state.cases = [
        ("n2_id_w3", n2_id, 3, 1, True),
        ("n2_omega_w3", n2_omega, 3, 1, True),
        ("n2_omega_w5", n2_omega, 5, 2, False),
        ("n4_minus_w3", n4_minus, 3, 1, True),
    ]


def _setup_modes(state):
    from csalg import CycloField, eigenspaces, identity_morphism
    N2 = state.N2
    field = N2.field
    i4 = field.root_of_unity(4)
    z3 = field.root_of_unity(3)
    half = Fraction(1, 2)
    # (label, loop, pinned fractional parts of the odd L_1 spectrum)
    state.loops = [
        ("n2_id", eigenspaces(N2, identity_morphism(N2), 1), {half}),
        ("n2_omega", eigenspaces(N2, state.omega, 2), {Fraction(0), half}),
        ("n4_I", _n4_loop(state, [[1, 0], [0, 1]], 1), {half}),
        ("n4_-I", _n4_loop(state, [[-1, 0], [0, -1]], 2), {Fraction(0)}),
        ("n4_z3", _n4_loop(state, [[z3, 0], [0, z3 ** 2]], 3),
         {Fraction(1, 6), Fraction(5, 6)}),
        ("n4_i", _n4_loop(state, [[i4, 0], [0, -i4]], 4),
         {Fraction(1, 4), Fraction(3, 4)}),
    ]
    state.mode_vectors = {}
    for label, loop, _ in state.loops:
        A = loop.base
        vecs = []
        for res, piece in enumerate(loop.eigenbasis):
            for v in piece:
                vecs.append((res, v, A.homogeneous_parity(v)))
        state.mode_vectors[label] = vecs
    state.pgl2_fields = {n: CycloField.get(math.lcm(24, 2 * n))
                         for n in PGL2_ORDERS}


# -- job lists ---------------------------------------------------------------


def cycle(state, rng):
    """The jobs of the next cycle, in an order drawn from ``rng``."""
    jobs = _JOB_LISTS[state.name](state, rng)
    state.cycle_index += 1
    rng.shuffle(jobs)
    return jobs


def run_job(fn):
    """Run one job; an exception counts as a failed job, not a crash."""
    try:
        ok, digest = fn()
    except Exception as err:  # a job that raises is a failed job
        return False, "error: %s: %s" % (type(err).__name__, err)
    return bool(ok), digest


def _centroid_jobs(state, rng):
    return [(case[0], (lambda case=case: _centroid_job(*case[1:])))
            for case in state.cases]


def _centroid_job(loop, window, interior, exact):
    from csalg import centroid_basis, is_scalar_action
    A = loop.base
    A._pair_cache.clear()
    A._hat_cache.clear()
    solutions = centroid_basis(loop, window, interior)
    one = A.field.one()
    exponents = []
    for chi in solutions:
        r = is_scalar_action(chi)
        if r is None or len(r.terms) != 1:
            return False, "non-monomial solution"
        ((q, c),) = r.terms.items()
        if c != one:
            return False, "non-monic solution %s" % r
        exponents.append(q)
    got = set(exponents)
    ok = len(got) == len(exponents) and {-1, 0, 1} <= got
    if exact:
        ok = ok and got == {-1, 0, 1}
    entries = sum(len(chi.entries) for chi in solutions)
    return ok, "t^%s entries=%d" % (sorted(exponents), entries)


def _axioms_jobs(state, rng):
    return [
        ("n2", (lambda s=rng.randrange(2 ** 31):
                _axioms_job(state.n2_text, s, "16 pairs", "64 triples"))),
        ("n4", (lambda s=rng.randrange(2 ** 31):
                _axioms_job(state.n4_text, s, "64 pairs", "512 triples"))),
        ("n2_mutated", (lambda s=rng.randrange(2 ** 31):
                        _mutated_job(state.n2_text, s))),
    ]


def _axioms_job(text, seed, pairs, triples):
    from csalg import check_axioms, parse_algebra
    report = check_axioms(parse_algebra(text), seed=seed)
    ok = (report.ok and report.counts["CS4"] == pairs
          and report.counts["CS5"] == triples)
    return ok, str(report)


def _mutated_job(text, seed):
    """The acceptance test's mutation: [L lambda L] gets 3L for 2L."""
    from csalg import AlgebraDef, LambdaPoly, check_axioms, parse_algebra
    A = parse_algebra(text)
    table = dict(A.table)
    old = table[(0, 0)]
    table[(0, 0)] = LambdaPoly(A.field, {0: old.coeffs[0],
                                         1: A.elt("L", coeff=3)})
    report = check_axioms(AlgebraDef("N2mut", A.field, A.generators, table),
                          seed=seed)
    return report.verdicts["CS4"] is False and not report.ok, str(report)


def _modes_jobs(state, rng):
    jobs = []
    for label, loop, pinned in state.loops:
        vecs = state.mode_vectors[label]
        for k in range(8):
            a = _draw_mode(loop, vecs, rng)
            b = _draw_mode(loop, vecs, rng)
            jobs.append(("bracket:%s" % label,
                         lambda loop=loop, a=a, b=b: _bracket_job(loop, a, b)))
        for parity in ("odd", "even"):
            jobs.append(("l0_%s:%s" % (parity, label),
                         lambda loop=loop, parity=parity, pinned=pinned:
                         _spectrum_job(loop, parity, pinned)))
        jobs.append(("split:%s" % label, lambda loop=loop: _split_job(loop)))
    for n in PGL2_ORDERS:
        jobs.append(("pgl2:%d" % n,
                     lambda n=n: _pgl2_job(n, state.pgl2_fields[n])))
    return jobs


def _draw_mode(loop, vecs, rng):
    res, v, parity = vecs[rng.randrange(len(vecs))]
    mu = Fraction(res, loop.order) + rng.randrange(-3, 4)
    return v, mu, parity


def _bracket_job(loop, a, b):
    """[x, y] and [y, x] must obey super skew-symmetry."""
    from csalg import AlgElt, ODD, alg_bracket
    (va, mua, pa), (vb, mub, pb) = a, b
    x = AlgElt(loop, {(g, mua): c for (g, _, _), c in va.terms.items()})
    y = AlgElt(loop, {(g, mub): c for (g, _, _), c in vb.terms.items()})
    xy = alg_bracket(loop, x, y)
    yx = alg_bracket(loop, y, x)
    sign = 1 if pa == ODD and pb == ODD else -1
    return xy == yx.scale(sign), str(xy)


def _spectrum_job(loop, parity, pinned):
    """The L_1 spectrum against the weight formula h - 1 - mu.

    [L_1, v_mu] = (h - 1 - mu) v_mu for a generator of weight h, so the
    oracle needs only the eigenbasis weights and the mode window.
    """
    from csalg import EVEN, ODD, l0_spectrum
    A = loop.base
    want = set()
    for res, piece in enumerate(loop.eigenbasis):
        for v in piece:
            if A.homogeneous_parity(v) != (ODD if parity == "odd" else EVEN):
                continue
            weights = {A.generators[g].weight for (g, _, _) in v.terms}
            if len(weights) != 1:
                return False, "eigenvector of mixed weight"
            (h,) = weights
            start = Fraction(res, loop.order)
            for k in range(-MODE_WINDOW - 1, MODE_WINDOW + 1):
                mu = start + k
                if -MODE_WINDOW <= mu <= MODE_WINDOW:
                    want.add(h - 1 - mu)
    got = l0_spectrum(loop, parity, MODE_WINDOW)
    ok = got.eigenvalues == want
    if parity == "odd":
        ok = ok and got.fractional_parts == pinned
    return ok, repr(got)


def _split_job(loop):
    from csalg import split_check
    report = split_check(loop, MODE_WINDOW)
    return report.bijective and not report.missed, str(report)


def _pgl2_job(n, field):
    """Class count n//2 + 1, and the classes against a brute enumeration."""
    from csalg import n4_invariant, pgl2_classes
    step = field.conductor // (2 * n)
    zero = field.zero()
    found = set()
    for k in range(2 * n):
        lam = field.zeta(step * k)
        lam_inv = field.zeta(-step * k)
        found.add(n4_invariant([[lam, zero], [zero, lam_inv]], field=field))
        if n % 2 == 0:
            found.add(n4_invariant([[zero, lam], [-lam_inv, zero]],
                                   field=field))
    classes = pgl2_classes(n, field=field)
    ok = len(classes) == n // 2 + 1 and found == set(classes)
    return ok, " ".join(str(c) for c in classes)


def _cli_jobs(state, rng):
    return [(argv[0],
             (lambda argv=argv, want=want: cli_job(state, argv, want)))
            for argv, want in CLI_COMMANDS]


def cli_command(argv):
    return [sys.executable, "-m", "csalg.cli"] + list(argv)


def run_child(args, timeout=170):
    """Run one child to completion.

    Returns ``(wall_s, returncode, stdout, stderr, peak_rss_mb)``.  The
    child is reaped with ``os.wait4``, so its peak resident memory is its
    own and not the maximum over every child this process has reaped.
    ``timeout=None`` waits as long as the child runs.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(args, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as selector:
        for pipe in chunks:
            selector.register(pipe, selectors.EVENT_READ)
        while selector.get_map():
            left = None if timeout is None else t0 + timeout - perf_counter()
            if left is not None and left <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in selector.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if timed_out:
        raise subprocess.TimeoutExpired(args, timeout)
    out, err = (b"".join(chunks[pipe]).decode() for pipe in
                (proc.stdout, proc.stderr))
    return wall, proc.returncode, out, err, usage.ru_maxrss / 1024


def cli_job(state, argv, want):
    """Run one ``csalg`` command in a fresh process and check its output.

    The child's peak resident memory raises ``state.child_peak_mb``.
    """
    _, code, out, _, peak_mb = run_child(cli_command(argv))
    state.child_peak_mb = max(state.child_peak_mb, peak_mb)
    return cli_verdict(want, code, out), out


def cli_verdict(want, code, out):
    if code != 0:
        return False
    if isinstance(want, str):
        return out == want
    lines = out.splitlines()
    return all(line in lines for line in want)


_JOB_LISTS = {
    "centroid": _centroid_jobs,
    "axioms": _axioms_jobs,
    "modes": _modes_jobs,
    "cli": _cli_jobs,
}
