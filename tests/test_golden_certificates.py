"""Every certificate value, hashed and pinned.

The full triple (u, v, lam), the reduced multiplier and the dual optimum
are each one basic solution of a linked-multiplier program, so a change in
how that program is assembled (a permuted column, a reordered row block)
can move the certificate while every verdict stays the same. This test
hashes every value the three searches return, on the polyhedral gallery
instances (g1 and g3; g2 solves no program) and on a seeded pool of
feasible, infeasible and equality-pinned random instances, and compares
the hash with the one the code produced when it was recorded.

To re-record after an intended change of certificates, print `_digest()[0]`
and replace GOLDEN, saying in the change why the certificates moved.
"""

import functools
import hashlib
import random

from farkaskit import duality, engine, gallery, instances
from farkaskit.calculus import PiecewiseAffine
from farkaskit.engine import FarkasInstance
from farkaskit.rational import Q, scalar_text
from farkaskit.sets import Polyhedron

GOLDEN = "d985370951019f02919ffcbe6110d738699bac636110162e613b137492fc6fd9"
POOL = 200  # instances of each kind


def _text(x):
    if x is None:
        return "none"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_text(v) for v in x) + "]"
    return scalar_text(x)


def _pin(p: Polyhedron) -> Polyhedron:
    """p with its first coordinate also fixed by an equality row, at the
    midpoint of the box rows bounding it, so p stays nonempty."""
    hi, neg_lo = p.h[0], p.h[1]
    row = [Q(1)] + [Q(0)] * (p.dim - 1)
    return Polyhedron(dim=p.dim, G=p.G, h=p.h,
                      E=p.E + [row], e=p.e + [(hi - neg_lo) / 2])


def _pinned(inst: FarkasInstance) -> FarkasInstance:
    """The same instance with an equality row in the ground, the target and
    the objective's domain, so the free-multiplier columns get exercised."""
    f = inst.objective
    domain = _pin(f.domain) if f.domain is not None else None
    return FarkasInstance(
        ground=_pin(inst.ground), matrix=inst.matrix,
        target=_pin(inst.target_polyhedron()),
        objective=PiecewiseAffine(dim=f.dim, slopes=f.slopes,
                                  offsets=f.offsets, domain=domain))


def _pool():
    yield gallery.g1_instance()
    yield gallery.g3_instance()
    rng = random.Random(20250)
    for k in range(POOL):
        yield instances.random_feasible_instance(rng)
        inst = instances.random_infeasible_instance(rng)
        yield inst
        if k % 2 == 0:
            yield _pinned(inst)


def _lines(inst: FarkasInstance):
    cert = engine.find_certificate(inst)
    if cert is None:
        yield "full none"
    else:
        yield "full " + _text([cert.u, cert.v, cert.lam, cert.conjugate_value,
                               cert.ground_support, cert.target_support])
    red = engine.find_reduced_certificate(inst)
    if red is None:
        yield "reduced none"
    else:
        yield "reduced " + _text([red.lam, red.restricted_conjugate,
                                  red.target_support])
    dual = duality.solve_dual(inst)
    yield "dual " + dual.status + " " + _text([dual.value, dual.u, dual.v,
                                                dual.lam])


@functools.lru_cache(maxsize=None)
def _digest():
    """The hash over every certificate line, and the kinds of data the
    pool reached on the way."""
    h = hashlib.sha256()
    seen = set()
    for inst in _pool():
        if inst.ground.E and inst.target_polyhedron().E:
            seen.add("pinned")
        if inst.objective.domain is not None and inst.objective.domain.E:
            seen.add("pinned domain")
        for line in _lines(inst):
            if line.startswith("full "):
                seen.add("absent" if line == "full none" else "present")
            h.update(line.encode() + b"\n")
    return h.hexdigest(), frozenset(seen)


def test_pool_reaches_every_block():
    # present and absent certificates, and equality rows in every block
    assert _digest()[1] == {"present", "absent", "pinned",
                              "pinned domain"}


def test_certificates_match_recorded_hash():
    assert _digest()[0] == GOLDEN
