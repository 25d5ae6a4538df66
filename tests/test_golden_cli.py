"""Byte-exact CLI output.

The SHA-256 digests pin the complete stdout of representative runs, so a
changed JSON key order (``arity``, ``order``, ``basis``/``space``, ``terms``),
number format or summary line fails here.  The two gauge runs also pin the
coefficients of the gauge members, each the solution plus the shift that
``ab_to_AB`` transports; the order-10 run covers the full catalog, and its
digest was recorded from the former route, which inverted the whole solution
and transported each shifted factorization forward again.
The series run pins the univariate kernel checks of the order-10 canonical
solution; its digest was recorded before those series became one-letter
word series.  The homo runs print one verdict per degree, for degrees 2-10
and 2-12, so they hold only while every kernel dimension, spanning check and
coboundary solve passes; the order-12 digest was recorded from the dense
rows that the sparse rows replaced.  The four ``bch`` runs pin the Lyndon
coordinates of the Campbell-Hausdorff series in two and three letters; the
order-12 and three-letter order-8 digests were recorded from the
``Fraction`` product-and-logarithm construction, and all four hold for both
Goldberg's segment formula, which replaced it, and the integer
product-and-logarithm build, which replaced that formula in turn.  The
``all --order 8`` run pins propU, propLast and cocycle one order above the
benchmark's propU job; its digest was recorded from the Lyndon-bracketing
substitution and the ``Fraction`` peel that the word substitution kernel and
the integer peel replaced, and from the push-splice defect, every word of
act(U, ch), that the defect's coefficients at Lyndon words replaced.  The
``solve-kv --order 12`` run pins every order-12 coefficient of the canonical
solution; its digest was recorded from the ``Fraction`` word kernels that the
integer expansion, nested ad, product and splice replaced.  The ``theorem
--order 10 --seed 5 --json`` run pins the per-degree kv1, theorem and
full-trace lines of the canonical solution and of two randomly drawn gauge
members; its digest was recorded from the full recomputation of every member
that the checks by linearity replaced.  The ``propU --order 9 --json`` run
pins the simplicial combination two orders above the benchmark's propU job;
its digest was recorded from the substitutions of generators and of ``ch``
rebuilt in three letters, one Horner pass per component, that the letter
relabels and the shared pass replaced, and from the push-splice defect.  The
``theorem --order 13 --seed 0`` run, whose denominators are large, pins the
canonical solution and two random gauge members at the frontier; its digest
was recorded from the ``Fraction``-valued storage that the stored (numerators,
denominator) pairs replaced.
Every run but the homo ones is made twice in one process, so the second,
which reads the cached canonical solution, its memos and the cached CH
series, must print the same bytes.
Update a digest only together with an intended, documented output change.
"""

import hashlib

import pytest

from kvquad.cli import main

GOLDEN = [
    (("solve-kv", "--order", "8"), 0,
     "d92ec80e516b70eacd2ac763a34a02e3ac6cf9d425c0f711792089f2e1e50719"),
    (("verify", "--order", "6", "--json"), 0,
     "ff99cc39f16e37e50e3db68fe35d4cbecc5ea5241924771607dd39d7d8e80a49"),
    (("solve-kv", "--order", "7", "--gauge", "4"), 0,
     "3f27d1dc4b656540493cb7979794a8cf6a2a8b605d85526d661a1fa218152725"),
    (("solve-kv", "--order", "10", "--gauge", "10"), 0,
     "d101ddceab06fb104ead58d7f068e589bb7b3d508815e7a4b0b259d6fa908578"),
    (("verify", "--suite", "series", "--order", "10", "--json"), 0,
     "6fd4c8b0c54ab304c47056ba535ddadd87dfb9d63286a317e4dab8e58f338eb6"),
    (("verify", "--suite", "homo", "--order", "10"), 0,
     "ba5cfab9a61cd2ce8b20090064c6fe22510351782b689dff7cfba8ba195ae336"),
    (("verify", "--suite", "homo", "--order", "12"), 0,
     "5bdae8e572ec72ba76f7afca4376512cba43faadb1f70318b8bbd5bf72194fc0"),
    (("bch", "--order", "10"), 0,
     "b6d78aeca952d4bebb8a48dca7ea998ac73e1ae20b0d832092dd8cae7ea83ace"),
    (("bch", "--arity", "3", "--order", "7"), 0,
     "e9252f0b16644f201b44ff208681b9d038ff8edcd9e5ac681becac8d64e233f0"),
    (("bch", "--order", "12"), 0,
     "ffb0e7f73fdf52907572c50133c271bd9a8505f25cfeef44b7503cca32c085c0"),
    (("bch", "--arity", "3", "--order", "8"), 0,
     "834e1529b0f851211e49b4b05db87b996ae8d491af728891fc5e6da6cf6c8ded"),
    (("verify", "--suite", "all", "--order", "8"), 0,
     "d19a8290cef896d4c0d0dd7fcd2260625d674e40a04cb47bf446f75a0f2d576c"),
    (("solve-kv", "--order", "12"), 0,
     "526614c6023b7411dddeb08bc1e91b9ebd7c20e0736b253d206dfd366942775a"),
    (("verify", "--suite", "theorem", "--order", "10", "--seed", "5", "--json"), 0,
     "0874b1be8690cbcdc151664c0aae1637ab007d07fc921ec19245e8045e696d61"),
    (("verify", "--suite", "propU", "--order", "9", "--json"), 0,
     "e2999effbaa69e84c138d6602f319df5508b469dd95091bdc22b02e5085bf677"),
    (("verify", "--suite", "theorem", "--order", "13", "--seed", "0"), 0,
     "df4c9d91cd199e28c0db160f7c75322f9d0178ff66dedf26fd9ea2f659e0ae0a"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_cli_stdout_bytes(capsys, argv, code, digest):
    for _ in range(1 if "homo" in argv else 2):
        assert main(list(argv)) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
