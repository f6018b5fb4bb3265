import hashlib
import random
from collections import Counter

import pytest

from plane_supports.fileio import serialize_hypergraph
from plane_supports.gen import (DegreeScheme, _draw_degree, adversarial_family,
                                degree_array, generate)
from plane_supports.heuristics import local_search
from plane_supports.model import total_length
from plane_supports.mst import star_support


def test_degree_array_even_example():
    rng = random.Random(0)
    assert degree_array(10, 4, DegreeScheme.EVEN, rng) == [3, 3, 2, 2]


def test_degree_array_step2_rule():
    # [5,0,0] entering step 2 with k=3 becomes [4,0,1]: the largest occupied
    # degree loses one vertex, which reappears at degree k.
    # EVEN with n=5, k=3 gives [2,2,1] pre-steps, so force the shape via LOW
    # draws that all land on degree 1: use the internal pipeline directly.
    counts = [5, 0, 0]
    k = 3
    if counts[k - 1] == 0:
        top = max(d for d in range(k) if counts[d] > 0)
        counts[top] -= 1
        counts[k - 1] = 1
    assert counts == [4, 0, 1]


def test_degree_array_step3_shifts():
    # n=2, k=2, D=[2,0]: degree mass 2 < 2k = 4, shift twice -> [0,2]
    counts = [2, 0]
    k = 2
    while sum((d + 1) * counts[d] for d in range(k)) < 2 * k:
        low = min(d for d in range(k) if counts[d] > 0)
        counts[low] -= 1
        counts[low + 1] += 1
    assert counts == [0, 2]


def test_degree_array_invariants_hold_broadly():
    rng = random.Random(1)
    for _ in range(10_000):
        n = rng.randint(2, 40)
        k = rng.randint(1, 7)
        scheme = rng.choice(list(DegreeScheme))
        counts = degree_array(n, k, scheme, rng)
        assert sum(counts) == n
        assert counts[k - 1] >= 1
        assert sum((d + 1) * counts[d] for d in range(k)) >= 2 * k
        assert all(c >= 0 for c in counts)


def test_degree_array_rejects_bad_args():
    rng = random.Random(2)
    with pytest.raises(ValueError):
        degree_array(1, 2, DegreeScheme.EVEN, rng)
    with pytest.raises(ValueError):
        degree_array(5, 0, DegreeScheme.EVEN, rng)


def test_degree_scheme_peaks():
    rng = random.Random(3)
    k = 5
    draws = 100_000
    for scheme, expect in ((DegreeScheme.MID, (k + 1) // 2),
                           (DegreeScheme.LOW, 1),
                           (DegreeScheme.HIGH, k)):
        hist = Counter(_draw_degree(scheme, k, rng) for _ in range(draws))
        peak = max(hist, key=hist.get)
        assert peak == expect, (scheme, hist)
    # even k: the MID peak straddles k/2 and k/2 + 1
    hist = Counter(_draw_degree(DegreeScheme.MID, 4, rng) for _ in range(draws))
    assert max(hist, key=hist.get) in (2, 3)


def test_generate_contract():
    rng = random.Random(4)
    for _ in range(150):
        n = rng.randint(2, 30)
        k = rng.randint(1, 6)
        scheme = rng.choice(list(DegreeScheme))
        h = generate(n, k, scheme, random.Random(rng.randint(0, 10 ** 9)))
        assert h.n == n and h.k == k
        assert all(len(s) >= 2 for s in h.hyperedges)
        assert h.core(), "generated instances always share a core vertex"
        assert all(0 <= p.x < 100 and 0 <= p.y < 100 for p in h.vertices)


def test_generate_deterministic_per_seed():
    a = generate(20, 3, DegreeScheme.MID, random.Random(42))
    b = generate(20, 3, DegreeScheme.MID, random.Random(42))
    assert serialize_hypergraph(a) == serialize_hypergraph(b)


# SHA-256 of serialize_hypergraph over seeds 0-9, per scheme and (n, k):
# the instance stream itself, not only its determinism. A change to the
# generator that moves any RNG call or its arguments shows here.
_STREAM_PINS = {
    ("even", 8, 2): "beccf1c9be208c0b6aee923ca14b8f313b9d36221b9becdb76458e4fb696393b",
    ("even", 14, 4): "0ecc7910446a0b1e509fedfdb0060d4a07ec0620d8bf676b55766c6a9b4af890",
    ("even", 24, 4): "dd89eefe5e8784ad34c9d8d05089473d782d7c5d902440b416d2715f5eaedba3",
    ("even", 50, 8): "642050a4da9faed35b7c1696e4c2a94bb0502e6850759361710368b98fbc4ea2",
    ("even", 100, 8): "ca555276efc76ca86835e7e1ccfa5eab2712de28cc2ceffbbfd9254d9c4619d3",
    ("mid", 8, 2): "f972b4bc3baf02ab39388c89acdac1d029fd599e233278db40872eeadcab0492",
    ("mid", 14, 4): "1e6208d3f5d859c9d1d26698da3e210da58327083909e4f07dbb83e39fabec10",
    ("mid", 24, 4): "e78fa928274663df37653192c2d55c49f1cf4b6ce979f4befcf1daa07df9db4b",
    ("mid", 50, 8): "1cf87f0252e5bc174a54eceaee92cf632bc42f8b90577469b128632d625ed2b4",
    ("mid", 100, 8): "b8a236e463d53da616be1da109f21bea00a70e6062bf0e91737c495391f38eae",
    ("low", 8, 2): "d74e38b30b3a41781ef2b38e30a739b795ba6a291d9bfa1f7b402470dfa43f9c",
    ("low", 14, 4): "b50184cc7cae1e0adcc6fe98a73071c5e9b8220a3d812388dd630fa7466e42e5",
    ("low", 24, 4): "bacde4034d151e33ea73d465fde7e140c8ecfabc074fa80e4d638c2bde956992",
    ("low", 50, 8): "f66ceb9f8acbf69803c62dae0291cee72a82c2b262070143b7d36e5b8cfa5e3e",
    ("low", 100, 8): "4aabef3024efb3f27416521400763a2bc1d31857901140b0461e888ec3c985c0",
    ("high", 8, 2): "14ba450a7b67f0db3d764ac34902252a0d915d1250066d13f74c73a9b6ce6467",
    ("high", 14, 4): "dcdfc32de2a3e0edb760deb47b2809665eee9e8232780fc305b40494ae7024f9",
    ("high", 24, 4): "bb6a9209e77933760f1f8b7940d647678453368ee109a9208475876d3d23bf58",
    ("high", 50, 8): "57e7a1a610a31e64a5224f683102baaa1c44202129c4ee38e8e2de1248850232",
    ("high", 100, 8): "18c4db4e69ec1ad9f887e74313aa0902c1d0fd67ab9c1a5bef316509068df6e1",
}


def test_generated_stream_is_pinned():
    for (scheme, n, k), pin in _STREAM_PINS.items():
        digest = hashlib.sha256()
        for seed in range(10):
            h = generate(n, k, DegreeScheme(scheme), random.Random(seed))
            digest.update(serialize_hypergraph(h).encode())
        assert digest.hexdigest() == pin, (scheme, n, k)


def test_adversarial_family_shape():
    h = adversarial_family(16)
    assert h.n == 16 and h.k == 2
    assert sorted(h.core()) == [0, 1, 2]
    # colours alternate along each chain, left to right
    for sign in (1, -1):
        chain = sorted((v for v in range(3, h.n) if sign * h.vertices[v].y > 0),
                       key=lambda v: h.vertices[v].x)
        colours = [0 if v in h.hyperedges[0] else 1 for v in chain]
        assert all(a != b for a, b in zip(colours, colours[1:]))
    with pytest.raises(ValueError):
        adversarial_family(6)


def test_adversarial_family_star_gap_grows():
    ratios = []
    for n in (8, 16, 32):
        h = adversarial_family(n)
        star_len = total_length(star_support(h), h)
        ls_len = local_search(h).length
        ratios.append(star_len / ls_len)
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] > 2
