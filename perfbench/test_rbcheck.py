"""Tests of the independent checker on labelings built by hand.

Run with ``python3 -m pytest perfbench/test_rbcheck.py`` or
``python3 perfbench/test_rbcheck.py``.
"""

import json

import rbcheck

# Z_3^2, shape (1,3,2).  Edge sums: a1+a2=(0,1), a2+a3=(1,1), a1+x=(0,2),
# a2+y=(1,0),(2,2),(2,0), a3+z=(2,1),(0,0); (1,2) is missing, and
# -(1*a1 + 4*a2 + 2*a3) = -(2,1) = (1,2).
VALID = dict(
    p=3,
    k=2,
    h=(1, 3, 2),
    spine=[(0, 0), (0, 1), (1, 0)],
    x=[(0, 2)],
    y=[(1, 2), (2, 1), (2, 2)],
    z=[(1, 1), (2, 0)],
)


def _with(**changes):
    lab = dict(VALID)
    lab.update(changes)
    return lab


def test_valid_labeling_and_missing_label():
    v = rbcheck.check(**VALID)
    assert v == rbcheck.Verdict(True, rbcheck.OK, (1, 2))


def test_valid_labeling_p2():
    # Z_2^2, shape (0,1,0): edge sums (0,1), (1,0), (1,1); missing 0 = -(2*a2).
    v = rbcheck.check(2, 2, (0, 1, 0), [(0, 1), (0, 0), (1, 0)], [], [(1, 1)], [])
    assert v == rbcheck.Verdict(True, rbcheck.OK, (0, 0))


def test_duplicate_vertex():
    # y's first label repeats the spine label a1; hair counts still match.
    v = rbcheck.check(**_with(y=[(0, 0), (2, 1), (2, 2)]))
    assert v.reason == rbcheck.DUPLICATE_VERTEX and not v.ok


def test_duplicate_edge_sum():
    # A bijection onto Z_3^2 in which a1+x = (1,0) and a2+y = (0,1)+(1,2)
    # = (1,0) collide.
    v = rbcheck.check(
        3, 2, (1, 3, 2),
        [(0, 0), (0, 1), (0, 2)],
        [(1, 0)],
        [(1, 1), (1, 2), (2, 0)],
        [(2, 1), (2, 2)],
    )
    assert v.reason == rbcheck.DUPLICATE_EDGE and not v.ok


def test_hair_count_must_match_shape():
    # Moving one Y hair to Z keeps a bijection but no longer has shape (1,3,2).
    v = rbcheck.check(**_with(y=[(1, 2), (2, 1)], z=[(1, 1), (2, 0), (2, 2)]))
    assert v.reason == rbcheck.HAIR_COUNT


def test_malformed_inputs():
    assert rbcheck.check(**_with(x=[(0, 3)])).reason == rbcheck.MALFORMED
    assert rbcheck.check(**_with(p=4)).reason == rbcheck.MALFORMED
    assert rbcheck.check(**_with(h=(1, 3, 3))).reason == rbcheck.MALFORMED


def test_payload_form():
    payload = {
        "group": {"p": 3, "k": 2},
        "shape": {"h": [1, 3, 2]},
        "spine": [list(e) for e in VALID["spine"]],
        "hairs": {r: [list(e) for e in VALID[r]] for r in "xyz"},
    }
    assert rbcheck.check_payload(json.loads(json.dumps(payload))).ok
    del payload["hairs"]["z"]
    assert rbcheck.check_payload(payload).reason == rbcheck.MALFORMED


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
    print("ok")
