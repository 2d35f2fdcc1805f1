"""The square's label classification and group product, case by case.

`basis.BasisLabel.classify`, `basis.sigma0_action` and `group.mul` are
closed forms in d = a - b and in the two elements' fields.  The tests check
them against this independent slow path: the same maps written out one
family and one pair of element kinds at a time.
"""

from b2dunkl.group import reflection, rotation


def classify(label):
    """(family, tower index n, chain position j)."""
    d = label.a - label.b
    if d % 2 == 0:
        if d >= 0:
            fam = "E0" if d % 4 == 0 else "E1"
            return fam, (d - (0 if d % 4 == 0 else 2)) // 4, label.b
        e = -d
        fam = "E3" if e % 4 == 0 else "E2"
        return fam, (e - (0 if e % 4 == 0 else 2)) // 4, label.a
    if d > 0:
        fam = "O1" if d % 4 == 1 else "O3"
        return fam, (d - (1 if d % 4 == 1 else 3)) // 4, label.b
    e = -d
    fam = "O1R" if e % 4 == 1 else "O3R"
    return fam, (e - (1 if e % 4 == 1 else 3)) // 4, label.a


def sigma0_action(label):
    """(image label, sign) under the axis mirror."""
    fam = classify(label)[0]
    if fam in ("E0", "E1"):
        return label, 1
    if fam in ("E2", "E3"):
        return label, -1
    return label.swap(), 1


def isotype(label):
    """Character index for even labels; None for odd (two-dimensional)."""
    fam = classify(label)[0]
    if fam in ("E0", "E1", "E2", "E3"):
        return int(fam[1])
    return None


def mul(a, b):
    """Composite "apply a, then b"."""
    if not a.refl and not b.refl:
        return rotation(a.k + b.k)
    if not a.refl:
        return reflection(b.k - a.k)
    if not b.refl:
        return reflection(a.k + b.k)
    return rotation(b.k - a.k)
