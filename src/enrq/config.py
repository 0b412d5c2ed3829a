"""Loaders for the bundled input data.

``hodge_inputs.json`` holds the Hodge diamonds feeding the refined pipeline;
the Enriques Calabi-Yau entry is tagged ``derived`` because its signed Betti
realization is pinned by back-solving the even-degree closed form of the
fiber Gopakumar-Vafa polynomials (a test enforces the back-solve).
``betti_defaults.json`` holds the known Betti numbers of the degree-d sheaf
moduli spaces: the full d=1 vector, the stable prefix (1, 0, 11) for d >= 2,
and a derived d=0 vector.
"""

import json


def _load(name):
    from importlib import resources  # only a bundled-data load reads the package files

    with resources.files("enrq.data").joinpath(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def hodge_inputs():
    return _load("hodge_inputs.json")


def betti_defaults():
    return _load("betti_defaults.json")


def parse_hodge(diamond):
    """{(p,q): h} from the JSON's "p,q" string keys."""
    out = {}
    for key, h in diamond.items():
        p, q = key.split(",")
        out[(int(p), int(q))] = int(h)
    return out
