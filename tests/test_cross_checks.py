"""Double-entry cross-checks raise InternalInconsistency, also under -O."""

import json
import os
import subprocess
import sys
from pathlib import Path

import subloc
from subloc.cli import main
from subloc.corpus import gen_chain
from subloc.latfile import serialize_lattice

# Plants one disagreement per cross-check by replacing one side, each on a
# host of its own, so that nothing one plant leaves memoised reaches
# another, and prints the InternalInconsistency message each plant raised
# (or null).  For the Raney lift the plant swaps the opens of 1 and 2, which
# keeps open a bijection but breaks a meet; for the inverse of open it sends
# the top to the bottom's open, which sigma reads through element_of; for
# the down-set join map, a right adjoint sends everything to the empty
# down-set, so that r . eps is not inflationary.
PLANTS = r'''
import json
import oracles
import subloc.correspondence as co
import subloc.subcolocales as sc
from subloc import FrameWitness, InternalInconsistency, enumerate_sublocales
from subloc.corpus import downset_masks, gen_chain


def hosts(n=3):
    """chain n's witness, its S(L) and S_o(L), and S_o(L)'s whole mask, fresh."""
    fw = FrameWitness.of(gen_chain(n))
    sl = enumerate_sublocales(fw)
    sl_o = sl.fitted_subcoframe()
    return fw, sl, sl_o, (1 << sl_o.size) - 1


def planted(module, name, fake, call):
    real = getattr(module, name)
    setattr(module, name, fake)
    try:
        call()
        return None
    except InternalInconsistency as exc:
        return str(exc)
    finally:
        setattr(module, name, real)


def raney(fw, sl_o, full_o):
    ident = co.FrameMap.of(fw, fw, range(fw.lattice.n))
    r = co.RaneyExtension(fw, co.Subcolocale(sl_o, full_o))
    return co.raney_lift_check(ident, r, r)


def szdbf(fw, sl):
    ident = co.FrameMap.of(fw, fw, range(fw.lattice.n))
    return co.szdbf_lift_check(ident, co.SZDBF(fw, co.Subcolocale(sl, 1)),
                               co.SZDBF(fw, co.Subcolocale(sl, sc.sb(sl))))


def downsets(fw):
    masks = downset_masks(fw.lattice.up)
    return co.downset_join_map_violations(fw, masks, [fw.lattice.big_join(m) for m in masks])


def swapped(opens, a, b):
    opens = list(opens)
    opens[a], opens[b] = opens[b], opens[a]
    return tuple(opens)


raised = {}
fw, sl, sl_o, full_o = hosts()
raised["is_subcolocale"] = planted(sc, "_is_subcolocale_characterized",
                                   lambda host, m: sc.generated_subcolocale(host, m) != m,
                                   lambda: sc.is_subcolocale(sl, 1))
fw, sl, sl_o, full_o = hosts(4)
raised["se"] = planted(sc, "is_exact_sublocale", lambda fw, m, **kw: False, lambda: sc.se(sl))
fw, sl, sl_o, full_o = hosts()
raised["is_proper"] = planted(sc, "are_principal_precongruences", lambda fw, rows: False,
                              lambda: sc.is_proper(sl_o, full_o))
fw, sl, sl_o, full_o = hosts()
raised["delta"] = planted(sc, "generated_subcolocale", lambda host, m: 0,
                          lambda: sc.delta(sl, sl_o, full_o))
fw, sl, sl_o, full_o = hosts()
raised["saturation"] = planted(sc, "generated_subcolocale", lambda host, m: 0,
                               lambda: sc.is_essential(sl, sc.sb(sl), sl_o))
fw, sl, sl_o, full_o = hosts()
raised["is_essential"] = planted(sc, "delta", lambda sl, sl_o, m: 0,
                                 lambda: sc.is_essential(sl, sc.sb(sl), sl_o))
fw, sl, sl_o, full_o = hosts()
raised["sublocale_join"] = planted(oracles, "sublocale_closure",
                                   lambda fw, m: fw.lattice.full_mask,
                                   lambda: oracles.sublocale_join(sl, [0, 0]))
fw, sl, sl_o, full_o = hosts()
raised["downset_nucleus"] = planted(co, "_right_adjoint", lambda lat, masks, eps: [0] * lat.n,
                                    lambda: downsets(fw))
fw, sl, sl_o, full_o = hosts()
raised["szdbf_lift_check"] = planted(co, "is_codense", lambda host, m: True,
                                     lambda: szdbf(fw, sl))
fw, sl, sl_o, full_o = hosts()
raised["raney_lift_check"] = planted(sl_o, "open_index", swapped(sl_o.open_index, 1, 2),
                                     lambda: raney(fw, sl_o, full_o))
fw, sl, sl_o, full_o = hosts()
raised["element_of"] = planted(sl_o, "open_index", sl_o.open_index[:-1] + sl_o.open_index[:1],
                               lambda: sc.sigma(sl, sl_o, full_o, 0))
print(json.dumps({"debug": __debug__, "raised": raised}))
'''

MESSAGES = {
    "is_subcolocale": "subcolocale characterizations disagree",
    "se": "exactness criteria disagree",
    "is_proper": "properness criteria disagree",
    "delta": "closed-form delta disagrees with the generated subcolocale",
    "saturation": "closed-form saturation closure disagrees with the generic one",
    "is_essential": "essentiality criteria disagree",
    "sublocale_join": "join table disagrees with closure of union",
    "downset_nucleus": "r . eps is not a nucleus: the right adjoint's image is not a sublocale",
    "szdbf_lift_check": "a codense subcolocale of S(L) is not all of S(L)",
    "raney_lift_check": "open does not keep a binary meet",
    "element_of": "open is not a bijection onto the fitted sublocales",
}


def test_planted_disagreements_raise_under_python_O():
    src = str(Path(subloc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-O", "-c", PLANTS], env=env, check=True,
                         capture_output=True, text=True).stdout
    got = json.loads(out)
    assert got["debug"] is False
    assert got["raised"] == MESSAGES
    assert len(got["raised"]) == 11


def test_cli_exits_1_on_an_internal_inconsistency(tmp_path, monkeypatch, capsys):
    path = tmp_path / "c3.lat"
    path.write_text(serialize_lattice(gen_chain(3)))
    assert main(["check", str(path), "--suite", "adjunction"]) == 0
    monkeypatch.setattr("subloc.subcolocales.generated_subcolocale", lambda host, m: 0)
    capsys.readouterr()
    assert main(["check", str(path), "--suite", "adjunction"]) == 1
    assert "internal inconsistency" in capsys.readouterr().err
