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

# Plants one disagreement per cross-check by replacing one side (for the
# Raney lift, a fitted host whose open misses the top's index; for the
# inverse of open, the same plant on a fresh fitted host, read through
# properness; for the down-set join map, a right adjoint that sends
# everything to the empty down-set, so that r . eps is not inflationary),
# and prints the names of the checks that raised.
PLANTS = r'''
import json
import oracles
import subloc.correspondence as co
import subloc.subcolocales as sc
from subloc import FrameWitness, InternalInconsistency, enumerate_sublocales
from subloc.corpus import downset_masks, gen_chain

fw = FrameWitness.of(gen_chain(3))
downsets = downset_masks(fw.lattice.up)
sl = enumerate_sublocales(fw)
sl_o = sl.fitted_subcoframe()
full_o = (1 << sl_o.size) - 1
ident = co.FrameMap.of(fw, fw, range(fw.lattice.n))
fresh_o = oracles.fresh_sublocales(fw).fitted_subcoframe()

def planted(module, name, fake, call):
    real = getattr(module, name)
    setattr(module, name, fake)
    try:
        call()
        return False
    except InternalInconsistency:
        return True
    finally:
        setattr(module, name, real)

raised = {
    "is_subcolocale": planted(sc, "_is_subcolocale_characterized",
                              lambda host, m: sc.generated_subcolocale(host, m) != m,
                              lambda: sc.is_subcolocale(sl, 1)),
    "se": planted(sc, "is_exact_sublocale", lambda fw, m, **kw: False,
                  lambda: sc.se(enumerate_sublocales(FrameWitness.of(gen_chain(4))))),
    "is_proper": planted(sc, "is_principal_precongruence", lambda fw, g: False,
                         lambda: sc.is_proper(sl_o, full_o)),
    "delta": planted(sc, "generated_subcolocale", lambda host, m: 0,
                     lambda: sc.delta(sl, sl_o, full_o)),
    "saturation": planted(sc, "generated_subcolocale", lambda host, m: 0,
                          lambda: sc.is_essential(sl, sc.sb(sl), sl_o)),
    "is_essential": planted(sc, "delta", lambda sl, sl_o, m: 0,
                            lambda: sc.is_essential(sl, sc.sb(sl), sl_o)),
    "sublocale_join": planted(oracles, "sublocale_closure", lambda fw, m: fw.lattice.full_mask,
                              lambda: oracles.sublocale_join(sl, [0, 0])),
    "downset_nucleus": planted(co, "_right_adjoint", lambda lat, masks, eps: [0] * lat.n,
                               lambda: co.downset_join_map_violations(
                                   fw, downsets, [fw.lattice.big_join(m) for m in downsets])),
    "szdbf_lift_check": planted(co, "is_codense", lambda host, m: True,
                                lambda: co.szdbf_lift_check(
                                    ident, co.SZDBF(fw, co.Subcolocale(sl, 1)),
                                    co.SZDBF(fw, co.Subcolocale(sl, sc.sb(sl))))),
    "raney_lift_check": planted(sl_o, "open_index", sl_o.open_index[:-1] + sl_o.open_index[:1],
                                lambda: co.raney_lift_check(
                                    ident, co.RaneyExtension(fw, co.Subcolocale(sl_o, full_o)),
                                    co.RaneyExtension(fw, co.Subcolocale(sl_o, full_o)))),
    "element_of": planted(fresh_o, "open_index",
                          fresh_o.open_index[:-1] + fresh_o.open_index[:1],
                          lambda: sc.is_proper(fresh_o, full_o)),
}
print(json.dumps({"debug": __debug__, "raised": raised}))
'''


def test_planted_disagreements_raise_under_python_O():
    src = str(Path(subloc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-O", "-c", PLANTS], env=env, check=True,
                         capture_output=True, text=True).stdout
    got = json.loads(out)
    assert got["debug"] is False
    assert got["raised"] == dict.fromkeys(got["raised"], True)
    assert len(got["raised"]) == 11


def test_cli_exits_1_on_an_internal_inconsistency(tmp_path, monkeypatch, capsys):
    path = tmp_path / "c3.lat"
    path.write_text(serialize_lattice(gen_chain(3)))
    assert main(["check", str(path), "--suite", "adjunction"]) == 0
    monkeypatch.setattr("subloc.subcolocales.generated_subcolocale", lambda host, m: 0)
    capsys.readouterr()
    assert main(["check", str(path), "--suite", "adjunction"]) == 1
    assert "internal inconsistency" in capsys.readouterr().err
