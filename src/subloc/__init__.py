"""Finite frames, sublocale coframes, and the subcolocale adjunction."""

from .config import DEFAULT_LIMITS, Limits
from .errors import (InternalInconsistency, NotAFrame, NotACoframe, NotProper,
                     SizeLimit)
from .lattice import (CoframeWitness, FrameWitness, Lattice, covered_primes,
                      covers, join_irreducibles, primes)
from .latfile import parse_lattice, serialize_lattice
from .corpus import (CorpusFrame, all_topologies, gen_boolean, gen_chain,
                     gen_diamond, gen_downsets_of_poset, gen_opens_of_topology,
                     gen_product, sample_topologies, standard_corpus,
                     standard_lattices)
from .sublocales import (SublocaleCoframe, enumerate_sublocales, exact_filters,
                         fitted_subcoframe, is_exact_sublocale, ker, phi,
                         strongly_exact_filters)
from .subcolocales import (Subcolocale, adjunction_check, conuclei, delta,
                           enumerate_subcolocales, fit_image,
                           generated_subcolocale, is_codense, is_essential,
                           is_proper, is_subcolocale, join_closure, leq_f,
                           saturated_elements, sb, se, sigma, ssp)
from .correspondence import (FrameMap, LiftVerdict, RaneyExtension, SZDBF,
                             downset_join_map_violations, extend_to_coframe_map,
                             is_exact_map, raney_lift_check, subcolocale_lattice,
                             surjection_of, szdbf_lift_check, to_raney, to_szdbf)
from .report import (adjunction_suite, correspondence_suite, frame_report,
                     laws_suite, run_suite)

__version__ = "0.1.0"
