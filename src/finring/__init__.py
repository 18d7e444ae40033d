"""Finite unital rings as dense operation tables.

Constructions (modular integers, matrix families, extensions,
products, quotients, corners, structure-constant algebras), exhaustive
idempotent-relative zero-pattern properties, and a law checker that
sweeps a bundled corpus.
"""
from .core import (DEFAULT_GUARDS, AxiomReport, Guards, RingError, RingTable,
                   SizeGuardError, build_ring, verify_axioms)
from .construct import (algebra_from_structure_constants, build_expr, corner,
                        direct_product, dorroh, h_ring, ideal_closure,
                        is_ideal, k_ring, matrix_ring, quotient,
                        resolve_element, sub_ring_table, subring, trs,
                        twisted_u2, zmod)
from .dsl import ParseError, parse, parse_element
from .expr import serialize, serialize_elem
from .laws import (LAW_ORDER, Corpus, CorpusEntry, LawCase, LawReport,
                   corpus_from_text, default_corpus, load_corpus, run_law,
                   run_laws, select_laws)
from .predicates import (ALL_PROPS, E_PROPS, GLOBAL_PROPS, PropertyVerdict,
                         center, check_property, distinguished_idempotent,
                         idempotents, is_left_min_abel, is_left_semicentral,
                         is_right_semicentral, left_annihilator,
                         minimal_left_idempotents, nilpotency_index,
                         nilpotents, property_name, replay_witness,
                         right_annihilator, survey, unit_inverse)

__version__ = "0.1.0"
