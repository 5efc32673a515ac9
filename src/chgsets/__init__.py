"""Generalized Sidon sets: constructions, exact verification, search, bounds.

A set A in an abelian ambient space is C_h[g] when no h-element pattern has
g distinct translates all contained in A; a Sidon set is the h = g = 2
case.  This package builds such sets (sphere and norm-field constructions,
carry-free embeddings into integer windows, a probabilistic weak variant),
decides the property exactly, searches for maximum sets at small window
sizes, and evaluates the closed-form size bounds the sets are checked
against.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    counting_ratio,
    group_bound,
    main_term_bound,
    main_term_error_order,
    sample_density,
    weak_lower_bound,
    zarankiewicz_bound,
)
from .constructions import (
    detect_bad,
    embedded_c33,
    freiman_embed,
    largest_prime_cube_fit,
    norm_set,
    rewindow,
    sidon_baseline,
    sphere_alpha,
    sphere_set,
    weak_random_set,
)
from .errors import ParameterError, ResourceCapError, RetryExhaustedError
from .fields import (
    ExtField,
    ext_add,
    ext_field,
    ext_mul,
    ext_pow,
    find_irreducible,
    is_prime,
    iter_field,
    norm,
    quadratic_character,
)
from .groups import (
    Cyclic,
    GSet,
    Interval,
    PatternClass,
    Product,
    add,
    canonicalize,
    elem_from_key,
    elem_key,
    enumerate_pattern_classes,
    gset,
    iter_elements,
    order,
    stabilizer,
    sub,
    translate,
    zero,
)
from .rng import RNG_NAME, RNG_VERSION, SplitMix64
from .search import SearchResult, greedy_chg, max_chg_exact, max_table
from .setio import (
    group_from_string,
    group_to_string,
    pbm_text,
    read_set,
    set_from_text,
    set_to_text,
    write_pbm,
    write_set,
    zmatrix_summary,
)
from .verify import (
    Verdict,
    Witness,
    ZMatrix,
    build_zmatrix,
    check_kgh_free,
    interval_to_cyclic,
    verify_chg,
    verify_weak_chg,
)
