"""Generalized Sidon sets: constructions, exact verification, search, bounds.

A set A in an abelian ambient space is C_h[g] when no h-element pattern has
g distinct translates all contained in A; a Sidon set is the h = g = 2
case.  This package builds such sets (sphere and norm-field constructions,
carry-free embeddings into integer windows, a probabilistic weak variant),
decides the property exactly, searches for maximum sets at small window
sizes, and evaluates the closed-form size bounds the sets are checked
against.

The names below are re-exported lazily: each loads its home module on
first access, so ``import chgsets`` (and every ``python -m chgsets`` run)
pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": ("counting_ratio", "group_bound", "main_term_bound", "main_term_error_order",
               "sample_density", "weak_lower_bound", "zarankiewicz_bound"),
    "constructions": ("detect_bad", "embedded_c33", "freiman_embed", "largest_prime_cube_fit",
                      "norm_set", "rewindow", "sphere_alpha", "sphere_set", "weak_random_set"),
    "errors": ("ParameterError", "ResourceCapError", "RetryExhaustedError"),
    "fields": ("ExtField", "ext_field", "ext_mul", "ext_pow", "find_irreducible", "is_prime",
               "iter_field", "norm", "quadratic_character"),
    "groups": ("Cyclic", "GSet", "Interval", "PatternClass", "Product", "elem_from_key",
               "elem_key", "enumerate_pattern_classes", "gset", "iter_elements", "order", "sub"),
    "rng": ("RNG_NAME", "RNG_VERSION", "SplitMix64"),
    "search": ("SearchResult", "greedy_chg", "max_chg_exact", "max_table"),
    "setio": ("group_from_string", "group_to_string", "pbm_text", "read_set", "set_from_text",
              "set_to_text", "write_pbm", "write_set", "zmatrix_summary"),
    "verify": ("Verdict", "Witness", "ZMatrix", "build_zmatrix", "check_kgh_free",
               "check_kgh_params", "verify_chg", "verify_weak_chg"),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return __all__
