"""The names the benchmark's per-layer tracer (perfbench/tracing.py) wraps.

The tracer patches lderiv attributes by name and skips any it cannot find,
so a rename would quietly zero its metrics.  The list is kept here, not
imported from perfbench, so that the Tier-1 suite needs nothing outside
lderiv.  (The tracer also names special._em_eval_grid, which was merged
into _em_eval, and lfunc._eval_hurwitz and lfunc._eval_fe, which were
folded into the block planner lfunc._eval_block, and the methods
DirichletCharacter.values_array and max_partial_sum, whose callers now
read chi.data; their counters read 0 since then.)
"""

import inspect

from lderiv import characters, cli, lfunc, special, verify, zeros

_WRAPPED = {
    characters: ("enumerate_primitive", "from_label", "kronecker_character", "gauss_sum"),
    special: ("_hurwitz_core", "_choose_em_params", "_em_eval", "hurwitz_grid",
              "_digamma", "log_gamma"),
    lfunc: ("eval_L", "eval_Lprime", "eval_L_point", "_eval", "_eval_series",
            "_grid_eval", "logderiv_euler_product"),
    zeros: ("winding_count", "arg_variation", "_newton", "_certify_disk",
            "count_N1_detailed", "count_strip_detailed", "list_zeros",
            "locate_trivial_zero", "critical_line_zeros", "grid_zero_scan",
            "_subdivide", "_bisect_real_logderiv"),
    verify: ("check_region_negativity", "check_near_origin_strip",
             "check_count_asymptotic", "check_distance_sum_asymptotic",
             "check_speiser", "check_reference_constants", "run_all", "_max_re_logderiv"),
    cli: ("run",),
}

_METHODS = ("conjugate",)

# arguments the tracer reads by position: (module, function, position, name)
_READ_ARGS = (
    (special, "_em_eval", 1, "a"),
    (special, "_em_eval", 2, "N"),
    (lfunc, "_eval", 0, "chi"),
    (lfunc, "_eval", 1, "s"),
    (lfunc, "_eval", 2, "deriv"),
    (lfunc, "_eval", 3, "route"),
    (lfunc, "_grid_eval", 1, "S"),
    (zeros, "arg_variation", 0, "f"),
    (zeros, "_newton", 0, "f"),
    (zeros, "_certify_disk", 2, "r0"),
    (verify, "_max_re_logderiv", 1, "points"),
)


def test_traced_functions_exist():
    missing = [f"{m.__name__}.{a}" for m, attrs in _WRAPPED.items() for a in attrs
               if not callable(getattr(m, a, None))]
    assert not missing


def test_traced_methods_and_cache_exist():
    for attr in _METHODS:
        assert attr in characters.DirichletCharacter.__dict__, attr
    assert isinstance(lfunc._POINT_CACHE, dict)


def test_traced_arguments_keep_their_positions():
    for module, attr, pos, name in _READ_ARGS:
        params = list(inspect.signature(getattr(module, attr)).parameters)
        assert params[pos] == name, (module.__name__, attr, params)
