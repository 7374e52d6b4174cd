"""Hypothesis profiles for the suite.

The default profile, with shrinking, serves every ordinary run.  The
``mutants`` profile, which ``tools/mutants.py`` selects with
``--hypothesis-profile=mutants``, skips shrinking: a mutant is killed by
any failing example, and shrinking one can take most of a failing run.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))
