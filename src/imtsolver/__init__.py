"""Branch-and-cut solver for integer linear programs with interface atoms.

The search engine explores subproblems and proposes every state change to a
small rule kernel; each change carries a certificate the kernel re-checks,
and the accepted step log replays independently. Uninterpreted functions
over the integers are the bundled background theory.
"""
