"""Reference implementations the tests compare the program against.

Each oracle is the plainest build of one behaviour: no caching, no
compilation, no column kernels.  They live with the tests, not in
``src/``, so the program ships one build of each pass.
"""
