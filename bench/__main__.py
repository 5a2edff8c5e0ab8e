"""Entry point: ``python -m bench run ...`` (and the internal ``_child``
command the harness launches once per measurement)."""

import sys

if __name__ == "__main__":
    if sys.argv[1:2] == ["_child"]:
        from bench.child import main as child_main

        sys.exit(child_main(sys.argv[2:]))
    from bench.harness import main

    sys.exit(main())
