"""The record server in a process of its own.

``server_child.py DATASET_DIR CACHE_BYTES`` prints ``PORT <n>`` once it
accepts connections, serves until its stdin reaches end-of-file (so it also
stops when the process that started it dies), then prints ``RSS <kB>``.
"""

from __future__ import annotations

import resource
import sys

from common import use_program_source


def main() -> None:
    dataset_dir, cache_bytes = sys.argv[1], int(sys.argv[2])
    use_program_source()
    from repro.serving.server import PCRRecordServer

    with PCRRecordServer(dataset_dir, port=0, cache_bytes=cache_bytes) as server:
        print(f"PORT {server.port}", flush=True)
        sys.stdin.read()
    print(f"RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}", flush=True)


if __name__ == "__main__":
    main()
