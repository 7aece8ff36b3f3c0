#!/usr/bin/env bash
# Entry point of the parbox serving benchmark; see run.py for options.
exec python3 "$(dirname "$0")/run.py" "$@"
