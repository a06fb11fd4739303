"""Start the cfarmismatch CLI, noting when its set-up is done.

Usage: python3 perfbench/launch.py STAMP_FILE CLI_ARGS...

Does what the installed ``cfarmismatch`` console script does, exit with
``cli.main(CLI_ARGS)``, and writes the monotonic clock to STAMP_FILE when the
CLI's config validation returns: the package is imported and the config
validated, and the first trial has not started.
"""

import sys
import time

from cfarmismatch import cli

stamp_path, argv = sys.argv[1], sys.argv[2:]
validate = cli.from_dict


def validate_and_stamp(user):
    cfg = validate(user)
    with open(stamp_path, "w", encoding="utf-8") as fh:
        fh.write(repr(time.monotonic()))
    return cfg


cli.from_dict = validate_and_stamp
sys.exit(cli.main(argv))
