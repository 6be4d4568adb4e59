"""Time campaign set-up in this fresh process and print it in seconds.

Usage: python3 setup_probe.py SRC_DIR CONFIG OVERRIDES_JSON

Set-up is what every CLI call pays before its first realization: importing
the CLI (and with it numpy and yaml), loading the config and
`build_context`.
"""

import json
import sys
from time import perf_counter


def main(src: str, config: str, overrides: str) -> int:
    t0 = perf_counter()
    sys.path.insert(0, src)
    import compbss.cli  # noqa: F401 - the import is part of what is timed
    from compbss.campaign import CampaignConfig, build_context

    cfg = CampaignConfig.from_file(config)
    for key, value in json.loads(overrides).items():
        setattr(cfg, key, value)
    build_context(cfg)
    print(repr(perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
