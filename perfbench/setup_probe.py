"""Cold-start probe, run in a fresh interpreter by run.py.

Usage: python3 perfbench/setup_probe.py SRC_DIR MODULE[,MODULE...] -- ARGV...

Times, from the probe's first statement: importing `hypdiss.cli` and the
modules the command uses, parsing ARGV with the CLI's parser, building the
model and normalizing B^{00}, i.e. everything before the first operation.
Prints {"setup_s": seconds} as its last line.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main(argv):
    sep = argv.index("--")
    src, modules, cli_argv = argv[0], argv[1].split(","), argv[sep + 1:]
    sys.path.insert(0, src)
    cli = importlib.import_module("hypdiss.cli")
    for mod in modules:
        importlib.import_module(mod)
    from hypdiss.model import (FluidParameters, builtin_barotropic_fluid,
                               ensure_normalized, load_model)

    args = cli.build_parser().parse_args(cli_argv)
    if args.model:
        model = load_model(args.model)
    else:
        model = builtin_barotropic_fluid(FluidParameters(
            r=args.r, mu=args.mu, nu=args.nu, eta=args.eta, zeta=args.zeta))
    ensure_normalized(model)
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main(sys.argv[1:])
