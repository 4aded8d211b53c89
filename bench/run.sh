#!/usr/bin/env bash
# The benchmark's one command. Builds the stand-alone bench package (offline)
# and runs it:
#
#   bench/run.sh [--seed S] [--workload NAME] [--seconds T] [--json FILE]
#       every workload (or one), timed + traced pass, all metrics by name
#   bench/run.sh --workload NAME --seed S --seconds T --trace 0|1
#       one driver run: prints the one-line JSON result last
#
# `bench/run.sh compare A.json B.json` and `bench/run.sh manifest` reach the
# other subcommands.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
case "${1:-}" in
  compare|manifest) sub="$1"; shift ;;
  *) sub=run ;;
esac
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$sub" "$@"
