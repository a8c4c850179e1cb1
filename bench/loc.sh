#!/bin/sh
# Prints the number of lines in the .ml and .mli files under lib/ and
# bin/: the figure ROADMAP item 4's line target is measured in.
#
# Usage: bench/loc.sh [REPO_ROOT]   (default: the checkout holding this script)
set -eu
cd "${1:-$(dirname "$0")/..}"
find lib bin -type f \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l | tr -d ' '
