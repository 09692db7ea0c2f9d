#!/usr/bin/env bash
# Non-blank Rust lines per crate, split into src/ and tests/ ("total"
# also counts benches/ and examples/). The root package is "heaven";
# the standalone benchmark package is "e2ebench". Run from anywhere
# inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # non-blank lines of the .rs files under the given paths
  local files
  files=$(find "$@" -name '*.rs' -not -path '*/target/*' 2>/dev/null || true)
  if [ -z "$files" ]; then echo 0; return; fi
  # shellcheck disable=SC2086
  grep -hv '^[[:space:]]*$' $files | wc -l
}

printf '%-10s %7s %7s %7s\n' crate src tests total
row() { # name dir
  local src tests total
  src=$(count "$2/src")
  tests=$(count "$2/tests")
  total=$(count "$2/src" "$2/tests" "$2/benches" "$2/examples")
  printf '%-10s %7d %7d %7d\n' "$1" "$src" "$tests" "$total"
}
for dir in crates/*/; do
  row "$(basename "$dir")" "${dir%/}"
done
row heaven .
row e2ebench e2ebench
