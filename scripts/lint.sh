#!/usr/bin/env bash
# lint.sh — the repo's full static-analysis gate:
#
#   1. go vet (stock toolchain vet)
#   2. cmd/mdsvet (repo-specific determinism/service analyzers + the
#      bundled x/tools passes; see internal/analysis)
#   3. staticcheck, pinned (skipped when not installed: the repo builds
#      offline, so the local gate must not depend on network access)
#   4. govulncheck, pinned (same skip rule)
#   5. oracle guard: the reference implementations the equivalence tests
#      compare against (core.Alg1Sequential, mds.referenceBDominating, and
#      graphio's streaming text parsers readEdgeList/readDIMACS with their
#      string tokenizer token/splitFields/parseVertex/stripComment/
#      parseDIMACSVertex) may be declared only in _test.go files, never in
#      the production build
#
# CI installs the pinned versions and runs all five. Exits nonzero on
# any finding.
set -euo pipefail
cd "$(dirname "$0")/.."

# Pinned external linter versions; CI installs exactly these.
STATICCHECK_VERSION="2025.1"
GOVULNCHECK_VERSION="v1.1.4"

echo "==> go vet"
go vet ./...

echo "==> mdsvet"
go run ./cmd/mdsvet ./...

if command -v staticcheck >/dev/null 2>&1; then
  echo "==> staticcheck ($(staticcheck -version 2>/dev/null || true))"
  staticcheck ./...
else
  echo "==> staticcheck not installed; skipped (CI pins ${STATICCHECK_VERSION})"
fi

if command -v govulncheck >/dev/null 2>&1; then
  echo "==> govulncheck"
  govulncheck ./...
else
  echo "==> govulncheck not installed; skipped (CI pins ${GOVULNCHECK_VERSION})"
fi

echo "==> oracle guard"
oracle_decl='^(func|var|const|type)[[:space:]]+(\([^)]*\)[[:space:]]*)?(Alg1Sequential|referenceBDominating|readEdgeList|readDIMACS|token|splitFields|parseVertex|stripComment|parseDIMACSVertex)\b'
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=vendor --exclude-dir=testdata "$oracle_decl" .; then
  echo "test-only oracle declared in a non-test file; move it to a _test.go file" >&2
  exit 1
fi

echo "lint OK"
