#!/usr/bin/env bash
# fma_check.sh — fail if the compiler fuses a multiply-add anywhere in the
# packages behind the bit-identical digests.
#
# Go may compile x*y + z into one fused multiply-add (FMA) on arm64,
# ppc64le, s390x and riscv64, which rounds once instead of twice. amd64
# never fuses without an explicit math.FMA, so a digest computed there
# could differ on the other architectures. An explicit float64(x*y)
# conversion forbids the fusion (Go spec, "Arithmetic operators").
#
# The check cross-compiles the deterministic packages for each of those
# architectures with -gcflags=-S and greps the assembly for FMA opcodes.
# It prints every fused site as arch: file:line and exits 1 if any exist.
#
#   bash scripts/fma_check.sh
#
# Needs only the Go toolchain; runs from any working directory.
set -euo pipefail

cd "$(dirname "$0")/.."

pkgs=(rng gen graph osn pagerank core sim stats theory)
arches=(arm64 ppc64le s390x riscv64)
# arm64/riscv64: FMADDD, FMSUBD, FNMADDD, FNMSUBD (and the S forms);
# ppc64le/s390x: FMADD, FMSUB, FNMADD, FNMSUB; s390x vector: WFMADB, WFMSDB.
opcodes='[[:space:]](F|FN)M(ADD|SUB)[A-Z]*[[:space:]]|[[:space:]]WFM(A|S)DB[[:space:]]'

targets=()
for p in "${pkgs[@]}"; do
	targets+=("./internal/$p")
done

out=$(mktemp)
trap 'rm -f "$out"' EXIT

found=0
for arch in "${arches[@]}"; do
	# -a is not needed: the go command replays cached compiler output,
	# so -S listings appear for cached packages too. Only the named
	# packages get -S (the gcflags pattern defaults to them).
	if ! GOOS=linux GOARCH="$arch" go build -gcflags=-S -o /dev/null "${targets[@]}" 2>"$out"; then
		cat "$out" >&2
		echo "fma_check: GOARCH=$arch build failed" >&2
		exit 2
	fi
	sites=$(grep -E "$opcodes" "$out" | grep -oE '\([^()]*\.go:[0-9]+\)' | tr -d '()' | sort -u || true)
	if [[ -n "$sites" ]]; then
		found=1
		while IFS= read -r site; do
			echo "$arch: ${site#"$PWD/"}"
		done <<<"$sites"
	fi
done

if [[ $found -ne 0 ]]; then
	echo "fma_check: fused multiply-add found; wrap the product in float64(...) at each site above" >&2
	exit 1
fi
echo "fma_check: no fused multiply-adds in ${pkgs[*]} on ${arches[*]}"
