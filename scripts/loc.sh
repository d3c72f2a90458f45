#!/bin/sh
# Non-test Go and assembly lines per package for internal/{core,nn,mat}:
# the number ROADMAP's "least code" target is counted in. Raw `wc -l`
# over the committed sources (comments and blank lines included), so the
# figure is reproducible from any checkout.
# Run from the repository root: scripts/loc.sh
set -eu

total_go=0
total_asm=0
for pkg in core nn mat; do
	dir=internal/$pkg
	go_lines=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	asm_lines=$(find "$dir" -maxdepth 1 -name '*.s' -exec cat {} + | wc -l)
	printf 'loc: %-14s %6d go %5d asm\n' "$dir" "$go_lines" "$asm_lines"
	total_go=$((total_go + go_lines))
	total_asm=$((total_asm + asm_lines))
done
printf 'loc: %-14s %6d go %5d asm\n' total "$total_go" "$total_asm"
