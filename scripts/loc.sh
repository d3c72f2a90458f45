#!/bin/sh
# Non-test Go and assembly lines per package for internal/{core,nn,mat}:
# the number ROADMAP's "least code" target is counted in. Raw `wc -l`
# over the committed sources (comments and blank lines included), so the
# figure is reproducible from any checkout.
#
# The count is a ratchet: the totals may not exceed the ceilings below,
# which are the totals of the last PR that lowered them. A PR that
# shrinks the tree lowers the ceilings to its own totals; a PR that must
# grow it raises them in the same diff and says why in CHANGES.md.
#
# The module line is the non-test Go count outside bench/ (the frozen
# benchmark harness), gated against its own ceiling the same way, so
# growth outside internal/{core,nn,mat} shows up somewhere too. The last
# line is DESIGN.md's length against its ceiling, so the design document
# cannot regrow without a diff that says why.
# Run from the repository root: scripts/loc.sh
set -eu

ceiling_go=6513
ceiling_asm=1406
ceiling_module=16853
ceiling_design=930

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
printf 'loc: %-14s %6d go %5d asm (ceiling %d go %d asm)\n' total "$total_go" "$total_asm" "$ceiling_go" "$ceiling_asm"
module_go=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l)
printf 'loc: %-14s %6d go (every non-test .go file outside bench/; ceiling %d)\n' module "$module_go" "$ceiling_module"
if [ "$total_go" -gt "$ceiling_go" ] || [ "$total_asm" -gt "$ceiling_asm" ]; then
	echo "loc.sh: internal/{core,nn,mat} grew past its ceiling" >&2
	exit 1
fi
if [ "$module_go" -gt "$ceiling_module" ]; then
	echo "loc.sh: the module grew past its ceiling" >&2
	exit 1
fi
design=$(wc -l <DESIGN.md)
printf 'loc: %-14s %6d lines (ceiling %d)\n' DESIGN.md "$design" "$ceiling_design"
if [ "$design" -gt "$ceiling_design" ]; then
	echo "loc.sh: DESIGN.md grew past its ceiling" >&2
	exit 1
fi
