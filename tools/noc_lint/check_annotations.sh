#!/bin/sh
# CI guard: every pipeline-stage source under src/par, src/router,
# src/sim, src/svc and src/topology must opt into the phase vocabulary
# (include
# common/annotations.h and carry at least one NOC_PHASE_FN). A new
# router, engine or NIC file with no annotations at all would silently
# escape the phase-discipline and ownership checks, because noc_lint
# only judges functions it knows the phase of.
#
# Headers that define no member functions (pure data/config) are
# exempt via the allowlist below. An allowlist entry must name a file
# the guard scans: a stale one exempts nothing today and would
# silently exempt a future file of that name, so it fails the check
# (like noc_lint's stale-allow rule).
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/../.." && pwd)

# Files under the guarded directories that legitimately carry no phase
# annotations: pure data, config, tables or leaf utilities that never
# touch per-cycle router state. One repo-relative path a line, matched
# whole.
allow='
src/par/barrier.h
src/sim/run_control.h
src/svc/protocol.h
src/svc/protocol.cpp
src/topology/channel.h
src/topology/mesh.h
src/topology/mesh.cpp
src/router/arbiter.h
src/router/arbiter.cpp
src/router/crossbar.h
src/router/vc_buffer.h
src/router/roco/mirror_allocator.h
src/router/roco/mirror_allocator.cpp
'

files=$(cd "$repo" && find src/par src/router src/sim src/svc src/topology \
            \( -name '*.h' -o -name '*.cpp' \) | sort)

fail=0
for a in $allow; do
    if ! printf '%s\n' "$files" | grep -qxF "$a"; then
        echo "check_annotations: allowlist entry $a names no guarded" \
             "source; delete it from tools/noc_lint/check_annotations.sh" >&2
        fail=1
    fi
done

for rel in $files; do
    f=$repo/$rel
    if printf '%s\n' "$allow" | grep -qxF "$rel"; then
        continue
    fi
    # A .cpp whose sibling header carries the annotations is covered:
    # NOC_PHASE_FN lives on declarations.
    case "$rel" in
    *.cpp)
        hdr=${f%.cpp}.h
        if [ -f "$hdr" ] && grep -q 'NOC_PHASE_FN' "$hdr"; then
            continue
        fi
        ;;
    esac
    if ! grep -q 'NOC_PHASE_FN' "$f"; then
        echo "check_annotations: $rel has no NOC_PHASE_FN annotation;" \
             "annotate its pipeline entry points or add it to the" \
             "allowlist in tools/noc_lint/check_annotations.sh" >&2
        fail=1
    fi
done

if [ "$fail" = 0 ]; then
    echo "check_annotations: all pipeline sources carry phase annotations"
fi
exit $fail
