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
# exempt via the allowlist below.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/../.." && pwd)

# Files under the guarded directories that legitimately carry no phase
# annotations: pure data, config, tables or leaf utilities that never
# touch per-cycle router state. The src/farm sources are process
# orchestration (journal, fork driver) around whole simulations —
# they never enter the router pipeline, so the whole module is
# exempt; noc_lint still applies its determinism and wall-clock
# rules to them file-by-file.
allow='
src/farm/farm.h
src/farm/farm.cpp
src/farm/journal.h
src/farm/journal.cpp
src/farm/wire.h
src/farm/wire.cpp
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
src/router/matching.h
src/router/matching.cpp
src/router/vc_buffer.h
src/router/roco/vc_config.h
src/router/roco/vc_config.cpp
src/router/roco/mirror_allocator.h
src/router/roco/mirror_allocator.cpp
src/router/pathsensitive/pef.h
src/router/pathsensitive/pef.cpp
'

fail=0
for f in $(find "$repo/src/farm" "$repo/src/par" "$repo/src/router" \
               "$repo/src/sim" "$repo/src/svc" "$repo/src/topology" \
               \( -name '*.h' -o -name '*.cpp' \) | sort); do
    rel=${f#"$repo/"}
    case "$allow" in
    *"$rel"*) continue ;;
    esac
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
