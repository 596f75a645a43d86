/**
 * @file
 * noc_model: exhaustive liveness audit of the shipped architecture x
 * routing matrix via the explicit-state model checker (src/model).
 *
 * For every selected (architecture, routing) pair it proves, on 2x2
 * and 3x3 meshes:
 *   - starvation-freedom of the allocators (component tier: real
 *     round-robin arbiters and the Mirroring-Effect SA with its 2:1
 *     global arbiter, explored exhaustively);
 *   - livelock-freedom (a monotone progress measure on every reachable
 *     transition of the packet micro-model);
 *   - graceful-degradation soundness across the Table 3 fault matrix
 *     (every in-flight packet delivered or deterministically dropped;
 *     no stranding; row/column module independence under RoCo).
 *
 * Usage:
 *   noc_model [--arch roco|generic|ps] [--routing xy|xyyx|adaptive]
 *             audit the (filtered) matrix
 *   noc_model --refine
 *             additionally replay every scenario through the real
 *             Simulator pipeline and cross-check (model/refine.h)
 *   noc_model --broken greedy-tie|endless-packets|nonminimal|no-drop
 *             run a deliberately broken variant; exits 0 when the
 *             checker rejects it with a rendered counterexample
 *
 * Exit status: 0 when every audited property has the expected verdict,
 * 1 otherwise, 2 on usage errors.
 */
#include <cstdio>
#include <cstring>
#include <optional>
#include <vector>

#include "model/arbiter_check.h"
#include "model/liveness.h"
#include "model/refine.h"

using namespace noc;

namespace {

constexpr RouterArch kArchs[] = {RouterArch::Roco, RouterArch::Generic,
                                 RouterArch::PathSensitive};
constexpr RoutingKind kRoutings[] = {RoutingKind::XY, RoutingKind::XYYX,
                                     RoutingKind::Adaptive};

int
auditMatrix(std::optional<RouterArch> archFilter,
            std::optional<RoutingKind> routingFilter, bool refine)
{
    std::printf("noc_model: exhaustive liveness audit%s\n\n",
                refine ? " + Simulator refinement" : "");
    int failures = 0;

    std::printf("component tier (real arbiter objects):\n");
    for (int size : {2, 3, 5}) {
        model::ArbiterCheckResult r =
            model::checkRoundRobinBoundedWait(size);
        std::printf("  %s\n", r.summary().c_str());
        if (!r.ok) {
            std::printf("%s", r.counterexample.c_str());
            ++failures;
        }
    }
    {
        model::ArbiterCheckResult r =
            model::checkMirrorAllocatorBoundedWait();
        std::printf("  %s\n", r.summary().c_str());
        if (!r.ok) {
            std::printf("%s", r.counterexample.c_str());
            ++failures;
        }
    }

    for (RouterArch arch : kArchs) {
        if (archFilter && arch != *archFilter)
            continue;
        for (RoutingKind kind : kRoutings) {
            if (routingFilter && kind != *routingFilter)
                continue;
            std::printf("\n%s / %s:\n", toString(arch), toString(kind));
            for (int dim : {2, 3}) {
                for (const model::Scenario &sc :
                     model::scenarioMatrix(arch, kind, dim, dim)) {
                    model::ModelResult r = model::explore(sc);
                    std::printf("  %s\n", r.summary().c_str());
                    if (!r.ok) {
                        std::printf("%s", r.counterexample.c_str());
                        ++failures;
                        continue;
                    }
                    if (refine) {
                        model::RefineResult rr =
                            model::replayScenario(sc);
                        std::printf("  %s\n", rr.summary().c_str());
                        if (!rr.ok)
                            ++failures;
                    }
                }
            }
        }
    }

    std::printf("\n%s\n",
                failures == 0
                    ? "All liveness properties proved (starvation, "
                      "livelock, degradation)."
                    : "LIVENESS VIOLATION IN A SHIPPED CONFIGURATION.");
    return failures == 0 ? 0 : 1;
}

/**
 * Runs one deliberately broken variant; "pass" means the checker
 * rejects it and renders a concrete counterexample.
 */
int
auditBroken(const char *which)
{
    std::printf("noc_model: deliberately broken variant '%s'\n\n", which);
    bool rejected = false;
    std::string trace;

    if (std::strcmp(which, "greedy-tie") == 0) {
        // Non-rotating 2:1 global arbiter: the crossed pair starves.
        model::MirrorCheckOptions o;
        o.rotatingTie = false;
        model::ArbiterCheckResult r =
            model::checkMirrorAllocatorBoundedWait(o);
        std::printf("  %s\n", r.summary().c_str());
        rejected = !r.ok;
        trace = r.counterexample;
    } else if (std::strcmp(which, "endless-packets") == 0) {
        // No packet boundaries: two straight streams outweigh a
        // crossed requester forever.
        model::MirrorCheckOptions o;
        o.packetBoundaries = false;
        model::ArbiterCheckResult r =
            model::checkMirrorAllocatorBoundedWait(o);
        std::printf("  %s\n", r.summary().c_str());
        rejected = !r.ok;
        trace = r.counterexample;
    } else if (std::strcmp(which, "nonminimal") == 0) {
        model::ModelResult r = model::explore(
            model::brokenModelScenario(
                model::Mutation::NonMinimalRouting));
        std::printf("  %s\n", r.summary().c_str());
        rejected = !r.ok;
        trace = r.counterexample;
    } else if (std::strcmp(which, "no-drop") == 0) {
        model::ModelResult r = model::explore(
            model::brokenModelScenario(model::Mutation::NoFaultDrop));
        std::printf("  %s\n", r.summary().c_str());
        rejected = !r.ok;
        trace = r.counterexample;
    } else {
        std::fprintf(stderr, "noc_model: unknown --broken '%s'\n",
                     which);
        return 2;
    }

    if (!rejected) {
        std::printf(
            "\nERROR: checker failed to reject the broken variant\n");
        return 1;
    }
    std::printf("\ncounterexample trace:\n%s", trace.c_str());
    std::printf("\nBroken variant correctly rejected.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::optional<RouterArch> archFilter;
    std::optional<RoutingKind> routingFilter;
    const char *broken = nullptr;
    bool refine = false;
    auto usage = [] {
        std::fprintf(stderr, "usage: noc_model [--arch roco|generic|ps] "
                             "[--routing xy|xyyx|adaptive] [--refine] "
                             "[--broken VARIANT]\n");
        return 2;
    };
    for (int i = 1; i < argc; ++i) {
        const bool hasValue = i + 1 < argc;
        if (std::strcmp(argv[i], "--arch") == 0 && hasValue) {
            archFilter = parseArch(argv[++i]);
            if (!archFilter)
                return usage();
        } else if (std::strcmp(argv[i], "--routing") == 0 && hasValue) {
            routingFilter = parseRouting(argv[++i]);
            if (!routingFilter)
                return usage();
        } else if (std::strcmp(argv[i], "--broken") == 0 && hasValue) {
            broken = argv[++i];
        } else if (std::strcmp(argv[i], "--refine") == 0) {
            refine = true;
        } else {
            return usage();
        }
    }
    return broken ? auditBroken(broken)
                  : auditMatrix(archFilter, routingFilter, refine);
}
