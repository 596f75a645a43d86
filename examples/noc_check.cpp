/**
 * @file
 * noc_check: audits the deadlock-freedom of every shipped architecture x
 * routing x VC-configuration combination by building the extended
 * channel dependency graph and proving it acyclic (see
 * src/check/deadlock.h).
 *
 * Usage:
 *   noc_check [--mesh WxH]   audit the full shipped matrix (default 8x8)
 *   noc_check --broken       audit deliberately mis-balanced RoCo VC
 *                            tables and print their counterexample
 *                            cycles (exits 0 when every broken table is
 *                            correctly rejected)
 *   noc_check --service      audit the closed-loop service layer: prove
 *                            the protocol-deadlock avoidance scheme each
 *                            shipped arch x routing combination resolves
 *                            to, then confirm the prover rejects the
 *                            shared-pool and forced-RoCo-partition
 *                            schemes with counterexample cycles
 *
 * Exit status: 0 when every audited configuration has the expected
 * verdict, 1 otherwise.
 */
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "check/deadlock.h"
#include "common/config.h"
#include "common/types.h"
#include "svc/protocol.h"
#include "topology/mesh.h"

using namespace noc;

namespace {

constexpr RoutingKind kRoutings[] = {RoutingKind::XY, RoutingKind::XYYX,
                                     RoutingKind::Adaptive};

int
auditShipped(int width, int height)
{
    MeshTopology topo(width, height);
    std::printf("noc_check: %dx%d mesh, shipped VC configurations\n\n",
                width, height);
    int failures = 0;
    for (RoutingKind kind : kRoutings) {
        check::ProofResult results[3] = {
            check::proveRoco(topo, kind,
                             check::RocoCheckOptions::shipped(kind)),
            check::proveGeneric(topo, kind, 3),
            check::provePathSensitive(topo, kind, 3),
        };
        for (const check::ProofResult &r : results) {
            std::printf("  %s\n", r.summary().c_str());
            if (!r.deadlockFree) {
                std::printf("%s", r.renderCycle().c_str());
                ++failures;
            }
        }
    }
    std::printf("\n%s\n", failures == 0
                              ? "All shipped configurations proved "
                                "deadlock-free."
                              : "DEADLOCK-CAPABLE CONFIGURATION SHIPPED.");
    return failures == 0 ? 0 : 1;
}

/**
 * Audits intentionally broken RoCo VC tables; "pass" means the prover
 * rejects them with a concrete counterexample cycle.
 */
int
auditBroken(int width, int height)
{
    MeshTopology topo(width, height);
    std::printf("noc_check: %dx%d mesh, deliberately broken RoCo VC "
                "tables\n\n",
                width, height);

    struct BrokenCase {
        const char *name;
        check::RocoCheckOptions opts;
    };
    check::RocoCheckOptions noPartition =
        check::RocoCheckOptions::shipped(RoutingKind::XYYX);
    noPartition.orderPartition = false;
    check::RocoCheckOptions merged =
        check::RocoCheckOptions::shipped(RoutingKind::XYYX);
    merged.orderPartition = false;
    merged.mergeTurnClasses = true;
    const BrokenCase cases[] = {
        {"XY-YX without the order partition (both dimension orders "
         "share every dx/dy slot)",
         noPartition},
        {"XY-YX with turn classes merged into one unrestricted pool",
         merged},
    };

    int failures = 0;
    for (const BrokenCase &c : cases) {
        check::ProofResult r =
            check::proveRoco(topo, RoutingKind::XYYX, c.opts);
        std::printf("  case: %s\n  %s\n", c.name, r.summary().c_str());
        if (r.deadlockFree) {
            std::printf("  ERROR: prover failed to reject this table\n\n");
            ++failures;
        } else {
            std::printf("%s\n", r.renderCycle().c_str());
        }
    }
    std::printf("%s\n", failures == 0
                            ? "All broken tables correctly rejected."
                            : "PROVER MISSED A BROKEN TABLE.");
    return failures == 0 ? 0 : 1;
}

/**
 * Audits the closed-loop service layer.  Every shipped arch x routing
 * combination must prove deadlock-free under the avoidance scheme its
 * config resolves to, and the two known-unsound schemes (shared pool;
 * the class partition forced onto RoCo's module-keyed injection
 * classes) must be rejected with concrete counterexample cycles.
 */
int
auditService(int width, int height)
{
    MeshTopology topo(width, height);
    std::printf("noc_check: %dx%d mesh, closed-loop service protocol "
                "layer\n\n",
                width, height);

    constexpr RouterArch kServiceArchs[] = {
        RouterArch::Generic, RouterArch::Roco, RouterArch::PathSensitive};

    int failures = 0;
    for (RouterArch arch : kServiceArchs) {
        for (RoutingKind kind : kRoutings) {
            SimConfig cfg;
            cfg.meshWidth = width;
            cfg.meshHeight = height;
            cfg.arch = arch;
            cfg.routing = kind;
            cfg.svc.enabled = true;
            check::ProofResult r = check::proveService(cfg);
            std::printf("  scheme=%-16s %s\n",
                        svc::toString(svc::resolveScheme(cfg)),
                        r.summary().c_str());
            if (!r.deadlockFree) {
                std::printf("%s", r.renderCycle().c_str());
                ++failures;
            }
        }
    }

    struct UnsoundCase {
        const char *name;
        check::ProofResult result;
    };
    const UnsoundCase cases[] = {
        {"generic/XYYX with requests and replies in one shared VC pool",
         check::proveServiceGeneric(topo, RoutingKind::XYYX, 3,
                                    svc::AvoidanceScheme::SharedPool)},
        {"RoCo/XYYX with the class partition forced (module-keyed "
         "injection classes share InjYx between straight-column "
         "requests and replies)",
         check::proveServiceRoco(
             topo, RoutingKind::XYYX,
             check::RocoCheckOptions::shipped(RoutingKind::XYYX),
             svc::AvoidanceScheme::ClassPartition)},
    };
    std::printf("\n  known-unsound schemes (must be rejected):\n");
    for (const UnsoundCase &c : cases) {
        std::printf("  case: %s\n  %s\n", c.name,
                    c.result.summary().c_str());
        if (c.result.deadlockFree) {
            std::printf("  ERROR: prover failed to reject this "
                        "scheme\n\n");
            ++failures;
        } else {
            std::printf("%s\n", c.result.renderCycle().c_str());
        }
    }

    std::printf("%s\n",
                failures == 0
                    ? "All service configurations proved protocol-"
                      "deadlock-free."
                    : "SERVICE PROTOCOL AUDIT FAILED.");
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    int width = 8;
    int height = 8;
    bool broken = false;
    bool service = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--broken") == 0) {
            broken = true;
        } else if (std::strcmp(argv[i], "--service") == 0) {
            service = true;
        } else if (std::strcmp(argv[i], "--mesh") == 0 && i + 1 < argc) {
            // WxH: both halves whole numbers in
            // [kMinMeshSide, kMaxMeshSide].
            const std::string_view v = argv[++i];
            const std::size_t x = v.find('x');
            const std::optional<int> w = parseNumber<int>(v.substr(0, x));
            const std::optional<int> h =
                x == std::string_view::npos
                    ? std::nullopt
                    : parseNumber<int>(v.substr(x + 1));
            if (!w || !h || *w < kMinMeshSide || *h < kMinMeshSide ||
                *w > kMaxMeshSide || *h > kMaxMeshSide) {
                std::fprintf(stderr, "noc_check: bad --mesh '%s'\n",
                             argv[i]);
                return 2;
            }
            width = *w;
            height = *h;
        } else {
            std::fprintf(stderr, "usage: noc_check [--mesh WxH] "
                                 "[--broken] [--service]\n");
            return 2;
        }
    }
    if (service)
        return auditService(width, height);
    return broken ? auditBroken(width, height)
                  : auditShipped(width, height);
}
