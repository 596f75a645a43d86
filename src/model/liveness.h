/**
 * @file
 * Liveness proof matrix and the Simulator/SweepRunner validation gate.
 *
 * scenarioMatrix() builds, per (architecture, routing, mesh), the
 * scenarios the checker must prove: a fault-free crossing workload
 * (livelock / starvation / no-strand baseline) plus one scenario per
 * Table 3 fault reaction — RC double-routing, retired VC, degraded SA,
 * dead VA / crossbar module (with the row/column independence
 * obligation), and the unified designs' whole-node death.
 *
 * validateConfigLiveness() is the production entry point, invoked by
 * Simulator construction and SweepRunner pre-warm next to the deadlock
 * prover: it proves the (arch, routing) pair's 2x2 matrix plus the
 * component-tier arbiter checks once per process (memoized under a
 * mutex, NOC_SKIP_CHECK honored) and exits via fatal() with a rendered
 * counterexample on violation.  The 3x3 matrices run in the noc_model
 * ctest entries, keeping per-simulation overhead negligible; the rules
 * are translation-invariant and local, so the small meshes exercise
 * every (arrival, output, class) combination the large ones do.
 */
#ifndef ROCOSIM_MODEL_LIVENESS_H_
#define ROCOSIM_MODEL_LIVENESS_H_

#include <vector>

#include "common/config.h"
#include "model/explorer.h"

namespace noc::model {

/** The proof obligations for one (arch, routing, mesh) combination. */
std::vector<Scenario> scenarioMatrix(RouterArch arch, RoutingKind kind,
                                     int width, int height);

/**
 * A deliberately broken model variant for @p m, used to demonstrate
 * that the explorer produces a concrete counterexample trace for each
 * failure class it guards against (noc_model --broken, tests).
 */
Scenario brokenModelScenario(Mutation m);

/**
 * Proves liveness for @p cfg's (arch, routing) pair before simulation;
 * memoized on check::proofFingerprint(cfg, ProofScope::Liveness) —
 * operational knobs (pool size, shards, rate, seed) never force a
 * re-proof. Honors NOC_SKIP_CHECK, fatal() on violation.
 */
void validateConfigLiveness(const SimConfig &cfg);

/**
 * Process-wide count of liveness proofs actually performed (memo
 * misses). Monotonic; for tests and rocobench's proof counts.
 */
std::uint64_t livenessProofsPerformed();

} // namespace noc::model

#endif // ROCOSIM_MODEL_LIVENESS_H_
