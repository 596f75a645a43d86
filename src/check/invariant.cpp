#include "check/invariant.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/config.h"

namespace noc::check {

const char *
toString(InvariantKind k)
{
    switch (k) {
      case InvariantKind::CreditConservation: return "credit-conservation";
      case InvariantKind::WormholeOrder: return "wormhole-order";
      case InvariantKind::PathSetDiscipline: return "path-set-discipline";
      case InvariantKind::FaultConsistency: return "fault-consistency";
      case InvariantKind::StageMask: return "stage-mask";
    }
    return "?";
}

std::string
Violation::describe() const
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "protocol invariant violated: %s at cycle %llu, router "
                  "n%02u, port %s, vc %d: ",
                  toString(kind), static_cast<unsigned long long>(cycle),
                  static_cast<unsigned>(router), toString(port), vc);
    return std::string(buf) + detail;
}

namespace {

std::atomic<ViolationRecorder *> gRecorder{nullptr};
std::mutex gReportMutex;

} // namespace

bool
detail::readInvariantsEnv()
{
    const int v = envNumber<int>("NOC_INVARIANT", 1, 0, 1);
    invariantsState.store(v, std::memory_order_relaxed);
    return v == 1;
}

void
setInvariantsEnabled(bool on)
{
    detail::invariantsState.store(on ? 1 : 0, std::memory_order_relaxed);
}

ViolationRecorder *
setViolationRecorder(ViolationRecorder *recorder)
{
    return gRecorder.exchange(recorder, std::memory_order_acq_rel);
}

void
reportViolation(Violation v)
{
    if (ViolationRecorder *r = gRecorder.load(std::memory_order_acquire)) {
        // Serialise recorder callbacks: sweeps run simulators on a
        // thread pool and the recorder is process-global.
        std::lock_guard<std::mutex> lock(gReportMutex);
        r->onViolation(v);
        return;
    }
    std::fprintf(stderr, "%s\n", v.describe().c_str());
    std::abort();
}

void
WormholeOrderTracker::reportDisorder(const Flit &f, Cycle now,
                                     NodeId router, Direction port,
                                     int vc) const
{
    if (isHead(f.type)) {
        NOC_INVARIANT(!open_, InvariantKind::WormholeOrder, now, router,
                      port, vc,
                      "head of packet " + std::to_string(f.packetId) +
                          " arrived while packet " +
                          std::to_string(packetId_) + " is still open");
        NOC_INVARIANT(f.flitSeq == 0, InvariantKind::WormholeOrder, now,
                      router, port, vc,
                      "head flit of packet " +
                          std::to_string(f.packetId) +
                          " carries nonzero sequence " +
                          std::to_string(f.flitSeq));
    } else {
        NOC_INVARIANT(open_, InvariantKind::WormholeOrder, now, router,
                      port, vc,
                      "body/tail flit of packet " +
                          std::to_string(f.packetId) +
                          " arrived with no packet open");
        NOC_INVARIANT(!open_ || f.packetId == packetId_,
                      InvariantKind::WormholeOrder, now, router, port, vc,
                      "flit of packet " + std::to_string(f.packetId) +
                          " interleaved into open packet " +
                          std::to_string(packetId_));
        NOC_INVARIANT(!open_ || f.packetId != packetId_ ||
                          f.flitSeq == nextSeq_,
                      InvariantKind::WormholeOrder, now, router, port, vc,
                      "packet " + std::to_string(f.packetId) +
                          " delivered flit " + std::to_string(f.flitSeq) +
                          " out of order (expected " +
                          std::to_string(nextSeq_) + ")");
    }
}

} // namespace noc::check
