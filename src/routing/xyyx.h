/**
 * @file
 * Oblivious XY-YX routing: each packet commits to X-first or Y-first
 * order at the source (Flit::yxOrder) and follows it deterministically.
 * Deadlock freedom requires separating the two orders onto disjoint VC
 * classes (the paper adds two dx VCs for this; see check/slot_rules).
 */
#ifndef ROCOSIM_ROUTING_XYYX_H_
#define ROCOSIM_ROUTING_XYYX_H_

#include "routing/routing.h"

namespace noc {

class XyYxRouting : public RoutingAlgorithm
{
  public:
    using RoutingAlgorithm::RoutingAlgorithm;

    RoutingKind kind() const override { return RoutingKind::XYYX; }
    DirectionSet route(NodeId cur, const Flit &f) const override;
};

} // namespace noc

#endif // ROCOSIM_ROUTING_XYYX_H_
