/**
 * @file
 * Observability: the Recorder forward declaration the router and NIC
 * headers hold a pointer of, and the tracing gate.
 *
 * The obs subsystem (ring-buffer flit tracing, HDR latency histograms,
 * Perfetto export) and its pipeline hooks are compiled into every
 * build. A hook is one `if (obs_)` test: it records only when a
 * Recorder is attached. Simulator::run attaches one when the NOC_TRACE
 * env var is 1 (NOC_TRACE_SAMPLE thins the traced packet stream
 * deterministically; NOC_TRACE_OUT writes the Perfetto trace); tests
 * and exporters attach their own.
 */
#ifndef ROCOSIM_OBS_OBS_H_
#define ROCOSIM_OBS_OBS_H_

// Always 1: the hooks are always built. The constant stays because
// rocobench records it in every result header.
#define NOC_OBS_BUILT 1

namespace noc::obs {

class Recorder;

} // namespace noc::obs

#endif // ROCOSIM_OBS_OBS_H_
