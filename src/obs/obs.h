/**
 * @file
 * Observability gate: compile-time switch + the hook macro.
 *
 * The obs subsystem (ring-buffer flit tracing, HDR latency histograms,
 * Perfetto export) is always *compiled* into librocosim so exporters,
 * tests and the sweep aggregation machinery exist in every build; only
 * the hot-path instrumentation hooks inside the routers/NICs are gated:
 *
 *   compile time - the NOC_OBS CMake option (default OFF) defines
 *                  NOC_OBS_HOOKS=1; without it every NOC_OBS(...) hook
 *                  collapses to nothing and the simulator binary pays
 *                  zero instrumentation tax (guarded by bench_smoke).
 *   runtime      - hooks only fire when a Recorder is attached; the
 *                  Simulator attaches one automatically when the
 *                  NOC_TRACE env var is set (NOC_TRACE_SAMPLE thins
 *                  the traced packet stream deterministically).
 */
#ifndef ROCOSIM_OBS_OBS_H_
#define ROCOSIM_OBS_OBS_H_

#if defined(NOC_OBS_HOOKS) && NOC_OBS_HOOKS
#define NOC_OBS_BUILT 1
#else
#define NOC_OBS_BUILT 0
#endif

namespace noc::obs {

class Recorder;

/** True when the instrumentation hooks are compiled in (NOC_OBS=ON). */
inline constexpr bool kBuiltIn = NOC_OBS_BUILT != 0;

} // namespace noc::obs

/**
 * Wraps one instrumentation statement. Compiles to nothing when the
 * hooks are off; the statement itself must null-check its recorder:
 *
 *   NOC_OBS(if (obs_) obs_->record(obs::Stage::VaGrant, f, id(), now));
 */
#if NOC_OBS_BUILT
#define NOC_OBS(stmt)                                                   \
    do {                                                                \
        stmt;                                                           \
    } while (0)
#else
#define NOC_OBS(stmt)                                                   \
    do {                                                                \
    } while (0)
#endif

#endif // ROCOSIM_OBS_OBS_H_
