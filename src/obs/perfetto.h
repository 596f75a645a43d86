/**
 * @file
 * Chrome/Perfetto trace_event exporter.
 *
 * Serialises a Recorder's per-router rings into the Trace Event JSON
 * format (load in ui.perfetto.dev or chrome://tracing): one process
 * per router, one thread track per hardware lane (RoCo row/column
 * module, PS quadrant, generic pipeline), "X" complete slices for
 * residency intervals, "i" instants for terminal events and one async
 * "b"/"e" pair spanning each traced packet's lifetime. Cycle
 * timestamps are emitted 1:1 as microseconds so the UI's time axis
 * reads directly in cycles.
 */
#ifndef ROCOSIM_OBS_PERFETTO_H_
#define ROCOSIM_OBS_PERFETTO_H_

#include <string>

namespace noc::obs {

class Recorder;

/** The full trace as a Trace Event JSON object. */
std::string perfettoJson(const Recorder &rec);

/**
 * Writes perfettoJson() to @p path; false on I/O failure, the file
 * closed and checked. A regular file (or a path that does not exist
 * yet) is replaced by renaming a temp file written beside it, so it
 * always holds exactly one whole trace: when several runs write one
 * path at once (a pooled sweep traced with NOC_TRACE_OUT), the last
 * to finish wins. A device, pipe or symlink is written in place.
 */
bool writePerfetto(const Recorder &rec, const std::string &path);

} // namespace noc::obs

#endif // ROCOSIM_OBS_PERFETTO_H_
