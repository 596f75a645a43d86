/**
 * @file
 * Machine-readable sweep output.
 *
 * Each bench emits BENCH_<name>.json next to its text tables so plots
 * and regression tooling can consume results without screen-scraping.
 * The serialiser is a deliberately tiny hand-rolled emitter — the
 * schema is flat and fixed, and the container ships no JSON library.
 *
 * This is the one place a SimResult's field list is written out:
 * resultJson() renders the "result" object of every BENCH json, and
 * the tests print a SimResult that fails a comparison through it.
 */
#ifndef ROCOSIM_EXP_JSON_OUT_H_
#define ROCOSIM_EXP_JSON_OUT_H_

#include <string>

#include "exp/sweep.h"

namespace noc::exp {

/**
 * Serialises a finished sweep. Schema (version 3):
 * @code
 * {
 *   "schema": 3,
 *   "bench": "<spec.name>",
 *   "threads": N,
 *   "baseSeed": S,
 *   "warmupPackets": W,
 *   "measurePackets": M,
 *   "totalWallMs": T,
 *   "obs": { ... },            // only when tracing ran (see below)
 *   "points": [
 *     { "index": i, "arch": "...", "routing": "...", "traffic": "...",
 *       "rate": r, "faults": "<label>", "seed": s, "wallMs": w,
 *       "result": { ...every SimResult field, energy nested... } },
 *     ...
 *   ]
 * }
 * @endcode
 *
 * Version history: schema 3 added the optional per-result "classes"
 * block for closed-loop service runs (cfg.svc.enabled): one entry per
 * message class — {name, injected, delivered, avgLatency, p50Latency,
 * p99Latency, avgRtt, p99Rtt, rttCount, sloViolations} — plus the
 * flat replyCount / mshrThrottled / svcTimeouts / svcLateReplies /
 * drainCycles service diagnostics. Open-loop results omit the block,
 * so schema-2 consumers only see the version bump.
 * Schema 2 added warmupPackets / measurePackets and
 * the optional "obs" block (grid-wide merged trace summary: per-stage
 * residency histograms keyed by interval name, end-to-end latency
 * histograms overall / measured-only / per Manhattan distance, stage
 * event counts, sampling + ring-drop diagnostics and the RoCo
 * row/column path-set occupancy averages). Histograms serialise as
 * {count, overflow, min, max, mean, p50, p90, p99, p999}.
 */
std::string sweepJson(const SweepSpec &spec, const SweepResults &res);

/**
 * One SimResult as a single-line JSON object: every field, energy
 * nested, plus the "classes" block and service counters for
 * closed-loop runs (the "result" value documented at sweepJson).
 */
std::string resultJson(const SimResult &r);

/**
 * How every number in a BENCH json is written: a double as the
 * shortest decimal spelling that parses back to the same value, an
 * integer in plain decimal.
 */
void appendNum(std::string &out, double v);
void appendNum(std::string &out, std::uint64_t v);

/**
 * Writes sweepJson() to BENCH_<spec.name>.json.
 *
 * Honors NOC_BENCH_JSON=0 (skip entirely) and NOC_BENCH_JSON_DIR
 * (target directory, default "."). Returns the path written, or ""
 * when skipped or when the file could not be opened, written or
 * closed (a full disk may only show at close). A failure also logs a
 * warning — benches should not die over a read-only working directory.
 */
std::string writeSweepJson(const SweepSpec &spec, const SweepResults &res);

/**
 * Writes an already-serialised JSON body to BENCH_<name>.json under
 * the same NOC_BENCH_JSON / NOC_BENCH_JSON_DIR policy as
 * writeSweepJson. For benches whose output is not a plain sweep (e.g.
 * the scaling bench's speedup curves). Returns the path written, or
 * "" when skipped / on I/O failure.
 */
std::string writeBenchJson(const std::string &name, const std::string &body);

} // namespace noc::exp

#endif // ROCOSIM_EXP_JSON_OUT_H_
