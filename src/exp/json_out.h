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
 * resultJson() renders the "result" object of every BENCH json, the
 * farm's result shards store that same text and its aggregator copies
 * it unchanged, and the tests print a SimResult that fails a
 * comparison through it.
 */
#ifndef ROCOSIM_EXP_JSON_OUT_H_
#define ROCOSIM_EXP_JSON_OUT_H_

#include <string>
#include <string_view>
#include <vector>

#include "exp/sweep.h"

namespace noc::exp {

/**
 * Knobs for the sweep serialiser beyond the classic schema-3 output.
 *
 * Schema 4 (the sweep-farm format, src/farm) adds a per-point "job"
 * provenance block and is designed so resumed, multi-process and
 * single-shot runs can emit *byte-identical* files:
 *
 *  - @c canonical zeroes every wall-clock field (point wallMs,
 *    totalWallMs), reports threads as 0 (process count is operational
 *    metadata, not part of the result) and omits the "obs" block.
 *    Simulation results are a pure function of config and seed, so a
 *    canonical file's bytes depend on nothing else.
 *  - @c jobIds attaches {"job": {"id": ...}} to each point (ids come
 *    from farm::jobIds — a stable hash of config + seed + faults, so
 *    they are as deterministic as the results themselves).
 *  - @c provenance additionally records each point's attempt count,
 *    committing worker and real wall time. That block is operational
 *    truth (it differs between a resumed and an uninterrupted run), so
 *    turning it on deliberately trades the byte-identity contract; the
 *    farm only emits it under `noc_farm --provenance`.
 *
 * Schema-3 readers that ignore unknown keys see only the version bump.
 */
struct JsonOptions {
    int schema = 3;
    bool canonical = false;

    /** Per-point job ids in point order (enables the "job" blocks). */
    const std::vector<std::string> *jobIds = nullptr;

    /** One point's operational provenance (farm journal metadata). */
    struct PointProvenance {
        std::uint32_t attempt = 0; ///< lease attempts incl. the committer
        int worker = -1;           ///< committing worker index
        double wallMs = 0;         ///< real wall time of the committed run
    };
    /** In point order; only emitted when non-null (needs jobIds too). */
    const std::vector<PointProvenance> *provenance = nullptr;
};

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
 * {count, overflow, min, max, mean, p50, p90, p99, p999}. @p opts
 * selects schema 4 (the farm's format, see JsonOptions).
 */
std::string sweepJson(const SweepSpec &spec, const SweepResults &res,
                      const JsonOptions &opts = {});

/**
 * The pieces sweepJson is assembled from, exposed so the farm's
 * streaming aggregator (src/farm) can emit the *same bytes* one point
 * at a time without ever holding the whole file in memory. A sweep
 * file is exactly:
 *
 *   sweepJsonHeader(...) + for each point in index order:
 *       pointJson(point, seed, wallMs, resultJson(result), opts)
 *       + ("," if not last) + "\n"
 *   + sweepJsonFooter()
 *
 * pointJson returns the single-line "    {...}" fragment with no
 * trailing comma or newline, with @p result embedded verbatim as its
 * "result" value. Byte-identity between farm-aggregated and
 * in-process files is a tested contract (farm_test, bench_smoke), so
 * change these only in lockstep.
 */
std::string sweepJsonHeader(const SweepSpec &spec, int threads,
                            double totalWallMs, const obs::Summary *obsSum,
                            const JsonOptions &opts);
std::string pointJson(const SweepPoint &p, std::uint64_t seed,
                      double wallMs, std::string_view result,
                      const JsonOptions &opts);
const char *sweepJsonFooter();

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
 * when skipped / on I/O failure (failure also logs a warning — benches
 * should not die over a read-only working directory).
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
