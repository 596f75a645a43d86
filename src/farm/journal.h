/**
 * @file
 * The farm's persisted job queue: a journal directory that survives
 * kill -9 of any (or every) worker process.
 *
 * Layout of one journal (all paths under the journal dir):
 *
 *   MANIFEST.json            bench name, point count, spec fingerprint
 *   leases/<id>              live lease (flat JSON: pid/worker/attempt)
 *   leases/<id>.stale.<n>    tombstones of stolen leases
 *   shards/<id>              committed result (two lines, see Shard)
 *   shards/<id>.tmp.<pid>    in-flight commit, never read by others
 *
 * A job's state is derived purely from the filesystem — there is no
 * in-memory queue to lose:
 *
 *   pending = no shard, no lease       leased = lease file exists
 *   done    = shard file exists (the shard always wins over a lease)
 *
 * Every transition uses an atomic POSIX primitive so concurrent
 * workers on one host need no locks:
 *
 *   claim  = open(lease, O_CREAT|O_EXCL)       — exactly one winner
 *   steal  = rename(lease, tombstone) then claim with attempt+1; the
 *            rename is the race arbiter (losers get ENOENT)
 *   commit = write shards/<id>.tmp.<pid>, then link() it to the final
 *            name — EEXIST means a duplicate commit (both attempts ran
 *            the same deterministic job; first writer wins, the bytes
 *            are identical anyway)
 *
 * A lease is stealable when its holder pid is gone (kill(pid,0) ==
 * ESRCH — instant recovery from kill -9 on the same host) or when it
 * is older than the TTL (backstop for pid recycling / wedged workers).
 * Lease timestamps are the one place the farm reads the wall clock;
 * they are operational metadata and never reach a result file.
 */
#ifndef ROCOSIM_FARM_JOURNAL_H_
#define ROCOSIM_FARM_JOURNAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "farm/wire.h"

namespace noc::farm {

/**
 * Stable identity of one sweep point: an FNV-1a hash over every
 * result-affecting config field, the faults and the grid position.
 * Operational knobs (cfg.shards, cfg.idleSkip) are excluded — the
 * same design re-run under a different shard count is the same job.
 */
std::uint64_t jobKey(const exp::SweepPoint &p);

/** jobKey as the 16-hex-digit string used in journal filenames. */
std::string jobId(const exp::SweepPoint &p);

/** jobId for every point, in point order. */
std::vector<std::string> jobIds(const std::vector<exp::SweepPoint> &points);

/**
 * Fingerprint of a whole expanded spec (name + every job id), stored
 * in the manifest and re-verified on resume so `noc_farm --resume`
 * against a journal built from a different spec fails fast instead of
 * producing a franken-sweep.
 */
std::string specFingerprint(const exp::SweepSpec &spec,
                            const std::vector<std::string> &ids);

/**
 * One committed result, as readShard returns it. On disk a shard is
 * two lines: a flat-JSON header
 *
 *   {"shard": 3, "job": "<id>", "index": i, "seed": s, "attempt": a,
 *    "worker": w, "wallMs": t, "digest": "<16 hex>"}
 *
 * then the point's exp::resultJson text. The digest is the FNV-1a
 * hash of the header bytes before the digest field, a newline and the
 * result line, so a changed or missing byte in any header field or in
 * the result fails it. The aggregator copies the result text into the
 * BENCH json unchanged, so farm output and in-process output are the
 * same bytes by construction.
 */
struct Shard {
    std::uint64_t seed = 0;
    std::uint32_t attempt = 1; ///< lease attempts incl. the committer
    int worker = 0;            ///< committing worker index
    double wallMs = 0;         ///< real wall time of the committed run
    std::string result;        ///< exp::resultJson text, no newline
};

/** A live lease, as read back from its file. */
struct LeaseInfo {
    long pid = 0;
    int worker = -1;
    std::uint32_t attempt = 1;
    std::uint64_t sinceMs = 0; ///< wall-clock epoch ms at claim time
};

class Journal
{
  public:
    /**
     * Creates the journal directory for @p spec, or opens an existing
     * one and verifies its manifest matches (bench name, point count,
     * spec fingerprint). Returns nullopt with *err set on mismatch or
     * I/O failure.
     */
    static std::optional<Journal> open(const std::string &dir,
                                       const exp::SweepSpec &spec,
                                       const std::vector<std::string> &ids,
                                       std::string *err);

    const std::string &dir() const { return dir_; }
    const std::vector<std::string> &ids() const { return ids_; }
    std::size_t jobCount() const { return ids_.size(); }

    /** True when job @p i has a committed shard. */
    bool isDone(std::size_t i) const;
    std::size_t doneCount() const;

    /**
     * Tries to claim job @p i for @p worker. Returns the attempt
     * number (1 for a fresh claim, holder's+1 for a steal) or nullopt
     * when the job is done, validly leased, or lost to a racing
     * claimant. Steals only dead-holder or TTL-expired leases.
     */
    std::optional<std::uint32_t> tryLease(std::size_t i, int worker);

    /**
     * Commits @p r, job @p i's result, run under lease @p attempt by
     * @p worker: writes the shard (see Shard) to a pid-unique temp
     * file, fsyncs it and links it to the final name. Returns true
     * when this call created the shard, false on a duplicate commit
     * (idempotent — the first committed bytes stand) or an I/O
     * failure. Drops the temp file either way, and our lease unless
     * the write failed.
     */
    bool commit(std::size_t i, const exp::PointResult &r,
                std::uint32_t attempt = 1, int worker = 0);

    /**
     * Reads job @p i's shard; nullopt when it is missing, torn (not
     * exactly two lines), corrupt (a malformed header, or a header or
     * result line that does not match the digest), in another format, or
     * filed under another job id or index than the manifest expects.
     */
    std::optional<Shard> readShard(std::size_t i) const;

    /** The live lease of job @p i, if any. */
    std::optional<LeaseInfo> readLease(std::size_t i) const;

    /** Lease-expiry TTL (steal backstop); settable per run. */
    double leaseTtlSec = 60;

  private:
    std::string leasePath(std::size_t i) const;
    std::string shardPath(std::size_t i) const;

    std::string dir_;
    std::vector<std::string> ids_;
};

} // namespace noc::farm

#endif // ROCOSIM_FARM_JOURNAL_H_
