/**
 * @file
 * Exact on-disk encodings for the sweep farm.
 *
 * The farm's byte-identity contract ("a resumed multi-process sweep
 * emits the same BENCH json as an uninterrupted in-process run")
 * hinges on result shards round-tripping every SimResult field
 * *exactly*. Doubles are therefore written as C99 hex-floats (%a):
 * unlike decimal shortest-form, the hex rendering is bit-exact by
 * construction and locale-independent, so the aggregator can re-derive
 * the canonical decimal JSON from decoded shards and land on the same
 * bytes the in-process serialiser produces.
 *
 * The same header also carries the tiny flat-JSON parser the journal
 * reads its manifest and leases with: string/number/bool values only
 * (nested objects are rejected, not skipped; the journal never writes
 * them).
 */
#ifndef ROCOSIM_FARM_WIRE_H_
#define ROCOSIM_FARM_WIRE_H_

#include <optional>
#include <string>
#include <vector>

#include "exp/sweep.h"

namespace noc::farm {

/** Bit-exact double rendering (C99 %a), e.g. "0x1.91eb851eb851fp-3". */
std::string encodeDouble(double v);

/**
 * One committed point as shard-file bytes: a `rocosim-shard 1` magic
 * line, the job id + commit provenance (attempt, worker), then every
 * PointResult / SimResult field as one `key value` line (doubles in
 * %a). The encoding is versioned and self-delimiting so a torn write
 * (missing trailer) is detectable.
 */
std::string encodePointResult(const std::string &jobId,
                              const exp::PointResult &r,
                              std::uint32_t attempt = 1, int worker = 0);

/**
 * Decodes encodePointResult bytes. Returns nullopt — never a partial
 * record — on any defect: bad magic, version skew, unknown field,
 * malformed number, or missing `end` trailer (torn write).
 */
struct DecodedShard {
    std::string jobId;
    std::uint32_t attempt = 1; ///< lease attempts incl. the committer
    int worker = 0;            ///< committing worker index
    exp::PointResult point;
};
std::optional<DecodedShard> decodePointResult(const std::string &bytes);

/**
 * A parsed flat JSON object: {"key": "str" | number | true|false, ...}
 * in declaration order. Values keep their literal spelling; str/num
 * do the lookup and conversion. Nested arrays/objects make parse()
 * fail (the journal's files are flat by design).
 */
class FlatJson
{
  public:
    /** Parses one object; nullopt on any syntax error. */
    static std::optional<FlatJson> parse(const std::string &line);

    /** String value (unescaped); @p fallback when absent or non-string. */
    std::string str(const std::string &key,
                    const std::string &fallback = "") const;
    /** Numeric value; @p fallback when absent or non-numeric. */
    double num(const std::string &key, double fallback = 0) const;

  private:
    struct Entry {
        std::string key;
        std::string value; ///< literal spelling ("true", "0.5", text)
        bool isString = false;
    };
    std::vector<Entry> entries_;
};

} // namespace noc::farm

#endif // ROCOSIM_FARM_WIRE_H_
