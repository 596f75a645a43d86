/**
 * @file
 * The flat-JSON reader behind every file the farm journal reads back:
 * its manifest, its leases and the header line of each result shard
 * (journal.h). String/number/bool values only; nested objects are
 * rejected, not skipped, because the journal never writes them.
 */
#ifndef ROCOSIM_FARM_WIRE_H_
#define ROCOSIM_FARM_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace noc::farm {

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

    /** String value (unescaped); "" when absent or not a string. */
    std::string str(const std::string &key) const;
    /**
     * Numeric value read with parseNumber<T> (whole literal, T = int,
     * std::uint64_t or double); nullopt when absent, a string, or not
     * a T.
     */
    template <typename T>
    std::optional<T> num(const std::string &key) const;

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
