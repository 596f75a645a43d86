/**
 * @file
 * noc-lint: project-specific static checks for the NoC simulator.
 *
 * Three rule families the generic clang-tidy profile cannot express
 * (DESIGN section 13):
 *
 *   phase discipline   writes to NOC_PHASE_STATE members only from
 *                      functions annotated with a matching
 *                      NOC_PHASE_FN phase; cross-router member access
 *                      only through the sanctioned neighbour APIs
 *   determinism        no unordered-container iteration, wall-clock
 *                      reads, libc randomness or pointer-valued
 *                      ordering keys in result-affecting code
 *   zero-copy flits    Flit copy construction / by-value passing only
 *                      at the sanctioned one-copy-per-hop sites
 *                      (DESIGN section 12), marked inline with
 *                      `// noc-lint:allow(flit-copy)`
 *
 * The engine is token-level (this header + lint_core.cpp, no
 * dependencies), so it runs everywhere. It also owns the suppression
 * comments, stale-allow detection and baseline comparison.
 *
 * Rule ids:
 *   phase-cross-write      write from a function in a different phase
 *   phase-unguarded-write  write from a function with no phase at all
 *   cross-router-access    neighbour deref outside the sanctioned API
 *   own-cross-write        NOC_OWNED_STATE written through a foreign
 *                          object (ownership crosses the shard wall)
 *   own-nonatomic-shared   NOC_SHARED_ATOMIC member not std::atomic
 *   own-epilogue-escape    NOC_EPILOGUE_STATE written outside the
 *                          single-threaded barrier epilogue
 *   det-unordered-iter     iteration over unordered_{map,set}
 *   det-rand               libc / std randomness outside common/rng
 *   det-unseeded-rng       default-constructed std random engine
 *   det-wallclock          wall-clock reads in simulation code
 *   det-pointer-key        pointer-keyed ordered container
 *   flit-copy              Flit copy outside the sanctioned sites
 *   stale-allow            noc-lint:allow comment suppressing nothing
 */
#ifndef NOC_LINT_CORE_H_
#define NOC_LINT_CORE_H_

#include <ostream>
#include <string>
#include <vector>

namespace noclint {

struct Diag {
    std::string file; ///< path exactly as given to the engine
    int line = 0;     ///< 1-based
    int col = 1;      ///< 1-based
    std::string rule;
    std::string message;
};

/** `file:line:col: warning: message [noc-lint-rule]` (baseline form). */
std::string formatDiag(const Diag &d);

/** All rule ids, for --list-rules and allow-comment validation. */
const std::vector<std::string> &ruleIds();

/** One `// noc-lint:allow(rule[, rule...])` comment. */
struct AllowComment {
    std::string file;
    int line = 0;
    std::vector<std::string> rules;
    bool used = false;
};

struct RunResult {
    std::vector<Diag> diags;      ///< post-suppression, sorted
    std::vector<Diag> suppressed; ///< what the allow comments ate
};

/**
 * Portable engine: two passes over @p paths (annotation registry,
 * then per-file checks), then suppression + stale-allow detection.
 * Files that cannot be read produce a `read-error` diagnostic.
 */
RunResult runPortable(const std::vector<std::string> &paths);

/**
 * Suppression shared by both engines: drops diagnostics covered by an
 * allow comment on the same or the preceding line, then reports every
 * comment that suppressed nothing as `stale-allow` ("remove dead
 * allow"). Returns sorted results.
 */
RunResult applySuppressions(std::vector<Diag> diags,
                            std::vector<AllowComment> allows);

/** Collects allow comments from one file's text. */
std::vector<AllowComment> collectAllowComments(const std::string &path,
                                               const std::string &text);

/**
 * Emits @p diags as a SARIF 2.1.0 log (one run, driver "noc-lint",
 * every rule id listed) so CI can upload the results to code scanning.
 * An empty diagnostic list still produces a valid log with an empty
 * results array.
 */
void writeSarif(const std::vector<Diag> &diags, std::ostream &os);

/** Baseline = sorted formatDiag lines; missing file = empty. */
std::vector<std::string> loadBaseline(const std::string &path);

struct BaselineCompare {
    std::vector<std::string> fresh;   ///< diagnostics not in baseline
    std::vector<std::string> fixed;   ///< baseline entries not seen
    std::vector<std::string> matched; ///< still present and baselined
};
BaselineCompare compareBaseline(const std::vector<Diag> &diags,
                                const std::vector<std::string> &baseline);

} // namespace noclint

#endif // NOC_LINT_CORE_H_
