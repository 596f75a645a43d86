/**
 * @file
 * Multi-process sweep farm driver (src/farm).
 *
 *   noc_farm --dir <journal> [options]
 *     --dir <path>        journal directory (created on first run)
 *     --workers <n>       worker processes to fork (default 2, at
 *                         most 256)
 *     --resume            require an existing journal (same spec!)
 *     --ttl <sec>         lease-expiry steal backstop (default 60)
 *     --out <path>        final json path (default <dir>/BENCH_<name>.json)
 *     --provenance        emit per-point attempt/worker/wallMs blocks
 *                         (breaks the byte-identity contract on purpose)
 *     --name <s>          sweep name (default "farm")
 *
 *   Sweep axes (comma lists) and base config:
 *     --archs generic,ps,roco      --routings xy,xyyx,adaptive
 *     --traffics uniform,...       --rates 0.1,0.2,...
 *     --mesh <k> --vcs <n> --seed <n> --packets <n> --warmup <n>
 *     --max-cycles <n> --service
 *
 * The same command, re-run after any number of kill -9s, completes the
 * journal and writes a byte-identical final json (the journal manifest
 * rejects a spec that doesn't match). Exit codes: 0 complete, 3
 * incomplete (workers died, resume to continue; or a committed shard
 * is corrupt, and the message names it), 2 usage or journal error.
 *
 * Progress lines on stderr are on when stderr is a terminal; NOC_PROGRESS
 * =0/1 overrides.
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

#include "exp/sweep.h"
#include "farm/farm.h"

namespace {

using namespace noc;

/** --workers forks this many processes at once: a typo must not
 *  fork-bomb the host. */
constexpr int kMaxWorkers = 256;

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr, "noc_farm: %s (see the file header for options)\n",
                 msg.c_str());
    std::exit(2);
}

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos) {
            out.push_back(csv.substr(pos));
            break;
        }
        out.push_back(csv.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    farm::FarmOptions opts;
    exp::SweepSpec spec;
    spec.name = "farm";
    bool resume = false;

    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage("missing argument value");
        return argv[++i];
    };
    // Reads the value of option argv[i] (each comma-separated item of
    // it for the axis lists) through @p parse, a spelling table or
    // parseNumber; a value it rejects is a usage error that names the
    // option.
    auto take = [&](int &i, auto parse, auto &out) {
        const std::string opt = argv[i];
        const std::string v = need(i);
        auto parsed = parse(v);
        if (!parsed)
            usage("bad " + opt + " value '" + v + "'");
        out = *parsed;
    };
    auto takeList = [&](int &i, auto parse, auto &out) {
        const std::string opt = argv[i];
        for (const std::string &v : splitCsv(need(i))) {
            auto parsed = parse(v);
            if (!parsed)
                usage("bad " + opt + " item '" + v + "'");
            out.push_back(*parsed);
        }
    };
    using U64 = std::uint64_t;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--dir") opts.dir = need(i);
        else if (a == "--workers") take(i, parseNumber<int>, opts.workers);
        else if (a == "--resume") resume = true;
        else if (a == "--ttl") take(i, parseNumber<double>, opts.leaseTtlSec);
        else if (a == "--out") opts.outPath = need(i);
        else if (a == "--provenance") opts.provenance = true;
        else if (a == "--name") spec.name = need(i);
        else if (a == "--archs") takeList(i, parseArch, spec.archs);
        else if (a == "--routings") takeList(i, parseRouting, spec.routings);
        else if (a == "--traffics") takeList(i, parseTraffic, spec.traffics);
        else if (a == "--rates") takeList(i, parseNumber<double>, spec.rates);
        else if (a == "--mesh") {
            take(i, parseNumber<int>, spec.base.meshWidth);
            spec.base.meshHeight = spec.base.meshWidth;
        }
        else if (a == "--vcs") take(i, parseNumber<int>, spec.base.vcsPerPort);
        else if (a == "--seed") take(i, parseNumber<U64>, spec.base.seed);
        else if (a == "--packets")
            take(i, parseNumber<U64>, spec.base.measurePackets);
        else if (a == "--warmup")
            take(i, parseNumber<U64>, spec.base.warmupPackets);
        else if (a == "--max-cycles")
            take(i, parseNumber<U64>, spec.base.maxCycles);
        else if (a == "--service") spec.base.svc.enabled = true;
        else usage("unknown option " + a);
    }
    if (opts.dir.empty())
        usage("--dir is required");
    if (opts.workers < 1 || opts.workers > kMaxWorkers)
        usage("--workers must be in [1, " + std::to_string(kMaxWorkers) +
              "]");
    if (resume && ::access((opts.dir + "/MANIFEST.json").c_str(), R_OK) != 0)
        usage("--resume given but the journal has no manifest");

    opts.progress = exp::progressEnabled(::isatty(2) != 0);

    farm::FarmRun run = farm::runFarm(spec, opts);
    std::fprintf(stderr,
                 "noc_farm: %zu jobs, %zu reused, %zu run, "
                 "%d worker failure(s)\n",
                 run.jobs, run.reused, run.ran, run.workerFailures);
    if (!run.complete) {
        std::fprintf(stderr, "noc_farm: %s\n", run.error.c_str());
        return 3;
    }
    std::printf("%s\n", run.jsonPath.c_str());
    return 0;
}
