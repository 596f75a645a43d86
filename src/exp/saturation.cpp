#include "exp/saturation.h"

#include <algorithm>

#include "exp/json_out.h"

namespace noc::exp {
namespace {

/** Series 0 is the overall average; 1..kNumMsgClasses map to classes. */
int
seriesCount(const SimConfig &cfg)
{
    return cfg.svc.enabled ? 1 + kNumMsgClasses : 1;
}

const char *
seriesName(int s)
{
    return s == 0 ? "overall"
                  : msgClassName(static_cast<MsgClass>(s - 1));
}

double
seriesLatency(const SimResult &r, int s)
{
    if (s == 0)
        return r.avgLatency;
    std::size_t c = static_cast<std::size_t>(s - 1);
    return c < r.classes.size() ? r.classes[c].avgLatency : 0.0;
}

/** One probe round: every rate is an ordinary SweepRunner point, so
 *  results are bit-identical for any thread or shard count. */
SweepResults
probe(const SaturationSpec &spec, const std::vector<double> &rates)
{
    SweepSpec sw;
    sw.name = "saturation-probe";
    sw.base = spec.base;
    sw.rates = rates;
    if (!spec.faults.empty() || !spec.faultLabel.empty())
        sw.faultSets = {{spec.faultLabel, spec.faults}};
    return SweepRunner(spec.threads).run(sw);
}

} // namespace

SaturationResult
findSaturation(const SaturationSpec &spec)
{
    SaturationResult res;
    res.rounds = spec.rounds;

    // Zero-load reference: one point at the bracket low.
    SweepResults zl = probe(spec, {spec.loRate});
    res.threads = zl.threads;
    res.probedRates.push_back(spec.loRate);

    struct Series {
        double zero = 0;    // zero-load latency
        double lo = 0;      // highest rate known below the knee
        double hi = 0;      // lowest rate known at/above it (once crossed)
        double kneeLat = 0; // latency measured at hi when crossed
        bool crossed = false;
    };
    const int ns = seriesCount(spec.base);
    std::vector<Series> ser(static_cast<std::size_t>(ns));
    for (int s = 0; s < ns; ++s) {
        Series &t = ser[static_cast<std::size_t>(s)];
        t.zero = seriesLatency(zl.results[0].result, s);
        t.lo = spec.loRate;
        t.hi = spec.hiRate;
    }

    for (int round = 0; round < spec.rounds; ++round) {
        // Probe the union of every live series' bracket; each series
        // then narrows independently off the shared results. Probes
        // are spaced over (lo, hi] so the bracket high itself is
        // tested (a knee sitting exactly at hiRate is still found).
        double lo = spec.hiRate, hi = spec.loRate;
        for (const Series &t : ser) {
            if (t.zero <= 0)
                continue; // class never observed: nothing to bisect
            lo = std::min(lo, t.lo);
            hi = std::max(hi, t.hi);
        }
        if (hi - lo < 1e-6)
            break; // every bracket converged (or no live series)

        std::vector<double> rates;
        rates.reserve(static_cast<std::size_t>(spec.probesPerRound));
        for (int k = 0; k < spec.probesPerRound; ++k)
            rates.push_back(lo + (hi - lo) * (k + 1) /
                                     spec.probesPerRound);
        SweepResults round_ = probe(spec, rates);
        res.probedRates.insert(res.probedRates.end(), rates.begin(),
                               rates.end());

        for (int s = 0; s < ns; ++s) {
            Series &t = ser[static_cast<std::size_t>(s)];
            if (t.zero <= 0)
                continue;
            double threshold = spec.kneeFactor * t.zero;
            for (std::size_t k = 0; k < rates.size(); ++k) {
                double r = rates[k];
                if (r <= t.lo || r > t.hi + 1e-12)
                    continue; // outside this series' bracket
                double l =
                    seriesLatency(round_.results[k].result, s);
                if (l >= threshold) {
                    t.hi = r;
                    t.kneeLat = l;
                    t.crossed = true;
                    break; // first crossing bounds the knee above
                }
                t.lo = r;
            }
        }
    }

    res.knees.reserve(static_cast<std::size_t>(ns));
    for (int s = 0; s < ns; ++s) {
        const Series &t = ser[static_cast<std::size_t>(s)];
        KneeEstimate k;
        k.series = seriesName(s);
        k.zeroLoadLatency = t.zero;
        if (t.zero > 0) {
            k.kneeRate = t.hi;
            k.kneeLatency = t.kneeLat;
            k.saturated = t.crossed;
        }
        res.knees.push_back(std::move(k));
    }
    return res;
}

BatchResult
runBatch(const SaturationSpec &spec, std::uint64_t budget)
{
    SaturationSpec b = spec;
    b.base.warmupPackets = 0;
    b.base.measurePackets = budget;
    b.base.svc.batch = true;
    SweepResults sr = probe(b, {spec.base.injectionRate});

    BatchResult out;
    out.budget = budget;
    out.result = sr.results[0].result;
    out.delivered = out.result.delivered;
    out.timeToDrain = out.result.drainCycles;
    out.packetsPerCycle =
        out.timeToDrain
            ? static_cast<double>(out.delivered) /
                  static_cast<double>(out.timeToDrain)
            : 0.0;
    return out;
}

std::string
saturationJson(const SaturationSpec &spec, const SaturationResult &res,
               const BatchResult *batch)
{
    std::string out;
    out.reserve(1024);
    out += "{\n  \"schema\": 3,\n  \"bench\": \"saturation\",\n";
    out += "  \"arch\": \"";
    out += toString(spec.base.arch);
    out += "\",\n  \"routing\": \"";
    out += toString(spec.base.routing);
    out += "\",\n  \"traffic\": \"";
    out += toString(spec.base.traffic);
    out += "\",\n  \"faults\": \"";
    out += spec.faultLabel;
    out += "\",\n  \"kneeFactor\": ";
    appendNum(out, spec.kneeFactor);
    out += ",\n  \"rounds\": ";
    appendNum(out, static_cast<double>(res.rounds));
    out += ",\n  \"probesPerRound\": ";
    appendNum(out, static_cast<double>(spec.probesPerRound));
    out += ",\n  \"threads\": ";
    appendNum(out, static_cast<double>(res.threads));
    out += ",\n  \"probedRates\": [";
    for (std::size_t i = 0; i < res.probedRates.size(); ++i) {
        if (i)
            out += ", ";
        appendNum(out, res.probedRates[i]);
    }
    out += "],\n  \"knees\": [\n";
    for (std::size_t i = 0; i < res.knees.size(); ++i) {
        const KneeEstimate &k = res.knees[i];
        out += "    {\"series\": \"";
        out += k.series;
        out += "\", \"zeroLoadLatency\": ";
        appendNum(out, k.zeroLoadLatency);
        out += ", \"kneeRate\": ";
        appendNum(out, k.kneeRate);
        out += ", \"kneeLatency\": ";
        appendNum(out, k.kneeLatency);
        out += ", \"saturated\": ";
        out += k.saturated ? "true" : "false";
        out += "}";
        if (i + 1 < res.knees.size())
            out += ",";
        out += "\n";
    }
    out += "  ]";
    if (batch != nullptr) {
        out += ",\n  \"batch\": {\"budget\": ";
        appendNum(out, static_cast<double>(batch->budget));
        out += ", \"delivered\": ";
        appendNum(out, static_cast<double>(batch->delivered));
        out += ", \"timeToDrain\": ";
        appendNum(out, static_cast<double>(batch->timeToDrain));
        out += ", \"packetsPerCycle\": ";
        appendNum(out, batch->packetsPerCycle);
        out += "}";
    }
    out += "\n}\n";
    return out;
}

} // namespace noc::exp
