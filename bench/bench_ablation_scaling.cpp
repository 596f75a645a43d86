/**
 * @file
 * Ablation: mesh-size scaling. The paper evaluates an 8x8 mesh; this
 * sweep checks that the RoCo advantages (latency at moderate load,
 * energy per packet) persist from 4x4 up to 32x32, and measures how
 * the sharded engine (src/par) scales the big meshes across cores.
 *
 * Output: the text tables below plus BENCH_ablation_scaling.json
 * (schema note in EXPERIMENTS.md) with the per-mesh results and the
 * serial-vs-sharded speedup curves. Sharded runs are checked
 * bit-identical to serial before their timing is reported.
 */
#include <chrono>

#include "bench_util.h"

namespace {

using namespace noc;
using namespace noc::bench;

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

SimConfig
meshConfig(RouterArch a, int k)
{
    SimConfig cfg = paperConfig(a, RoutingKind::XY, TrafficKind::Uniform,
                                0.2);
    cfg.meshWidth = k;
    cfg.meshHeight = k;
    sizeCycleBudget(cfg, cfg.injectionRate);
    return cfg;
}

} // namespace

int
main()
{
    printSeed();

    std::puts("Ablation: mesh size scaling (uniform, XY, 0.2 "
              "flits/node/cycle)");
    std::printf("%-8s | %10s %12s %10s | %10s %10s\n", "mesh",
                "Generic", "PathSens", "RoCo", "Gen nJ/pkt",
                "RoCo nJ/pkt");
    hr();
    std::string json = "{\n  \"schema\": 1,\n  \"bench\": "
                       "\"ablation_scaling\",\n  \"meshes\": [\n";
    const int meshes[] = {4, 6, 8, 10, 12, 16, 32};
    TimeoutMarks mark;
    for (std::size_t m = 0; m < std::size(meshes); ++m) {
        int k = meshes[m];
        double lat[3], energy[3];
        char tm[3];
        int i = 0;
        for (RouterArch a : kArchs) {
            Simulator sim(meshConfig(a, k));
            SimResult r = sim.run();
            lat[i] = r.avgLatency;
            energy[i] = r.energyPerPacketNj;
            tm[i] = mark(r);
            ++i;
        }
        char mesh[16];
        std::snprintf(mesh, sizeof mesh, "%dx%d", k, k);
        std::printf("%-8s | %9.2f%c %11.2f%c %9.2f%c | %9.3f%c %9.3f%c\n",
                    mesh, lat[0], tm[0], lat[1], tm[1], lat[2], tm[2],
                    energy[0], tm[0], energy[2], tm[2]);
        char row[256];
        std::snprintf(row, sizeof row,
                      "    {\"mesh\": %d, \"latency\": {\"generic\": %.6f, "
                      "\"ps\": %.6f, \"roco\": %.6f}, "
                      "\"njPerPacket\": {\"generic\": %.6f, \"roco\": "
                      "%.6f}}%s\n",
                      k, lat[0], lat[1], lat[2], energy[0], energy[2],
                      m + 1 < std::size(meshes) ? "," : "");
        json += row;
    }
    mark.legend();
    std::puts("\nExpected: latency and energy grow with hop count; the "
              "RoCo-vs-generic energy\nratio stays roughly constant "
              "(the saving is per-hop).");

    // Serial-vs-sharded wall-clock scaling on the meshes big enough to
    // amortise the per-cycle synchronisation. Shard count never changes the
    // results (checked below), so this curve is purely about speed; on
    // a single-core host it is expectedly flat.
    std::puts("\nSharded-engine scaling (RoCo, uniform, XY, 0.2 f/n/c)");
    std::printf("%-8s | %9s %9s %9s %9s | %s\n", "mesh", "1 shard",
                "2 shards", "4 shards", "8 shards", "identical");
    hr();
    json += "  ],\n  \"speedup\": [\n";
    const int bigMeshes[] = {16, 32};
    const int shardCounts[] = {1, 2, 4, 8};
    for (std::size_t m = 0; m < std::size(bigMeshes); ++m) {
        int k = bigMeshes[m];
        double wallMs[std::size(shardCounts)];
        SimResult results[std::size(shardCounts)];
        for (std::size_t s = 0; s < std::size(shardCounts); ++s) {
            SimConfig cfg = meshConfig(RouterArch::Roco, k);
            cfg.shards = shardCounts[s];
            Simulator sim(cfg);
            auto t0 = std::chrono::steady_clock::now();
            results[s] = sim.run();
            wallMs[s] = msSince(t0);
        }
        bool same = true;
        for (std::size_t s = 1; s < std::size(shardCounts); ++s)
            same = same && results[0] == results[s];
        char mesh[16];
        std::snprintf(mesh, sizeof mesh, "%dx%d", k, k);
        std::printf("%-8s | %8.2fx %8.2fx %8.2fx %8.2fx | %s\n", mesh,
                    1.0, wallMs[0] / wallMs[1], wallMs[0] / wallMs[2],
                    wallMs[0] / wallMs[3], same ? "yes" : "NO");
        json += "    {\"mesh\": ";
        char num[32];
        std::snprintf(num, sizeof num, "%d", k);
        json += num;
        json += ", \"identical\": ";
        json += same ? "true" : "false";
        json += ", \"points\": [";
        for (std::size_t s = 0; s < std::size(shardCounts); ++s) {
            char pt[96];
            std::snprintf(pt, sizeof pt,
                          "%s{\"shards\": %d, \"wallMs\": %.3f, "
                          "\"speedup\": %.4f}",
                          s ? ", " : "", shardCounts[s], wallMs[s],
                          wallMs[0] / wallMs[s]);
            json += pt;
        }
        json += "]}";
        json += m + 1 < std::size(bigMeshes) ? ",\n" : "\n";
        if (!same) {
            std::fprintf(stderr, "FATAL: sharded %dx%d run diverged "
                                 "from serial\n", k, k);
            return 1;
        }
    }
    json += "  ]\n}\n";
    exp::writeBenchJson("ablation_scaling", json);
    std::puts("\nSpeedup is wall-clock only — sharded results are "
              "bit-identical to serial\n(divergence is a fatal error). "
              "Curves flatten on machines with fewer cores\nthan "
              "shards.");
    return 0;
}
