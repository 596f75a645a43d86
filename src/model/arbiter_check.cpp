#include "model/arbiter_check.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

#include "common/log.h"
#include "router/roco/mirror_allocator.h"
#include "router/arbiter.h"

namespace noc::model {

namespace {

/** A real arbiter whose rotating pointer sits at @p ptr. */
RoundRobinArbiter
arbiterAt(int size, int ptr)
{
    RoundRobinArbiter a(size);
    if (ptr > 0)
        a.arbitrate(1ull << (ptr - 1)); // grant ptr-1, pointer -> ptr
    std::uint64_t full = (size < 64 ? (1ull << size) : 0) - 1;
    NOC_ASSERT(a.peek(full) == ptr, "pointer construction mismatch");
    return a;
}

} // namespace

std::string
ArbiterCheckResult::summary() const
{
    char buf[160];
    if (ok) {
        std::snprintf(buf, sizeof buf,
                      "%-34s OK     wait <= %2d cycles %6zu states",
                      name.c_str(), bound, states);
    } else {
        std::snprintf(buf, sizeof buf, "%-34s FAILED starvation",
                      name.c_str());
    }
    return buf;
}

ArbiterCheckResult
checkRoundRobinBoundedWait(int size)
{
    NOC_ASSERT(size >= 1 && size <= 8, "RR check sized for small v:1");
    ArbiterCheckResult res;
    char nm[64];
    std::snprintf(nm, sizeof nm, "round-robin %d:1 bounded wait", size);
    res.name = nm;
    res.states = static_cast<std::size_t>(size) * size;

    // For each persistently-requesting target and each start pointer,
    // the worst wait over all adversarial request sequences.  The
    // per-(target) recursion runs over pointer states; a cycle of
    // pointer states without a grant would be unbounded starvation.
    int worst = 0;
    for (int target = 0; target < size && res.counterexample.empty();
         ++target) {
        std::vector<int> memo(size, -2); // -2 unvisited, -1 on path
        std::function<int(int)> solve = [&](int ptr) -> int {
            if (memo[ptr] == -1)
                return -1; // cycle: starvation
            if (memo[ptr] >= 0)
                return memo[ptr];
            memo[ptr] = -1;
            int w = 1;
            std::uint64_t adv = 1ull << size;
            for (std::uint64_t others = 0; others < adv; ++others) {
                std::uint64_t mask = others | (1ull << target);
                RoundRobinArbiter a = arbiterAt(size, ptr);
                int win = a.arbitrate(mask);
                NOC_ASSERT(win >= 0, "non-empty mask must grant");
                if (win == target)
                    continue;
                int sub = solve((win + 1) % size);
                if (sub < 0)
                    return -1;
                w = std::max(w, 1 + sub);
            }
            memo[ptr] = w;
            return w;
        };
        for (int ptr = 0; ptr < size; ++ptr) {
            int w = solve(ptr);
            if (w < 0) {
                char buf[128];
                std::snprintf(buf, sizeof buf,
                              "  input %d starves from pointer state %d\n",
                              target, ptr);
                res.counterexample = buf;
                return res;
            }
            worst = std::max(worst, w);
        }
    }
    res.ok = true;
    res.bound = worst;
    return res;
}

namespace {

constexpr int kPairs = 4; // (port, out) pairs of the 2x2 switch

int
pairOf(int port, int out)
{
    return port * 2 + out;
}

/** Mirrored allocator/adversary product state. */
struct MirrorState {
    int g = 0;          ///< 2:1 global arbiter pointer
    int consec[kPairs] = {0, 0, 0, 0}; ///< consecutive grants per pair

    int
    id(int cap) const
    {
        int v = g;
        for (int c : consec)
            v = v * (cap + 1) + c;
        return v;
    }

    static MirrorState
    of(int id, int cap)
    {
        MirrorState st;
        for (int pr = kPairs; pr-- > 0; id /= cap + 1)
            st.consec[pr] = id % (cap + 1);
        st.g = id;
        return st;
    }
};

/** One adversary move out of a state; its label is rendered only for
 *  a counterexample. */
struct Edge {
    int to = 0;
    bool targetGranted = false;
    std::uint8_t pick[3] = {}; ///< request level of each non-target pair
    std::uint8_t straight = 0;
    std::uint8_t crossed = 0;
    bool useStraight = false;
    bool tie = false;

    std::string label() const;
};

const char *kLevelName[3] = {"-", "spec", "req"};

std::string
Edge::label() const
{
    char lbl[160];
    std::snprintf(lbl, sizeof lbl,
                  "adv[%s %s %s] straight=%d crossed=%d -> %s%s",
                  kLevelName[pick[0]], kLevelName[pick[1]],
                  kLevelName[pick[2]], straight, crossed,
                  useStraight ? "straight" : "crossed",
                  tie ? " (tie)" : "");
    return lbl;
}

} // namespace

ArbiterCheckResult
checkMirrorAllocatorBoundedWait(const MirrorCheckOptions &opts)
{
    ArbiterCheckResult res;
    char nm[96];
    std::snprintf(nm, sizeof nm,
                  "mirror-SA 2x2 (cap=%d%s%s) bounded wait",
                  opts.packetCap, opts.rotatingTie ? "" : ", greedy tie",
                  opts.packetBoundaries ? "" : ", endless packets");
    res.name = nm;
    const int cap = opts.packetCap;
    // State ids are dense: g * (cap + 1)^4 + the consec digits.
    const int numIds = 2 * (cap + 1) * (cap + 1) * (cap + 1) * (cap + 1);

    // Per state id, indexed flat: whether it was reached, its out-edges
    // edges[first[id], first[id] + count[id]) and, for the grant
    // cross-check, a representative real allocator (pair-level
    // outcomes depend only on the mirrored fields, so one
    // representative suffices).
    std::vector<bool> reached(static_cast<std::size_t>(numIds));
    std::vector<int> first(static_cast<std::size_t>(numIds));
    std::vector<int> count(static_cast<std::size_t>(numIds));
    std::vector<MirrorAllocator> rep(static_cast<std::size_t>(numIds),
                                     MirrorAllocator(3));
    std::vector<Edge> edges;
    std::vector<int> frontier;
    // DFS bookkeeping: 0 unvisited, 1 on path, 2 done.
    std::vector<std::uint8_t> color(static_cast<std::size_t>(numIds));
    std::vector<int> longest(static_cast<std::size_t>(numIds));

    int worstBound = 0;
    for (int tp = 0; tp < 2; ++tp) {
        for (int to = 0; to < 2; ++to) {
            const int target = pairOf(tp, to);

            std::fill(reached.begin(), reached.end(), false);
            edges.clear();
            frontier.clear();
            const int init = MirrorState{}.id(cap);
            reached[static_cast<std::size_t>(init)] = true;
            rep[static_cast<std::size_t>(init)] = MirrorAllocator(3);
            frontier.push_back(init);

            for (std::size_t head = 0; head < frontier.size(); ++head) {
                const int id = frontier[head];
                const MirrorState st = MirrorState::of(id, cap);
                first[static_cast<std::size_t>(id)] =
                    static_cast<int>(edges.size());

                // Adversary: request level per non-target pair.
                for (int l0 = 0; l0 < 3; ++l0)
                    for (int l1 = 0; l1 < 3; ++l1)
                        for (int l2 = 0; l2 < 3; ++l2) {
                            int levels[kPairs];
                            int li = 0;
                            int pick[3] = {l0, l1, l2};
                            for (int pr = 0; pr < kPairs; ++pr)
                                levels[pr] = pr == target
                                                 ? 2
                                                 : pick[li++];
                            // Packet boundary: a pair that just took
                            // packetCap consecutive grants must let its
                            // tail pass (one silent cycle for VA).
                            bool legal = true;
                            if (opts.packetBoundaries)
                                for (int pr = 0; pr < kPairs; ++pr)
                                    if (pr != target &&
                                        st.consec[pr] == cap &&
                                        levels[pr] != 0)
                                        legal = false;
                            if (!legal)
                                continue;

                            int w[2][2];
                            for (int p = 0; p < 2; ++p)
                                for (int o = 0; o < 2; ++o)
                                    w[p][o] = levels[pairOf(p, o)];
                            int straight = w[0][0] + w[1][1];
                            int crossed = w[0][1] + w[1][0];
                            bool tie = straight == crossed;
                            bool useStraight =
                                tie ? (opts.rotatingTie ? st.g == 0
                                                        : true)
                                    : straight > crossed;

                            MirrorState nx;
                            nx.g = (tie && opts.rotatingTie) ? st.g ^ 1
                                                             : st.g;
                            bool granted[kPairs] = {};
                            for (int p = 0; p < 2; ++p) {
                                int o = useStraight ? p : 1 - p;
                                if (w[p][o] > 0)
                                    granted[pairOf(p, o)] = true;
                            }
                            for (int pr = 0; pr < kPairs; ++pr)
                                nx.consec[pr] =
                                    (granted[pr] && opts.packetBoundaries)
                                        ? std::min(st.consec[pr] + 1, cap)
                                        : 0;
                            const int nid = nx.id(cap);

                            if (opts.rotatingTie) {
                                // Replay the real allocator and insist
                                // its pair-level grants match.
                                MirrorAllocator real =
                                    rep[static_cast<std::size_t>(id)];
                                std::uint64_t reqs[2][2] = {};
                                std::uint64_t specs[2][2] = {};
                                for (int p = 0; p < 2; ++p)
                                    for (int o = 0; o < 2; ++o) {
                                        int lv = w[p][o];
                                        if (lv == 2)
                                            reqs[p][o] = 1;
                                        else if (lv == 1)
                                            specs[p][o] = 1;
                                    }
                                MirrorAllocator::Grant g2[2];
                                MirrorAllocator::ArbOps ops;
                                int n = real.allocate(reqs, specs, 2,
                                                      g2, ops);
                                bool realGranted[kPairs] = {};
                                for (int i = 0; i < n; ++i)
                                    realGranted[pairOf(g2[i].port,
                                                       g2[i].out)] =
                                        true;
                                for (int pr = 0; pr < kPairs; ++pr)
                                    NOC_ASSERT(
                                        realGranted[pr] == granted[pr],
                                        "mirror/real grant divergence");
                                if (!reached[static_cast<std::size_t>(
                                        nid)])
                                    rep[static_cast<std::size_t>(nid)] =
                                        real;
                            }

                            if (!reached[static_cast<std::size_t>(nid)]) {
                                reached[static_cast<std::size_t>(nid)] =
                                    true;
                                frontier.push_back(nid);
                            }
                            Edge e;
                            e.to = nid;
                            e.targetGranted = granted[target];
                            for (int i = 0; i < 3; ++i)
                                e.pick[i] =
                                    static_cast<std::uint8_t>(pick[i]);
                            e.straight =
                                static_cast<std::uint8_t>(straight);
                            e.crossed = static_cast<std::uint8_t>(crossed);
                            e.useStraight = useStraight;
                            e.tie = tie;
                            edges.push_back(e);
                        }
                count[static_cast<std::size_t>(id)] =
                    static_cast<int>(edges.size()) -
                    first[static_cast<std::size_t>(id)];
            }
            res.states += frontier.size();

            // Starvation = a cycle inside the not-granted sub-graph;
            // otherwise the longest not-granted path bounds the wait.
            std::fill(color.begin(), color.end(), 0);
            std::vector<int> cycle;
            auto dfs = [&](auto &self, int id) -> int {
                std::uint8_t &c = color[static_cast<std::size_t>(id)];
                if (c == 1) {
                    cycle.push_back(id);
                    return -1;
                }
                if (c == 2)
                    return longest[static_cast<std::size_t>(id)];
                c = 1;
                int best = 0;
                const int begin = first[static_cast<std::size_t>(id)];
                const int end = begin + count[static_cast<std::size_t>(id)];
                for (int i = begin; i < end; ++i) {
                    const Edge &e = edges[static_cast<std::size_t>(i)];
                    if (e.targetGranted)
                        continue;
                    int sub = self(self, e.to);
                    if (sub < 0) {
                        if (cycle.size() < 2 ||
                            cycle.front() != cycle.back())
                            cycle.push_back(id);
                        return -1;
                    }
                    best = std::max(best, 1 + sub);
                }
                color[static_cast<std::size_t>(id)] = 2;
                longest[static_cast<std::size_t>(id)] = best;
                return best;
            };
            // Every explored state is reachable (possibly via granted
            // edges), so a not-granted cycle anywhere is starvation.
            // Visit states in id order, so the rendered counterexample
            // enters a cycle at a fixed point.
            int b = 0;
            for (int id = 0; id < numIds; ++id) {
                if (!reached[static_cast<std::size_t>(id)])
                    continue;
                b = std::max(b, dfs(dfs, id));
                if (!cycle.empty()) {
                    b = -1;
                    break;
                }
            }
            if (b < 0) {
                char buf[128];
                std::snprintf(buf, sizeof buf,
                              "  target (port%d -> out%d) starves; "
                              "not-granted cycle:\n",
                              tp, to);
                res.counterexample = buf;
                // Render the adversary schedule around the cycle.
                for (std::size_t i = cycle.size(); i-- > 0;) {
                    int from = cycle[i];
                    int next = i > 0 ? cycle[i - 1] : cycle.back();
                    const int begin =
                        first[static_cast<std::size_t>(from)];
                    const int end =
                        begin + count[static_cast<std::size_t>(from)];
                    for (int k = begin; k < end; ++k) {
                        const Edge &e = edges[static_cast<std::size_t>(k)];
                        if (e.to == next && !e.targetGranted) {
                            res.counterexample += "    cycle: ";
                            res.counterexample += e.label();
                            res.counterexample += '\n';
                            break;
                        }
                    }
                }
                return res;
            }
            worstBound = std::max(worstBound, b + 1);
        }
    }
    res.ok = true;
    res.bound = worstBound;
    return res;
}

} // namespace noc::model
