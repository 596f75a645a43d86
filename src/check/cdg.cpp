#include "check/cdg.h"

#include <algorithm>

#include "common/log.h"

namespace noc::check {

int
Cdg::countr_zero(std::uint64_t v)
{
    return __builtin_ctzll(v);
}

Cdg::Cdg(int numVertices)
    : n_(numVertices), words_((numVertices + 63) / 64)
{
    NOC_ASSERT(numVertices > 0, "CDG needs at least one vertex");
    adj_.assign(static_cast<std::size_t>(n_) *
                    static_cast<std::size_t>(words_),
                0);
}

void
Cdg::addEdges(int baseU, std::uint64_t u, int baseV, std::uint64_t v)
{
    if (u == 0 || v == 0)
        return;
    NOC_ASSERT(baseU >= 0 && baseU + 63 - __builtin_clzll(u) < n_ &&
                   baseV >= 0 && baseV + 63 - __builtin_clzll(v) < n_,
               "CDG edge endpoint out of range");
    // The request mask lands in at most two adjacent words of a row.
    const std::size_t word = static_cast<std::size_t>(baseV / 64);
    const int shift = baseV % 64;
    const std::uint64_t lo = v << shift;
    const std::uint64_t hi = shift == 0 ? 0 : v >> (64 - shift);
    auto orIn = [this](std::uint64_t &w, std::uint64_t bits) {
        edges_ +=
            static_cast<std::size_t>(__builtin_popcountll(bits & ~w));
        w |= bits;
    };
    for (std::uint64_t held = u; held; held &= held - 1) {
        const std::size_t from =
            static_cast<std::size_t>(baseU + countr_zero(held));
        std::uint64_t *row =
            &adj_[from * static_cast<std::size_t>(words_) + word];
        orIn(row[0], lo);
        if (hi)
            orIn(row[1], hi);
    }
}

bool
Cdg::hasEdge(int from, int to) const
{
    NOC_ASSERT(from >= 0 && from < n_ && to >= 0 && to < n_,
               "CDG edge endpoint out of range");
    return (adj_[static_cast<std::size_t>(from) *
                     static_cast<std::size_t>(words_) +
                 static_cast<std::size_t>(to / 64)] &
            (1ull << (to % 64))) != 0;
}

std::uint64_t
Cdg::digest(std::uint64_t h) const
{
    constexpr std::uint64_t kPrime = 0x100000001b3ull;
    // A zero byte only multiplies by the prime, so a zero word (most
    // of a sparse adjacency matrix) is one multiply by its 8th power.
    constexpr std::uint64_t kPrime8 = [] {
        std::uint64_t p = 1;
        for (int i = 0; i < 8; ++i)
            p *= kPrime;
        return p;
    }();
    for (std::uint64_t word : adj_) {
        if (word == 0) {
            h *= kPrime8;
            continue;
        }
        for (int b = 0; b < 8; ++b) {
            h ^= (word >> (8 * b)) & 0xffu;
            h *= kPrime;
        }
    }
    return h;
}

namespace {

/** Iterative Tarjan SCC frame: vertex plus resume position. */
struct Frame {
    int v;
    int word;          ///< adjacency word being scanned
    std::uint64_t bits; ///< unscanned bits of that word
};

} // namespace

std::vector<int>
Cdg::findCycle() const
{
    // Tarjan's algorithm, iterative (the graph can be thousands of
    // vertices deep on large meshes).  We stop at the first component
    // that can host a cycle: size >= 2, or a single vertex with a
    // self-loop.
    constexpr int kUnvisited = -1;
    std::vector<int> index(static_cast<std::size_t>(n_), kUnvisited);
    std::vector<int> low(static_cast<std::size_t>(n_), 0);
    std::vector<bool> onStack(static_cast<std::size_t>(n_), false);
    std::vector<int> stack;
    std::vector<Frame> frames;
    int nextIndex = 0;

    std::vector<int> component;
    for (int root = 0; root < n_ && component.empty(); ++root) {
        if (index[static_cast<std::size_t>(root)] != kUnvisited)
            continue;
        frames.push_back({root, 0, 0});
        bool entering = true;
        while (!frames.empty() && component.empty()) {
            Frame &f = frames.back();
            if (entering) {
                index[static_cast<std::size_t>(f.v)] = nextIndex;
                low[static_cast<std::size_t>(f.v)] = nextIndex;
                ++nextIndex;
                stack.push_back(f.v);
                onStack[static_cast<std::size_t>(f.v)] = true;
                f.word = 0;
                f.bits = adj_[static_cast<std::size_t>(f.v) *
                              static_cast<std::size_t>(words_)];
                entering = false;
            }
            // Advance to the next out-edge of f.v.
            int next = -1;
            while (f.word < words_) {
                if (f.bits == 0) {
                    ++f.word;
                    if (f.word < words_) {
                        f.bits =
                            adj_[static_cast<std::size_t>(f.v) *
                                     static_cast<std::size_t>(words_) +
                                 static_cast<std::size_t>(f.word)];
                    }
                    continue;
                }
                int b = countr_zero(f.bits);
                f.bits &= f.bits - 1;
                next = f.word * 64 + b;
                break;
            }
            if (next >= 0) {
                std::size_t ni = static_cast<std::size_t>(next);
                if (index[ni] == kUnvisited) {
                    frames.push_back({next, 0, 0});
                    entering = true;
                } else if (onStack[ni]) {
                    low[static_cast<std::size_t>(f.v)] = std::min(
                        low[static_cast<std::size_t>(f.v)], index[ni]);
                }
                continue;
            }
            // All edges of f.v scanned: close the vertex.
            int v = f.v;
            frames.pop_back();
            if (!frames.empty()) {
                int parent = frames.back().v;
                low[static_cast<std::size_t>(parent)] =
                    std::min(low[static_cast<std::size_t>(parent)],
                             low[static_cast<std::size_t>(v)]);
            }
            if (low[static_cast<std::size_t>(v)] ==
                index[static_cast<std::size_t>(v)]) {
                // v roots a component: pop it off the Tarjan stack.
                std::vector<int> scc;
                for (;;) {
                    int w = stack.back();
                    stack.pop_back();
                    onStack[static_cast<std::size_t>(w)] = false;
                    scc.push_back(w);
                    if (w == v)
                        break;
                }
                if (scc.size() >= 2 ||
                    (scc.size() == 1 && hasEdge(scc[0], scc[0]))) {
                    component = std::move(scc);
                }
            }
        }
        frames.clear();
    }

    if (component.empty())
        return {};
    if (component.size() == 1)
        return component; // self-loop

    // Make the component testable in O(1) and extract an explicit
    // cycle: DFS a spanning tree from any member; because the
    // component is strongly connected, some tree vertex has an edge
    // back to the root, and the tree path root -> that vertex plus the
    // closing edge is a cycle.
    std::vector<bool> inScc(static_cast<std::size_t>(n_), false);
    for (int v : component)
        inScc[static_cast<std::size_t>(v)] = true;

    int root = component[0];
    std::vector<int> parent(static_cast<std::size_t>(n_), -1);
    std::vector<bool> seen(static_cast<std::size_t>(n_), false);
    std::vector<int> dfs{root};
    seen[static_cast<std::size_t>(root)] = true;
    int closer = -1;
    while (!dfs.empty() && closer < 0) {
        int v = dfs.back();
        dfs.pop_back();
        if (hasEdge(v, root) && v != root) {
            closer = v;
            break;
        }
        forEachEdge(v, [&](int w) {
            if (!inScc[static_cast<std::size_t>(w)] ||
                seen[static_cast<std::size_t>(w)]) {
                return;
            }
            seen[static_cast<std::size_t>(w)] = true;
            parent[static_cast<std::size_t>(w)] = v;
            dfs.push_back(w);
        });
    }
    NOC_ASSERT(closer >= 0, "SCC without a closing edge to its root");

    std::vector<int> cycle;
    for (int v = closer; v != -1; v = parent[static_cast<std::size_t>(v)])
        cycle.push_back(v);
    std::reverse(cycle.begin(), cycle.end());
    NOC_ASSERT(cycle.front() == root, "cycle extraction lost its root");
    return cycle;
}

} // namespace noc::check
