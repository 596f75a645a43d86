/**
 * @file
 * Channel dependency graph (CDG) core: a dense directed graph over the
 * network's input-VC slots plus cycle detection.
 *
 * The deadlock-freedom prover (deadlock.h) enumerates every
 * (holding VC, requested VC) dependency a routing algorithm and VC
 * organisation can create and records each as an edge here.  The
 * classic result (Dally & Seitz) is that wormhole routing is
 * deadlock-free iff this graph is acyclic, so the analysis reduces to
 * SCC computation: any strongly connected component with an internal
 * edge yields a concrete counterexample cycle, which we extract
 * explicitly so the failure report can name every (router, VC class)
 * on the loop.
 */
#ifndef ROCOSIM_CHECK_CDG_H_
#define ROCOSIM_CHECK_CDG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace noc::check {

/**
 * Dense directed graph with O(1) idempotent edge insertion.
 *
 * Vertices are the extended-CDG slots, numbered
 * node * slotsPerNode + slot by the prover; adjacency is a bitset
 * matrix (a full 8x8 RoCo mesh has 768 vertices — 74 KiB of bits), so
 * the walker can re-add a dependency it meets again without
 * bookkeeping.
 */
class Cdg
{
  public:
    explicit Cdg(int numVertices);

    /**
     * Adds the edge baseU + i -> baseV + j for every set bit i of @p u
     * and j of @p v: each held slot waits on every requested slot. The
     * request mask is ORed into each held slot's adjacency row a word
     * at a time, and only bits that were clear count as new edges.
     */
    void addEdges(int baseU, std::uint64_t u, int baseV, std::uint64_t v);
    void addEdge(int from, int to) { addEdges(from, 1, to, 1); }
    bool hasEdge(int from, int to) const;

    int numVertices() const { return n_; }
    std::size_t numEdges() const { return edges_; }

    /** FNV-1a offset basis: the digest of no graph at all. */
    static constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ull;

    /**
     * Folds the adjacency matrix, row by row and word by word (eight
     * little-endian bytes each), into the FNV-1a hash @p h. Two graphs
     * of one vertex count fold alike iff they have the same edges.
     */
    std::uint64_t digest(std::uint64_t h) const;

    /**
     * One dependency cycle as an ordered vertex list (the closing edge
     * from back() to front() is implicit); empty when the graph is
     * acyclic.  Found via Tarjan SCC: any non-trivial component (or
     * self-loop) is turned into an explicit cycle by walking a DFS
     * spanning tree of the component back to its root.
     */
    std::vector<int> findCycle() const;

    /** Iterates the out-neighbours of @p from (tests / verification). */
    template <typename Fn>
    void
    forEachEdge(int from, Fn &&fn) const
    {
        const std::uint64_t *row = &adj_[static_cast<std::size_t>(from) *
                                        static_cast<std::size_t>(words_)];
        for (int w = 0; w < words_; ++w) {
            std::uint64_t bits = row[w];
            while (bits) {
                int b = countr_zero(bits);
                fn(w * 64 + b);
                bits &= bits - 1;
            }
        }
    }

  private:
    static int countr_zero(std::uint64_t v);

    int n_;
    int words_; ///< 64-bit words per adjacency row
    std::size_t edges_ = 0;
    std::vector<std::uint64_t> adj_; ///< n_ rows x words_ words
};

} // namespace noc::check

#endif // ROCOSIM_CHECK_CDG_H_
