/**
 * @file
 * Channel dependency graph (CDG) core: a sparse directed graph over
 * the network's input-VC slots plus cycle detection.
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
 * Sparse directed graph with idempotent edge insertion.
 *
 * Vertices are the extended-CDG slots, numbered
 * node * slotsPerNode + slot by the prover. Each vertex's adjacency
 * row is the bit row of a dense n x n matrix, but only its non-zero
 * 64-bit words are stored, in ascending word order: a slot waits on
 * slots of at most five routers, so a row holds a handful of words
 * however large the mesh (an 8x8 Generic/XY graph has 5,508 edges
 * over 960 vertices, against 14,400 dense words). The walker can
 * re-add a dependency it meets again without bookkeeping.
 */
class Cdg
{
  public:
    explicit Cdg(int numVertices);

    /**
     * Adds the edge baseU + i -> baseV + j for every set bit i of @p u
     * and j of @p v: each held slot waits on every requested slot. The
     * request mask is ORed into each held slot's row a word at a time,
     * and only bits that were clear count as new edges.
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
     * little-endian bytes each), into the FNV-1a hash @p h, as if it
     * were stored dense: a run of k zero words is one multiply by the
     * FNV prime to the power 8k. Two graphs of one vertex count fold
     * alike iff they have the same edges.
     */
    std::uint64_t digest(std::uint64_t h) const;

    /**
     * One dependency cycle as an ordered vertex list (the closing edge
     * from back() to front() is implicit); empty when the graph is
     * acyclic.  Found via Tarjan SCC, roots and out-edges taken in
     * ascending vertex order: any non-trivial component (or
     * self-loop) is turned into an explicit cycle by walking a DFS
     * spanning tree of the component back to its root.
     */
    std::vector<int> findCycle() const;

    /** Calls @p fn with each out-neighbour of @p from, ascending. */
    template <typename Fn>
    void
    forEachEdge(int from, Fn &&fn) const
    {
        const Row &r = rows_[static_cast<std::size_t>(from)];
        for (std::uint32_t i = r.begin; i < r.begin + r.size; ++i) {
            for (std::uint64_t bits = words_[i].bits; bits;
                 bits &= bits - 1) {
                fn(static_cast<int>(words_[i].index) * 64 +
                   __builtin_ctzll(bits));
            }
        }
    }

  private:
    /** One non-zero word of a row: bits of targets 64*index + b. */
    struct Word {
        std::uint32_t index;
        std::uint64_t bits;
    };

    /** A row's words: words_[begin, begin + size), room for cap. */
    struct Row {
        std::uint32_t begin = 0;
        std::uint32_t size = 0;
        std::uint32_t cap = 0;
    };

    /** ORs @p bits (non-zero) into word @p index of row @p from. */
    void orInto(int from, std::uint32_t index, std::uint64_t bits);
    /** Inserts word @p index, absent from @p r, at position @p at. */
    void insertWord(Row &r, std::uint32_t at, std::uint32_t index,
                    std::uint64_t bits);

    int n_;
    int rowWords_; ///< 64-bit words per row of the dense matrix
    std::size_t edges_ = 0;
    std::vector<Row> rows_;
    /** Every row's words; a row that outgrows its room moves to the
     *  end with twice the room. */
    std::vector<Word> words_;
};

} // namespace noc::check

#endif // ROCOSIM_CHECK_CDG_H_
