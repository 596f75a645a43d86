#include "model/explorer.h"

#include <cstdio>
#include <vector>

#include "common/log.h"

namespace noc::model {

namespace {

/**
 * The explored states in BFS order, each with how it was first
 * reached. The order is the BFS frontier too: states are expanded in
 * the order they are first reached.
 */
struct Reached {
    std::uint64_t state;
    std::uint32_t parent; ///< index of the parent; the root's is itself
    MicroModel::Action act;
};

/**
 * Index of every reached state: open addressing over a power-of-two
 * slot array, linear probing, at most half full. No state sets bit 15
 * (packet 0's unused top bit), so an all-ones key marks an empty slot.
 */
class StateIndex
{
  public:
    StateIndex() : slots_(64) {}

    /** Stores @p index for @p s unless @p s is present; returns the
     *  index stored for @p s. */
    std::uint32_t
    insert(std::uint64_t s, std::uint32_t index)
    {
        Slot *sl = &slots_[probe(s)];
        if (sl->key == s)
            return sl->index;
        if (2 * (size_ + 1) > slots_.size()) {
            grow();
            sl = &slots_[probe(s)];
        }
        *sl = Slot{s, index};
        ++size_;
        return index;
    }

  private:
    static constexpr std::uint64_t kEmpty = ~0ull;

    struct Slot {
        std::uint64_t key = kEmpty;
        std::uint32_t index = 0;
    };

    /** The slot holding @p s, or the empty slot that would. */
    std::size_t
    probe(std::uint64_t s) const
    {
        // splitmix64's finalizer: states differ in a few packed
        // fields, and every output bit depends on all of them.
        std::uint64_t h = s;
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
        h ^= h >> 31;
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = static_cast<std::size_t>(h) & mask;
        while (slots_[i].key != s && slots_[i].key != kEmpty)
            i = (i + 1) & mask;
        return i;
    }

    void
    grow()
    {
        std::vector<Slot> old(2 * slots_.size());
        old.swap(slots_);
        for (const Slot &sl : old)
            if (sl.key != kEmpty)
                slots_[probe(sl.key)] = sl;
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

/** Renders the action path from the initial state to reached[target]. */
std::string
renderTrace(const MicroModel &m, const std::vector<Reached> &reached,
            std::uint32_t target)
{
    std::vector<std::uint32_t> path;
    for (std::uint32_t cur = target;; cur = reached[cur].parent) {
        path.push_back(cur);
        if (reached[cur].parent == cur)
            break;
    }
    std::string out;
    char buf[64];
    for (std::size_t i = path.size(); i-- > 1;) {
        std::snprintf(buf, sizeof buf, "  step %zu: ",
                      path.size() - 1 - i);
        out += buf;
        out += m.renderAction(reached[path[i - 1]].act,
                              reached[path[i]].state);
        out += '\n';
    }
    out += "  reached state:\n";
    out += m.renderState(reached[target].state);
    return out;
}

} // namespace

std::string
ModelResult::summary() const
{
    char buf[192];
    if (ok) {
        std::snprintf(buf, sizeof buf,
                      "%-34s OK     %7zu states %8zu transitions",
                      scenario.c_str(), states, transitions);
    } else {
        std::snprintf(buf, sizeof buf, "%-34s FAILED %s",
                      scenario.c_str(), property.c_str());
    }
    return buf;
}

ModelResult
explore(const Scenario &sc, std::size_t stateCap)
{
    MicroModel m(sc);
    ModelResult res;
    res.scenario = sc.name;

    std::vector<Reached> reached;
    StateIndex index;
    reached.push_back({m.initialState(), 0, {}});
    index.insert(reached[0].state, 0);

    // First terminal state in which packet i was dropped, for
    // rendering obligation-violation counterexamples.
    std::array<std::uint32_t, kMaxPackets> dropWitness{};
    std::array<bool, kMaxPackets> hasDropWitness{};

    std::vector<MicroModel::Transition> trans;
    for (std::uint32_t cur = 0; cur < reached.size(); ++cur) {
        const std::uint64_t s = reached[cur].state;
        ++res.states;
        if (res.states > stateCap) {
            res.property = "state-space cap exceeded (proof incomplete)";
            return res;
        }

        if (m.isTerminal(s)) {
            for (int i = 0; i < m.numPackets(); ++i) {
                std::uint8_t o = m.outcome(s, i);
                NOC_ASSERT(o != 0, "terminal state with live packet");
                res.outcomes[i] |= o;
                if (o == kOutcomeDropped && !hasDropWitness[i]) {
                    hasDropWitness[i] = true;
                    dropWitness[i] = cur;
                }
            }
            continue;
        }

        m.enumerate(s, trans);
        if (trans.empty()) {
            res.property = "stuck state: live packet with no enabled "
                           "transition (stranded)";
            res.counterexample = renderTrace(m, reached, cur);
            return res;
        }
        for (const MicroModel::Transition &t : trans) {
            ++res.transitions;
            const auto next = static_cast<std::uint32_t>(reached.size());
            const std::uint32_t at = index.insert(t.next, next);
            if (at == next)
                reached.push_back({t.next, cur, t.act});
            int pkt = t.act.packet;
            if (m.measure(t.next, pkt) >= m.measure(s, pkt)) {
                res.property =
                    "progress-measure violation (livelock possible)";
                // Make the offending edge part of the rendered path.
                reached[at].parent = cur;
                reached[at].act = t.act;
                res.counterexample = renderTrace(m, reached, at);
                return res;
            }
        }
    }

    // Terminal accounting and delivery obligations.
    for (int i = 0; i < m.numPackets(); ++i) {
        if (res.outcomes[i] == 0) {
            // Unreachable given no stuck state and a finite DAG, but
            // keep the check: the proof must not rest on reasoning
            // outside the explored graph.
            res.property = "packet never reached a terminal outcome";
            return res;
        }
        bool obliged = sc.faults.empty() || sc.packets[i].mustDeliver;
        if (obliged && (res.outcomes[i] & kOutcomeDropped)) {
            char buf[128];
            std::snprintf(buf, sizeof buf,
                          "pkt%d must deliver but a schedule drops it",
                          i);
            res.property = buf;
            res.counterexample =
                renderTrace(m, reached, dropWitness[i]);
            return res;
        }
    }

    res.ok = true;
    return res;
}

} // namespace noc::model
