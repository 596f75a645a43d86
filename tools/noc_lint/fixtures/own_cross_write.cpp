// Fixture: owner-private state written through a foreign object.
// Expected: exactly one noc-lint-own-cross-write on the marked line.
#define NOC_PHASE_FN(phase)
#define NOC_OWNED_STATE(...)

struct R {
    NOC_OWNED_STATE(recv) int credits_ = 0;

    NOC_PHASE_FN(recv)
    void
    onRecv()
    {
        credits_ += 1; // ok: the owner writes its own state
    }

    NOC_PHASE_FN(recv)
    void
    steal(R &other)
    {
        other.credits_ = 7; // BAD: phase matches, but the object is foreign
    }

    NOC_PHASE_FN(recv)
    int
    peek(const R &other) const
    {
        return std::min(credits_, other.credits_); // ok: a read, not a write
    }
};
