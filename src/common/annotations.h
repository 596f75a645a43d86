/**
 * @file
 * Machine-checked phase-discipline annotations (DESIGN section 13).
 *
 * The simulator's determinism contract — sharded runs bit-identical to
 * serial — rests on a single-writer discipline: every piece of
 * cross-router state (the receiver-held link slot words, the idle-skip
 * flags, the shard epilogue's reduction fields) is written only from a
 * specific sub-phase of the cycle, and the pentachromatic step
 * schedule serialises those sub-phases across threads. These macros
 * make that contract visible to `tools/noc_lint`, which rejects at
 * lint time any write that bypasses the discipline (the runtime
 * NOC_INVARIANT sweeps only catch a violation after it has corrupted
 * a run).
 *
 * Phases (see DESIGN section 13 for the full contract):
 *
 *   recv     receive loops and injection pull: consume own due link
 *            slots (clear own pendFlitIn_ slot bits, empty own
 *            pendCreditIn_ VC masks), fill own VC buffers
 *   alloc    VC / switch allocation: no mirror writes at all
 *   send     sendFlit / sendCredit: the only code allowed to touch a
 *            *neighbour's* mirrors (set a flit slot bit in its
 *            pendFlitIn_, a VC bit in its pendCreditIn_ masks) and
 *            wake flag
 *   inject   NIC traffic generation (pre-step, shard-local)
 *   step     a whole-router step driver: composes the above, writes
 *            no phase-guarded state directly
 *   engine   the cycle drivers (Network::step, the shard workers):
 *            idle-skip flags and step counters
 *   epilogue the run loop's end-of-cycle step (inside the barrier when
 *            sharded): reductions and run-control updates, strictly
 *            single-threaded
 *   setup    construction / wiring; may initialise anything
 *
 * NOC_PHASE_FN(phase) annotates a function; NOC_PHASE_STATE(p1, ...)
 * annotates a data member with the set of phases allowed to write it.
 * Constructors of the owning class are implicitly `setup`. The macros
 * expand to nothing (they carry no codegen meaning): noc_lint reads
 * the macro tokens straight from the source text.
 *
 * Ownership vocabulary (DESIGN section 14). On top of the phase set,
 * every annotated member declares *who may reach it across the shard
 * boundary*, which is what the distance-2 colouring actually protects:
 *
 *   NOC_OWNED_STATE(p1, ...)   router-private: written only through
 *                              the owning object, from that object's
 *                              phase-annotated methods. A write rooted
 *                              at any other object is an ownership
 *                              violation (noc-lint own-cross-write)
 *                              even when the phase matches.
 *   NOC_SHARED_ATOMIC(p1, ...) crosses the shard boundary by design
 *                              (pendFlitIn_ slot bits, pendCreditIn_
 *                              VC masks): must be
 *                              std::atomic (own-nonatomic-shared) and
 *                              reachable from a neighbour only through
 *                              the sanctioned mirror / reserveInputVc
 *                              APIs (cross-router-access).
 *   NOC_EPILOGUE_STATE         written only by the run loop's
 *                              end-of-cycle step (or setup); any
 *                              other phase writing it escapes the
 *                              single-threaded window the barrier
 *                              release/acquire pair publishes
 *                              (own-epilogue-escape).
 *
 * The dynamic counterpart is src/par/race_check.h: with a checker
 * attached (NOC_RACE_CHECK=1, or a test's) the run loop logs per-step
 * access records for the owned/shared footprints and validates after
 * every superstep that the schedule kept them disjoint.
 */
#ifndef ROCOSIM_COMMON_ANNOTATIONS_H_
#define ROCOSIM_COMMON_ANNOTATIONS_H_

#define NOC_PHASE_FN(phase)
#define NOC_PHASE_STATE(...)
#define NOC_OWNED_STATE(...)
#define NOC_SHARED_ATOMIC(...)
#define NOC_EPILOGUE_STATE

#endif // ROCOSIM_COMMON_ANNOTATIONS_H_
