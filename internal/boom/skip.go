package boom

import "icicle/internal/isa"

// Event-driven stall skipping, the BOOM half of the design in DESIGN.md
// "Event-driven detailed cycle loops". A cycle is quiescent when no stage
// can mutate state: nothing completes, the commit head is blocked, no
// issue queue can fire, dispatch is empty or backpressured, and fetch is
// frozen. On such cycles the stages replay the identical event sample, so
// step() jumps the clock to the earliest wake-up and bulk-accounts the
// sample. Every "until cycle X" timer consulted by a stage or by the
// TMA sampling heuristics bounds the returned target:
//
//   - in-flight writeback times (uop.doneAt)
//   - the unpipelined divider's longBusy
//   - the fetch-buffer head's availableAt
//   - frontend redirect/refill timers (fetchStall, refillUntil)
//   - the memory hierarchy's next refill landing (Hier.NextEvent),
//     which flips the D$-blocked sampling heuristic
//
// Predicates with no timer (full buffers, drained stream, operand chains
// bottoming out in an issue queue) are constant until one of the timers
// fires, so a conservative min over the timers is always safe; with no
// timer pending there is no skip. Like rocket's, the toggle is an engine
// choice, not a Config field — results are bit-identical either way and
// sim memo keys must not see it.

// DefaultStallSkip is the construction-time default for the event-driven
// skip path. The -no-skip CLI ablation flips it before any core is built.
var DefaultStallSkip = true

// SetStallSkip enables or disables the event-driven skip path on this
// core. The setting survives Reset (an engine choice, like telemetry);
// results are bit-identical either way.
func (c *Core) SetStallSkip(on bool) { c.noSkip = !on }

// StallSkip reports whether the event-driven skip path is enabled.
func (c *Core) StallSkip() bool { return !c.noSkip }

// SkipStats returns how many cycles were bulk-advanced and in how many
// jumps since the last Reset.
func (c *Core) SkipStats() (cycles, events uint64) { return c.skipped, c.skipEvents }

// quiesceTarget reports whether the core is quiescent at the current
// cycle and, if so, the earliest future cycle at which any stage can act
// or any sampled event can change. The caller caps the target at the run
// loop's window/budget bound and re-enters the normal step there.
func (c *Core) quiesceTarget() (uint64, bool) {
	// recovering decrements every cycle — never skip through it.
	if c.recovering > 0 {
		return 0, false
	}
	t := c.cycle

	// Cheap O(1) rejections first, so busy cycles (the common case on
	// compute-bound code) pay a handful of compares, not the scans below.
	//
	// Fetch: quiescent only when frozen — by a redirect/refill timer, a
	// full fetch buffer, or a drained stream. A wrong-path fetch with
	// buffer space streams poison uops — a mutation.
	switch {
	case c.fetchStall > t || c.refillUntil > t:
	case c.wrongPath:
		if c.fbLen() < c.Cfg.FBEntries {
			return 0, false
		}
	case c.fbLen() >= c.Cfg.FBEntries:
	case c.streamEmpty():
	default:
		return 0, false // fetch would deliver this cycle
	}
	// Commit: a done, non-poison head retires this cycle. (done implies
	// doneAt <= cycle — completeStage only sets it then — so no doneAt
	// check is needed; an undone head's wake-up is covered by the
	// in-flight and issue scans.)
	if c.robCount > 0 {
		if h := c.robAt(0); h.done && !h.poison {
			return 0, false
		}
	}

	const never = ^uint64(0)
	bound := never
	add := func(x uint64) {
		if x > t && x < bound {
			bound = x
		}
	}

	// Complete: any in-flight uop landing now writes back (and may flush
	// or machine-clear) — not quiescent. Future landings bound the target.
	for _, ui := range c.inflight {
		u := c.uops.at(ui)
		if u.doneAt <= t {
			return 0, false
		}
		add(u.doneAt)
	}

	// Issue: any ready candidate in a servable queue fires this cycle;
	// µops outside the candidate lists wait on an unissued producer.
	// ready() is cycle-invariant while nothing completes (a candidate's
	// readyAt is the doneAt of an issued producer, still in flight if in
	// the future; done flags and the store-forwarding disambiguation only
	// change at a writeback; the in-flight bounds cover all three), so
	// scanning once at t suffices.
	for q := range c.cand {
		if queueKind(q) == qLong && c.longBusy > t {
			if c.iqLen[q] > 0 {
				add(c.longBusy)
			}
			continue
		}
		for _, ui := range c.cand[q] {
			if c.ready(c.uops.at(ui)) {
				return 0, false
			}
		}
	}

	// Dispatch: the fetch-buffer head either isn't available yet (timer)
	// or must be blocked by dispatchBlocked, the backpressure test
	// tryDispatch itself applies — otherwise it renames this cycle. The
	// rejection conditions only change at a commit, issue, or flush, all
	// bounded above.
	if c.fbLen() > 0 {
		e := &c.fb[c.fbHead]
		if e.availableAt > t {
			add(e.availableAt)
		} else if !c.dispatchBlocked(e.rec.Inst.Op.Class()) {
			return 0, false
		}
	}

	// The frontend timers are always bounds: the I$-blocked sampling
	// heuristic reads refillUntil even when fetch is blocked for another
	// reason too.
	add(c.fetchStall)
	add(c.refillUntil)

	// The D$-blocked sampling heuristic flips when the next outstanding
	// miss (or prefetch) lands, even though no pipeline state changes.
	if c.anyIQNonEmpty() {
		add(c.Hier.NextEvent(t))
	}

	if bound == never {
		return 0, false
	}
	return bound, true
}

// queueFor maps an instruction class to its issue queue.
func queueFor(cls isa.Class) queueKind {
	switch cls {
	case isa.ClassLoad, isa.ClassStore, isa.ClassAtomic:
		return qMem
	case isa.ClassMul, isa.ClassDiv:
		return qLong
	}
	return qInt
}

// dispatchBlocked reports, without side effects, whether an instruction
// of class cls cannot rename this cycle: the one backpressure definition,
// shared by tryDispatch and the skip proof.
func (c *Core) dispatchBlocked(cls isa.Class) bool {
	if c.robFull() {
		return true
	}
	q := queueFor(cls)
	cap := [numQueues]int{c.Cfg.IQInt, c.Cfg.IQMem, c.Cfg.IQLong}[q]
	switch {
	case c.iqLen[q] >= cap:
		return true
	case cls == isa.ClassLoad:
		return c.robLoads >= c.Cfg.LQEntries
	case cls == isa.ClassStore:
		return c.robStores >= c.Cfg.STQEntries
	case cls == isa.ClassFence:
		// Fences dispatch only into an empty window.
		return c.robCount > 0 || len(c.inflight) > 0
	}
	return false
}
