package boom

// Event-driven issue wakeup (see DESIGN.md "BOOM issue wakeup"). Issue
// selection reads only µops whose producers have all issued:
//
//   - Rename (addSource): a source whose producer has already issued
//     folds the producer's final doneAt into the consumer's readyAt; a
//     source whose producer has not issued records it in prod[s] and
//     links the consumer into the producer's intrusive dependents list
//     (deps, threaded through the consumers' next[s]). A µop with no
//     recorded producer is a candidate at once.
//   - Issue (wakeDependents): the producer walks its list once, raising
//     each consumer's readyAt to its doneAt and clearing prod[s]; a
//     consumer whose last producer issued joins woken. Woken µops are
//     inserted into their queue's candidate list after the cycle's last
//     queue scan (insertWoken): their readyAt is at least cycle+1, and
//     the list being walked must not grow under the walk.
//   - Flush (unlinkSources): flushAfter squashes the ROB tail youngest
//     first, and a list holds its consumers youngest first, so each
//     squashed waiting µop is the head of every list it is in.
//
// The issue predicate is then readyAt <= cycle — equal to the old
// per-scan producer check, because a producer's done flag is set exactly
// at its doneAt cycle and a retired or squashed producer is
// architecturally done — plus the unchanged store-forwarding
// disambiguation for loads.

// link is a wakeup reference packed into 16 bits so a uop's five links
// keep its slot at 128 bytes. A source link (prod) names a producer's
// arena slot; a list link (deps, next) names a consumer slot and which
// of its two sources the node is for, as slot<<1 | operand. Both are
// stored plus one, so the zero link — what arena.alloc's clear leaves —
// is nilLink.
type link uint16

// nilLink ends a dependents list and marks a source with no unissued
// producer.
const nilLink link = 0

// maxROBEntries bounds the arena so every list node fits in a link.
const maxROBEntries = 1 << 14

func slotLink(ui int32) link    { return link(ui + 1) }
func (l link) slot() int32      { return int32(l) - 1 }
func node(ui int32, s int) link { return link(ui<<1|int32(s)) + 1 }

// consumer decodes a list node into the consumer's slot and operand.
func (l link) consumer() (int32, int) {
	n := int32(l) - 1
	return n >> 1, int(n & 1)
}

// waiting reports whether some producer of u has not issued yet.
func (u *uop) waiting() bool { return u.prod[0] != nilLink || u.prod[1] != nilLink }

// addSource records, at rename, that source s of uop u (slot ui) reads
// the value producer p writes (nilIdx: the value is architectural).
func (c *Core) addSource(ui int32, u *uop, s int, p int32) {
	if p == nilIdx {
		return
	}
	pu := c.uops.at(p)
	if pu.issued {
		u.readyAt = max(u.readyAt, pu.doneAt)
		return
	}
	u.prod[s] = slotLink(p)
	u.next[s] = pu.deps
	pu.deps = node(ui, s)
}

// wakeDependents runs once, when u issues with its final doneAt and a
// non-empty dependents list.
func (c *Core) wakeDependents(u *uop) {
	for d := u.deps; d != nilLink; {
		ci, s := d.consumer()
		cu := c.uops.at(ci)
		d = cu.next[s]
		cu.prod[s] = nilLink
		cu.readyAt = max(cu.readyAt, u.doneAt)
		if !cu.waiting() {
			c.woken[cu.q] = append(c.woken[cu.q], ci)
		}
	}
	u.deps = nilLink
}

// insertWoken moves queue q's woken µops into its candidate list,
// keeping the list in age (seq) order.
func (c *Core) insertWoken(q queueKind) {
	l := c.cand[q]
	for _, ui := range c.woken[q] {
		seq := c.uops.at(ui).seq
		l = append(l, ui)
		j := len(l) - 1
		for ; j > 0 && c.uops.at(l[j-1]).seq > seq; j-- {
			l[j] = l[j-1]
		}
		l[j] = ui
	}
	c.cand[q] = l
	c.woken[q] = c.woken[q][:0]
}

// unlinkSources removes the squashed waiting uop u (slot ui) from its
// producers' dependents lists. Operand 1 goes first: when both sources
// name one producer, its node was linked last.
func (c *Core) unlinkSources(ui int32, u *uop) {
	for s := 1; s >= 0; s-- {
		p := u.prod[s]
		if p == nilLink {
			continue
		}
		pu := c.uops.at(p.slot())
		if pu.deps != node(ui, s) {
			panic("boom: squashed uop is not the head of its producer's dependents list")
		}
		pu.deps = u.next[s]
	}
}
