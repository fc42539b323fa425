package boom

import (
	"fmt"
	"testing"
	"unsafe"

	"icicle/internal/asm"
	"icicle/internal/isa"
	"icicle/internal/kernel"
)

// TestUopSlotSize pins the uop at two 64-byte cache lines: the wakeup
// links are 16-bit so they fit beside the scheduling state.
func TestUopSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(uop{}); n > 128 {
		t.Fatalf("uop slot is %d bytes, want <= 128", n)
	}
}

// wakeRef is the reference the event-driven issue state is checked
// against. It never reads the wakeup links to decide anything: it
// derives each µop's producers with its own rename walk over the ROB
// (the µop's first sighting is the step it dispatched in, so the walk
// sees the rename table it saw), remembers every issued µop's doneAt,
// and recomputes from those which µops are candidates and when they
// become ready.
type wakeRef struct {
	prods  map[uint64][2]uint64 // consumer seq -> producer seqs (0: none)
	doneAt map[uint64]uint64    // issued µop seq -> doneAt

	// Non-vacuity: the most µops seen waiting on a producer at once, and
	// how many µops were seen linked into a list and later squashed.
	maxWaiting int
	squashed   int
	lastLinked map[uint64]bool
}

func newWakeRef() *wakeRef {
	r := &wakeRef{}
	r.clear()
	return r
}

// clear forgets every µop; the core's pipeline must be empty (Reset,
// ResetPipeline, Attach), after which seq numbers may restart.
func (r *wakeRef) clear() {
	r.prods = map[uint64][2]uint64{}
	r.doneAt = map[uint64]uint64{}
	r.lastLinked = map[uint64]bool{}
}

func (r *wakeRef) check(t *testing.T, c *Core, where string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s, cycle %d: %s", where, c.cycle, fmt.Sprintf(format, args...))
	}

	// Rename walk, oldest first: producers of µops seen for the first
	// time, and the seq -> slot map of the live window.
	slotOf := make(map[uint64]int32, c.robCount)
	var last [32]uint64
	for i := 0; i < c.robCount; i++ {
		ui := c.rob[c.robSlot(i)]
		u := c.uops.at(ui)
		slotOf[u.seq] = ui
		if u.issued {
			if d, ok := r.doneAt[u.seq]; ok && d != u.doneAt {
				fail("seq %d: doneAt moved from %d to %d", u.seq, d, u.doneAt)
			}
			r.doneAt[u.seq] = u.doneAt
		}
		if _, ok := r.prods[u.seq]; !ok {
			var ps [2]uint64
			if !u.poison {
				rs1, rs2 := u.rec.Inst.SrcRegs()
				if rs1 != isa.X0 {
					ps[0] = last[rs1]
				}
				if rs2 != isa.X0 {
					ps[1] = last[rs2]
				}
			}
			r.prods[u.seq] = ps
		}
		if rd := u.rec.Inst.DestReg(); rd != isa.X0 {
			last[rd] = u.seq
		}
	}

	// Per-µop state, the expected candidate lists and occupancy.
	var want [numQueues][]int32
	var occ [numQueues]int
	links, waiting := 0, 0
	linked := map[uint64]bool{}
	for i := 0; i < c.robCount; i++ {
		ui := c.rob[c.robSlot(i)]
		u := c.uops.at(ui)
		if u.issued {
			if u.deps != nilLink {
				fail("seq %d issued with a non-empty dependents list", u.seq)
			}
			continue
		}
		if q := queueFor(u.rec.Inst.Op.Class()); u.q != q {
			fail("seq %d in queue %d, want %d", u.seq, u.q, q)
		}
		occ[u.q]++
		var readyAt uint64
		wait := false
		for s, p := range r.prods[u.seq] {
			wantLink := nilLink
			if p != 0 {
				pi, live := slotOf[p]
				switch {
				case live && !c.uops.at(pi).issued:
					wait = true
					wantLink = slotLink(pi)
				default:
					// Issued, or retired (a µop outlives no producer it
					// was squashed with): its doneAt was seen issued.
					d, ok := r.doneAt[p]
					if !ok {
						fail("seq %d: producer %d left unissued", u.seq, p)
					}
					readyAt = max(readyAt, d)
				}
			}
			if u.prod[s] != wantLink {
				fail("seq %d source %d: producer slot %d, want %d (producer seq %d)", u.seq, s, u.prod[s].slot(), wantLink.slot(), p)
			}
			if wantLink != nilLink {
				links++
			}
		}
		if u.readyAt != readyAt {
			fail("seq %d: readyAt %d, want %d", u.seq, u.readyAt, readyAt)
		}
		if wait {
			waiting++
			linked[u.seq] = true
		} else {
			want[u.q] = append(want[u.q], ui)
		}
	}
	for q := range want {
		if c.iqLen[q] != occ[q] {
			fail("queue %d occupancy %d, ROB recount %d", q, c.iqLen[q], occ[q])
		}
		if fmt.Sprint(c.cand[q]) != fmt.Sprint(want[q]) {
			fail("queue %d candidates %v, want %v", q, c.cand[q], want[q])
		}
		if len(c.woken[q]) != 0 {
			fail("queue %d: %d woken µops left uninserted", q, len(c.woken[q]))
		}
	}

	// Every dependents-list node names a live, waiting consumer whose
	// source link points back at the list's owner, and the nodes are
	// exactly the waiting source links: nothing squashed stays linked.
	nodes := 0
	for i := 0; i < c.robCount; i++ {
		pi := c.rob[c.robSlot(i)]
		for d := c.uops.at(pi).deps; d != nilLink; {
			ci, s := d.consumer()
			if int(ci) >= len(c.uops.slab) {
				fail("slot %d's dependents list names slot %d, outside the arena", pi, ci)
			}
			cu := c.uops.at(ci)
			if live, ok := slotOf[cu.seq]; !ok || live != ci || cu.issued {
				fail("slot %d's dependents list names slot %d, not a live waiting µop", pi, ci)
			}
			if cu.prod[s] != slotLink(pi) {
				fail("slot %d's list names slot %d source %d, whose producer is %d", pi, ci, s, cu.prod[s].slot())
			}
			d = cu.next[s]
			if nodes++; nodes > 2*c.robCount {
				fail("dependents lists cycle")
			}
		}
	}
	if nodes != links {
		fail("%d dependents-list nodes, %d waiting source links", nodes, links)
	}

	r.maxWaiting = max(r.maxWaiting, waiting)
	for seq := range r.lastLinked {
		if _, live := slotOf[seq]; !live && !linked[seq] {
			if _, issued := r.doneAt[seq]; !issued {
				r.squashed++
			}
		}
	}
	r.lastLinked = linked

	// Forget µops that can no longer be named: a producer only matters
	// while a consumer in the window names it.
	if len(r.prods) > 4*len(c.rob) {
		keep := map[uint64]bool{}
		for seq := range slotOf {
			keep[seq] = true
			for _, p := range r.prods[seq] {
				keep[p] = true
			}
		}
		for seq := range r.prods {
			if !keep[seq] {
				delete(r.prods, seq)
			}
		}
		for seq := range r.doneAt {
			if !keep[seq] {
				delete(r.doneAt, seq)
			}
		}
	}
}

// TestWakeupMatchesReference steps every BOOM size, with and without
// store forwarding, through every path that adds, issues or squashes
// µops — branch mispredicts, fence.i, store-ordering machine clears, a
// ResetPipeline/Attach window sequence and Reset — and checks the
// candidate lists, readyAt, occupancy and dependents lists against
// wakeRef after every step.
func TestWakeupMatchesReference(t *testing.T) {
	const budget = 400_000
	branchy := kernel.BranchDense.Program(5)
	aliasing := kernel.MemoryAliasing.Program(3)
	fenceI := `
		li   s0, 0x400000
		li   t0, 30
	loop:
		ld   a1, 0(s0)
		mul  a2, a1, a1
		sd   a2, 8(s0)
		ld   a3, 8(s0)
		add  a4, a3, a3
		fence.i
		sd   a4, 16(s0)
		div  a5, a4, t0
		addi t0, t0, -1
		bnez t0, loop
		ecall
	`
	// squashed totals, per path, the waiting µops seen squashed: the
	// flushing paths must unlink some on at least one size.
	squashed := map[string]int{}
	for _, size := range Sizes {
		for _, fwd := range []bool{false, true} {
			cfg := NewConfig(size)
			cfg.StoreForwarding = fwd
			sub := func(path string, body func(t *testing.T, k *lsqChecker, r *wakeRef)) {
				t.Run(fmt.Sprintf("%v/fwd=%v/%s", size, fwd, path), func(t *testing.T) {
					k := newChecker(t, cfg, aliasing)
					if path == "branch-mispredict" {
						k = newChecker(t, cfg, branchy)
					} else if path == "fence.i" {
						k = newChecker(t, cfg, fenceI)
					}
					r := newWakeRef()
					k.extra = func(where string) { r.check(t, k.c, where) }
					body(t, k, r)
					if r.maxWaiting == 0 {
						t.Fatal("no µop ever waited on a producer")
					}
					squashed[path] += r.squashed
				})
			}

			sub("branch-mispredict", func(t *testing.T, k *lsqChecker, r *wakeRef) {
				k.run(budget)
				if k.tally(k.c.ids.brMispredict) == 0 {
					t.Fatal("no branch mispredicts")
				}
			})
			sub("fence.i", func(t *testing.T, k *lsqChecker, r *wakeRef) {
				k.run(budget)
				if n := k.tally(k.c.ids.fenceRetired); n != 30 {
					t.Fatalf("fence.i retired %d, want 30", n)
				}
			})
			sub("machine-clear", func(t *testing.T, k *lsqChecker, r *wakeRef) {
				k.run(budget)
				flush, br := k.tally(k.c.ids.flush), k.tally(k.c.ids.brMispredict)
				if !fwd && flush <= br {
					t.Fatalf("no store-ordering machine clears (flush %d, mispredict %d)", flush, br)
				}
			})
			sub("windows", func(t *testing.T, k *lsqChecker, r *wakeRef) {
				for w := 0; ; w++ {
					k.run(200)
					if k.c.done {
						break
					}
					if w == 100_000 {
						t.Fatal("window sequence did not finish")
					}
					r.clear()
					if w%2 == 0 {
						k.c.ResetPipeline()
						k.check("after ResetPipeline")
					} else {
						k.c.Attach(k.c.CPU.Checkpoint())
						k.check("after Attach")
					}
				}
			})
			sub("reset", func(t *testing.T, k *lsqChecker, r *wakeRef) {
				k.run(500)
				k.c.Reset(asm.MustAssemble(branchy))
				r.clear()
				k.check("after Reset")
				k.run(budget)
			})
		}
	}
	for _, path := range []string{"fence.i", "machine-clear"} {
		if squashed[path] == 0 && !t.Failed() {
			t.Errorf("%s: no waiting µop was squashed on any size", path)
		}
	}
}
