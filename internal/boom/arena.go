package boom

// nilIdx is the "no uop" arena index (the old nil pointer).
const nilIdx int32 = -1

// arena is a slab allocator for uops. Slots are addressed by index so the
// ROB ring, issue queues, and inflight list hold int32s instead of
// pointers, and freed slots recycle through a LIFO free list instead of
// going to the garbage collector. Every live uop is ROB-resident, so the
// slab is bounded by ROBEntries and — with the capacity reserved up
// front — never reallocates: the steady-state cycle loop allocates
// nothing.
type arena struct {
	slab []uop
	free []int32
}

func newArena(capacity int) arena {
	return arena{
		slab: make([]uop, 0, capacity),
		free: make([]int32, 0, capacity),
	}
}

// alloc returns the index of a slot cleared in place (a zero uop has no
// wakeup links).
func (a *arena) alloc() int32 {
	var i int32
	if n := len(a.free); n > 0 {
		i = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		a.slab = append(a.slab, uop{})
		i = int32(len(a.slab) - 1)
	}
	a.slab[i] = uop{}
	return i
}

// release recycles the slot. Callers must not touch the slot after. No
// wakeup link can name a released slot: a uop leaves its producers'
// dependents lists when they issue or when it is squashed, and its own
// list is empty once it has issued or its dependents are squashed.
func (a *arena) release(i int32) { a.free = append(a.free, i) }

// at returns the uop at index i. The pointer is stable for the current
// cycle: the slab's backing array never reallocates (see arena).
func (a *arena) at(i int32) *uop { return &a.slab[i] }

// reset drops every slot, keeping the capacity.
func (a *arena) reset() {
	a.slab = a.slab[:0]
	a.free = a.free[:0]
}
