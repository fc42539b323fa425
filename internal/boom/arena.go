package boom

// nilIdx is the "no uop" arena index (the old nil pointer).
const nilIdx int32 = -1

// uref is a producer link captured at rename: the producer's arena index
// plus the generation its slot had at capture time. When the producer
// retires (or is squashed) its slot's generation is bumped, so a stale
// uref no longer matches — exactly the "value is architectural, operand
// ready" case that the old *uop links expressed by pointing at a
// committed uop. idx < 0 means no producer.
type uref struct {
	idx int32
	gen uint32
}

var nilRef = uref{idx: nilIdx}

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

// alloc returns the index of a slot cleared in place. The slot's
// generation survives the clear (recycling must invalidate old urefs),
// and the producer links start as nilRef rather than the zero uref, which
// would point at slot 0.
func (a *arena) alloc() int32 {
	var i int32
	var g uint32
	if n := len(a.free); n > 0 {
		i = a.free[n-1]
		a.free = a.free[:n-1]
		g = a.slab[i].gen
	} else {
		a.slab = append(a.slab, uop{})
		i = int32(len(a.slab) - 1)
	}
	u := &a.slab[i]
	*u = uop{}
	u.gen, u.src1, u.src2 = g, nilRef, nilRef
	return i
}

// release bumps the slot's generation — invalidating every uref captured
// against it — and recycles it. Callers must not touch the slot after.
func (a *arena) release(i int32) {
	a.slab[i].gen++
	a.free = append(a.free, i)
}

// at returns the uop at index i. The pointer is stable for the current
// cycle: the slab's backing array never reallocates (see arena).
func (a *arena) at(i int32) *uop { return &a.slab[i] }

// reset drops every slot, keeping the capacity. Generations need no
// special handling: no uref survives a core reset.
func (a *arena) reset() {
	a.slab = a.slab[:0]
	a.free = a.free[:0]
}
