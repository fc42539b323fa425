package mem

import "fmt"

// HierarchyConfig describes the full memory system shared by Rocket and
// BOOM in the paper (Table IV "Common"): 32 KiB 8-way 64 B-block L1I/L1D,
// 512 KiB 8-way 64 B-block L2, no LLC, FASED-like fixed DRAM latency.
type HierarchyConfig struct {
	L1I CacheConfig
	L1D CacheConfig
	L2  CacheConfig

	L2HitLatency int // extra cycles for an L1 miss that hits in L2
	MemLatency   int // extra cycles for an L2 miss (DRAM)
	TLBHitL2     int // extra cycles for a first-level TLB miss hitting the L2 TLB
	PTWLatency   int // extra cycles for an L2 TLB miss (page-table walk)
	ITLBEntries  int
	DTLBEntries  int
	L2TLBEntries int
	DMSHRs       int // data-side miss status holding registers

	// NextLinePrefetch enables the frontend's next-line instruction
	// prefetcher: every I-fetch also primes the following cache block, so
	// sequential code streams without per-block refill stalls.
	NextLinePrefetch bool
}

// DefaultHierarchyConfig returns the paper's common memory configuration.
// nMSHRs is per-core (Table IV: Rocket/SmallBOOM 2 … Mega/GigaBOOM 8).
func DefaultHierarchyConfig(nMSHRs int) HierarchyConfig {
	return HierarchyConfig{
		L1I:          CacheConfig{Name: "L1I", SizeBytes: 32 << 10, Ways: 8, BlockBytes: 64},
		L1D:          CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, BlockBytes: 64},
		L2:           CacheConfig{Name: "L2", SizeBytes: 512 << 10, Ways: 8, BlockBytes: 64},
		L2HitLatency: 20,
		MemLatency:   80,
		TLBHitL2:     6,
		PTWLatency:   40,
		ITLBEntries:  32,
		DTLBEntries:  32,
		L2TLBEntries: 512,
		DMSHRs:       nMSHRs,

		NextLinePrefetch: true,
	}
}

// Shape returns cfg with its pure timing fields zeroed: the level
// latencies, which the hierarchy reads at access time and never sizes
// anything by. Two configs with equal shapes build identical structures,
// so a hierarchy of one can be Retimed to the other.
func (cfg HierarchyConfig) Shape() HierarchyConfig {
	cfg.L2HitLatency = 0
	cfg.MemLatency = 0
	cfg.TLBHitL2 = 0
	cfg.PTWLatency = 0
	return cfg
}

// Hierarchy is the instantiated memory system.
type Hierarchy struct {
	Cfg   HierarchyConfig
	L1I   *Cache
	L1D   *Cache
	L2    *Cache
	ITLB  *TLB
	DTLB  *TLB
	L2TLB *TLB
	MSHRs *MSHRFile

	// next-line prefetch stream state: the block being prefetched and
	// when its refill lands. A fetch arriving before pfReadyAt pays the
	// remaining latency (a late prefetch is still an in-flight refill).
	pfBlock   uint64
	pfReadyAt uint64
	pfValid   bool
}

// NewHierarchy instantiates the hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		Cfg:   cfg,
		L1I:   NewCache(cfg.L1I),
		L1D:   NewCache(cfg.L1D),
		L2:    NewCache(cfg.L2),
		ITLB:  NewTLB(cfg.ITLBEntries),
		DTLB:  NewTLB(cfg.DTLBEntries),
		L2TLB: NewTLB(cfg.L2TLBEntries),
		MSHRs: NewMSHRFile(cfg.DMSHRs),
	}
}

// Reset returns every level — caches, TLBs, MSHRs, and the prefetch
// stream state — to its just-constructed state, in place and without
// allocating. Used by the cores' Reset for pooled reuse.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.ITLB.Reset()
	h.DTLB.Reset()
	h.L2TLB.Reset()
	h.MSHRs.Reset()
	h.pfBlock = 0
	h.pfReadyAt = 0
	h.pfValid = false
}

// Retime installs cfg's latencies on a hierarchy built from a config of
// the same shape. It panics on a shape mismatch: caches, TLBs and MSHRs
// are sized at construction, so only timing may change in place. Call
// Reset before the next run as usual.
func (h *Hierarchy) Retime(cfg HierarchyConfig) {
	if cfg.Shape() != h.Cfg.Shape() {
		panic(fmt.Sprintf("mem: Retime across shapes: %+v -> %+v", h.Cfg, cfg))
	}
	h.Cfg = cfg
}

// NextEvent returns the earliest cycle strictly after now at which the
// hierarchy's autonomous state changes — an MSHR refill completes or the
// next-line prefetch stream's in-flight refill lands — or 0 when nothing
// is in flight. Demand accesses and writebacks are charged inline at
// access time (the hierarchy holds no other timers), so this bound is
// exhaustive: between now and NextEvent(now) every hierarchy query made
// with the same arguments returns the same answer. The cores'
// event-driven skip path uses it to cap how far the clock may jump
// across a provably quiescent stretch.
func (h *Hierarchy) NextEvent(now uint64) uint64 {
	next := h.MSHRs.NextReady(now)
	if h.pfValid && h.pfReadyAt > now && (next == 0 || h.pfReadyAt < next) {
		next = h.pfReadyAt
	}
	return next
}

// IResult describes one instruction-fetch access.
type IResult struct {
	Latency   int // total extra cycles beyond the L1 hit pipeline
	Miss      bool
	L2Miss    bool
	TLBMiss   bool
	L2TLBMiss bool
}

// DResult describes one data access.
type DResult struct {
	Latency   int
	Miss      bool
	L2Miss    bool
	Writeback bool // dirty eviction (D$-release event)
	TLBMiss   bool
	L2TLBMiss bool
	Merged    bool // merged into an in-flight MSHR refill
	MSHRFull  bool // no MSHR free; the access must retry (extra stall)
}

// AccessI performs an instruction fetch of the block containing addr at
// cycle now and returns its timing and the events it raised.
func (h *Hierarchy) AccessI(addr uint64, now uint64) IResult {
	var r IResult
	if !h.ITLB.Access(addr) {
		r.TLBMiss = true
		if h.L2TLB.Access(addr) {
			r.Latency += h.Cfg.TLBHitL2
		} else {
			r.L2TLBMiss = true
			r.Latency += h.Cfg.PTWLatency
		}
	}
	res := h.L1I.Access(addr, false)
	switch {
	case res.Hit && h.pfValid && h.L1I.BlockAddr(addr) == h.pfBlock && now < h.pfReadyAt:
		// Late prefetch: the line is allocated but its refill is still in
		// flight — the fetch stalls for the remainder.
		r.Latency += int(h.pfReadyAt - now)
	case !res.Hit:
		r.Miss = true
		r.Latency += h.Cfg.L2HitLatency
		l2 := h.L2.Access(addr, false)
		if !l2.Hit {
			r.L2Miss = true
			r.Latency += h.Cfg.MemLatency
		}
	}
	if h.Cfg.NextLinePrefetch {
		next := (h.L1I.BlockAddr(addr) + 1) << uint(h.L1I.blkOff)
		if !h.L1I.Probe(next) {
			lat := h.Cfg.L2HitLatency
			if l2 := h.L2.Access(next, false); !l2.Hit {
				lat += h.Cfg.MemLatency
			}
			h.L1I.Install(next)
			h.pfBlock = h.L1I.BlockAddr(next)
			h.pfReadyAt = now + uint64(r.Latency) + uint64(lat)
			h.pfValid = true
		}
	}
	return r
}

// AccessD performs a data access at cycle now. Misses allocate an MSHR so
// that later accesses to the same in-flight block merge instead of paying
// the full miss latency again, and so the D$-blocked heuristic can observe
// MSHR occupancy.
func (h *Hierarchy) AccessD(addr uint64, write bool, now uint64) DResult {
	var r DResult
	if !h.DTLB.Access(addr) {
		r.TLBMiss = true
		if h.L2TLB.Access(addr) {
			r.Latency += h.Cfg.TLBHitL2
		} else {
			r.L2TLBMiss = true
			r.Latency += h.Cfg.PTWLatency
		}
	}
	res := h.L1D.Access(addr, write)
	if res.Hit {
		return r
	}
	r.Miss = true
	r.Writeback = res.Writeback
	block := h.L1D.BlockAddr(addr)
	if readyAt, ok := h.MSHRs.Lookup(block, now); ok {
		r.Merged = true
		r.Latency += int(readyAt - now)
		return r
	}
	missLat := h.Cfg.L2HitLatency
	l2 := h.L2.Access(addr, write)
	if !l2.Hit {
		r.L2Miss = true
		missLat += h.Cfg.MemLatency
	}
	if res.Writeback {
		missLat += 2 // victim writeback occupies the refill port briefly
	}
	if !h.MSHRs.Allocate(block, now, now+uint64(r.Latency)+uint64(missLat)) {
		// All MSHRs busy: retry after the earliest completes. Charge a
		// fixed replay penalty; this is rare with sane MSHR counts.
		r.MSHRFull = true
		missLat += 8
	}
	r.Latency += missLat
	return r
}
