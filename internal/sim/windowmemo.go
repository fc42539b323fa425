package sim

import (
	"sync"

	"icicle/internal/obs"
	"icicle/internal/sample"
)

// Window-result memo for the two-phase sampled engine. A window's key
// fingerprints everything its result depends on — core config, program,
// window length, start instruction, warm span, instruction bound — so
// results are reusable wherever the keys coincide: a sweep re-run after
// the job cache was dropped (ConfigureDefault replaces the runner but
// not this memo, exactly like the core pools), or overlapping policies
// that schedule some identical windows. Like the job cache it has no
// eviction; a window result is a few hundred bytes.
//
// The memo is process-wide so every runner shares it; per-runner hit and
// miss counters are layered on by countingWindowMemo.
type windowStore struct {
	mu sync.RWMutex
	m  map[string]sample.WindowResult
}

func (ws *windowStore) Get(key string) (sample.WindowResult, bool) {
	ws.mu.RLock()
	wr, ok := ws.m[key]
	ws.mu.RUnlock()
	return wr, ok
}

func (ws *windowStore) Put(key string, wr sample.WindowResult) {
	ws.mu.Lock()
	if ws.m == nil {
		ws.m = map[string]sample.WindowResult{}
	}
	ws.m[key] = wr
	ws.mu.Unlock()
}

// Len reports the number of memoized windows (tests and stats).
func (ws *windowStore) Len() int {
	ws.mu.RLock()
	defer ws.mu.RUnlock()
	return len(ws.m)
}

var sharedWindows windowStore

// countingWindowMemo attributes memo traffic to a runner's counters and,
// when the runner has a persistent store, layers it under the in-memory
// map as an L2: window results persist across processes, so a sampled
// sweep on a fresh server resumes from checkpointed windows instead of
// re-simulating them.
type countingWindowMemo struct {
	store        *windowStore
	disk         ResultStore // optional persistent L2 (nil = memory only)
	hits, misses *obs.Counter
	// scope prefixes every key with the job's config fingerprint and
	// kernel name: a window key alone only names the window's position
	// and bounds within one (config, program).
	scope string
}

func (cm countingWindowMemo) Get(key string) (sample.WindowResult, bool) {
	key = cm.scope + key
	wr, ok := cm.store.Get(key)
	if !ok && cm.disk != nil {
		if payload, found := cm.disk.Get(windowKeyPrefix + key); found {
			if dec, err := decodeWindow(payload); err == nil {
				cm.store.Put(key, dec) // promote to L1
				wr, ok = dec, true
			}
		}
	}
	if ok {
		cm.hits.Inc()
	} else {
		cm.misses.Inc()
	}
	return wr, ok
}

func (cm countingWindowMemo) Put(key string, wr sample.WindowResult) {
	key = cm.scope + key
	cm.store.Put(key, wr)
	if cm.disk != nil {
		if payload, err := encodeWindow(wr); err == nil {
			cm.disk.Put(windowKeyPrefix+key, payload) // best effort
		}
	}
}

// windowMemo returns the runner's view of the shared memo, scoped to the
// job's configuration and kernel, or nil when memoization is off
// (WithoutCache also disables window reuse, so benchmark ablations
// measure true window throughput).
func (r *Runner) windowMemo(j Job) sample.WindowMemo {
	if !r.memoize {
		return nil
	}
	return countingWindowMemo{
		store:  &sharedWindows,
		disk:   r.store,
		hits:   r.m.windowHits,
		misses: r.m.windowMisses,
		scope:  j.ConfigFingerprint() + "|" + j.Kernel.Name + "|",
	}
}
