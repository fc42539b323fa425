package sim

import (
	"bytes"
	"encoding/gob"

	"icicle/internal/boom"
	"icicle/internal/core"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// ResultStore is the persistent L2 behind the in-process memo: a
// content-addressed blob store (internal/store) or anything shaped like
// one. The runner consults it on memo misses and writes every freshly
// simulated result back, so identical sweeps are free across processes
// and users. Implementations must be safe for concurrent use; Put is
// best-effort (the runner ignores its error — a full disk degrades to
// recomputation, never to failure).
type ResultStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, payload []byte) error
}

// WithResultStore layers st under the memo cache as a persistent L2 for
// both job results and sampled-window results. Only successful results
// are persisted; errors always recompute. WithoutCache also bypasses the
// store (benchmark ablations measure true simulation throughput).
func WithResultStore(st ResultStore) Option {
	return func(r *Runner) { r.store = st }
}

// Store-key namespaces: job results and window results live in disjoint
// key families so their blob payloads (which have different shapes)
// can never be confused.
const (
	jobKeyPrefix    = "job|"
	windowKeyPrefix = "win|"
)

// StoreKey is the persistent-store key for a job: the memo fingerprint
// under the job namespace. store.Addr(StoreKey(j)) is the content
// address served at /store/{addr}.
func StoreKey(j Job) string { return storeKey(j.Key()) }

// storeKey is StoreKey for an already rendered memo key.
func storeKey(memoKey string) string { return jobKeyPrefix + memoKey }

// persistResult is the on-disk form of a Result: everything except the
// Job descriptor (the key identifies it; the loader re-attaches the
// caller's own descriptor) and the error (failures are never persisted).
type persistResult struct {
	Core      CoreKind
	Rocket    rocket.Result
	Boom      boom.Result
	Breakdown core.Breakdown
	Sampled   *sample.Report
}

// EncodeResult renders a successful result as a store payload (gob).
// Errored results are not encodable: persisting a failure would pin a
// possibly transient error forever.
func EncodeResult(res Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	err := enc.Encode(persistResult{
		Core:      res.Job.Core,
		Rocket:    res.Rocket,
		Boom:      res.Boom,
		Breakdown: res.Breakdown,
		Sampled:   res.Sampled,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeResult parses a store payload back into a Result carrying the
// given job descriptor. The payload must have been produced by
// EncodeResult for the same store key; the store's checksums make
// corruption a miss before this runs, so a decode error here means a
// format drift — the caller treats it as a miss and recomputes.
func DecodeResult(payload []byte, j Job) (Result, error) {
	var pr persistResult
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&pr); err != nil {
		return Result{}, err
	}
	return Result{
		Job:       j,
		Rocket:    pr.Rocket,
		Boom:      pr.Boom,
		Breakdown: pr.Breakdown,
		Sampled:   pr.Sampled,
	}, nil
}

// loadStored consults the L2 for a job result; key is j's memo key.
func (r *Runner) loadStored(j Job, key string) (Result, bool) {
	payload, ok := r.store.Get(storeKey(key))
	if !ok {
		return Result{}, false
	}
	res, err := DecodeResult(payload, j)
	if err != nil {
		return Result{}, false // format drift: recompute
	}
	res.Cached = true
	res.FromStore = true
	return res, true
}

// storeResult persists a freshly simulated result under its job's memo
// key (best effort).
func (r *Runner) storeResult(key string, res Result) {
	if res.Err != nil {
		return
	}
	payload, err := EncodeResult(res)
	if err != nil {
		return
	}
	r.store.Put(storeKey(key), payload)
}

// encodeWindow / decodeWindow are the window-memo blob codec. The window
// key already carries the config, program, and bounds; the payload is
// just the result triple plus the dense tally.
func encodeWindow(wr sample.WindowResult) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wr); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeWindow(payload []byte) (sample.WindowResult, error) {
	var wr sample.WindowResult
	err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wr)
	return wr, err
}
