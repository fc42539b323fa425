package sim

import (
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"icicle/internal/boom"
	"icicle/internal/rocket"
	"icicle/internal/sample"
)

// TestKeyGolden pins the exact Key, ConfigFingerprint, and StoreKey
// strings of a Rocket and a LargeBOOM job in each detail mode (full,
// serial-sampled, plan-engine sampled). TestKeyFamilies only checks that
// the families are distinct; this test catches a silent change in key
// shape, which would orphan every blob already in a persistent store and
// reshard every serve cluster. A deliberate key change must update
// testdata/job_keys.golden in the same commit.
func TestKeyGolden(t *testing.T) {
	k := mustKernel(t, "vvadd")
	p := sample.Policy{Window: 512, Period: 4096, Warmup: 512}
	var got strings.Builder
	for _, base := range []Job{
		RocketJob(rocket.DefaultConfig(), k),
		BoomJob(boom.NewConfig(boom.Large), k),
	} {
		for _, j := range []Job{base, base.WithSampling(p), base.WithParallelSampling(p, 4)} {
			got.WriteString("key " + j.Key() + "\n")
			got.WriteString("fingerprint " + j.ConfigFingerprint() + "\n")
			got.WriteString("store " + StoreKey(j) + "\n")
		}
	}
	want, err := os.ReadFile("testdata/job_keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("got %d key lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d drifted\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// keyRecorder is a ResultStore that records every key written to it
// (window workers write concurrently).
type keyRecorder struct {
	mu   sync.Mutex
	keys []string
}

func (kr *keyRecorder) Get(string) ([]byte, bool) { return nil, false }

func (kr *keyRecorder) Put(key string, _ []byte) error {
	kr.mu.Lock()
	kr.keys = append(kr.keys, key)
	kr.mu.Unlock()
	return nil
}

// TestWindowKeyGolden pins the exact persistent-store keys of the plan
// engine's window results for a Rocket and a LargeBOOM job: like job
// blobs, checkpointed windows in a store are orphaned by a silent change
// in key shape.
func TestWindowKeyGolden(t *testing.T) {
	resetSharedWindows()
	defer resetSharedWindows()
	k := mustKernel(t, "vvadd")
	p := sample.Policy{Window: 512, Period: 65536, Warmup: 512}
	rec := &keyRecorder{}
	r := New(WithResultStore(rec), WithWorkers(1))
	for _, j := range []Job{
		RocketJob(rocket.DefaultConfig(), k).WithParallelSampling(p, 2),
		BoomJob(boom.NewConfig(boom.Large), k).WithParallelSampling(p, 2),
	} {
		if res := r.RunOne(j); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	var got []string
	for _, key := range rec.keys {
		if strings.HasPrefix(key, windowKeyPrefix) {
			got = append(got, key)
		}
	}
	sort.Strings(got)
	want, err := os.ReadFile("testdata/window_keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(got, "\n") + "\n"; g != string(want) {
		t.Errorf("window keys drifted\n got:\n%s\nwant:\n%s", g, want)
	}
}
