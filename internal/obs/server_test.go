package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// The introspection endpoints must stay consistent while the registry is
// being mutated underneath them: new metrics appearing mid-scrape, values
// racing with the exposition writer. Run under -race this doubles as a
// locking proof for the registry's snapshot path.
func TestServerScrapeUnderConcurrentMutation(t *testing.T) {
	reg := NewRegistry()
	srv := NewServer(reg, func() Progress {
		return Progress{Done: reg.Counter("mut_done_total", "x").Value()}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const writers, scrapes = 4, 25
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Mix of re-registering existing names and minting new
				// ones, plus value churn — everything a live sweep does.
				reg.Counter("mut_done_total", "x").Inc()
				reg.Counter(fmt.Sprintf("mut_w%d_c%d_total", w, i%17), "churn").Add(uint64(i))
				reg.Gauge(fmt.Sprintf("mut_w%d_gauge", w), "churn").Set(int64(i))
				reg.Histogram(fmt.Sprintf("mut_w%d_hist", w), "churn", 1).Observe(uint64(i))
			}
		}(w)
	}

	for i := 0; i < scrapes; i++ {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape %d: status %d, err %v", i, resp.StatusCode, err)
		}
		// Every scrape must be well-formed exposition: non-comment lines
		// are "name value" pairs, and every sample has a HELP line.
		text := string(body)
		if !strings.Contains(text, "# HELP") {
			t.Fatalf("scrape %d: no HELP lines:\n%s", i, text)
		}
		for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if len(strings.Fields(line)) != 2 {
				t.Fatalf("scrape %d: malformed sample line %q", i, line)
			}
		}

		presp, err := http.Get(ts.URL + "/progress")
		if err != nil {
			t.Fatal(err)
		}
		var p Progress
		err = json.NewDecoder(presp.Body).Decode(&p)
		presp.Body.Close()
		if err != nil {
			t.Fatalf("progress scrape %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// Start on a busy port must fail fast and synchronously — a CLI given a
// bad -listen address should exit with a clear error, not limp along with
// a dead introspection server.
func TestServerStartBusyPortFailsFast(t *testing.T) {
	first := NewServer(NewRegistry(), nil)
	addr, err := first.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	second := NewServer(NewRegistry(), nil)
	if _, err := second.Start(addr); err == nil {
		second.Close()
		t.Fatalf("Start on busy %s succeeded, want synchronous error", addr)
	} else if !strings.Contains(err.Error(), "address already in use") &&
		!strings.Contains(err.Error(), "bind") {
		t.Fatalf("busy-port error not actionable: %v", err)
	}
}

// Start on an unresolvable address errors rather than panicking, and
// Close is safe on a server that never started.
func TestServerStartBadAddr(t *testing.T) {
	srv := NewServer(NewRegistry(), nil)
	if _, err := srv.Start("definitely-not-a-host:99999"); err == nil {
		t.Fatal("Start on a bogus address succeeded")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close on never-started server: %v", err)
	}
}

// A nil progress source serves zeros, not a 500 or a panic.
func TestServerNilProgressSource(t *testing.T) {
	srv := NewServer(NewRegistry(), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/progress with nil source = %d", resp.StatusCode)
	}
	var p Progress
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Done != 0 || p.Total != 0 {
		t.Fatalf("nil source progress = %+v, want zeros", p)
	}
}

// A connection that opens and never sends a request header is closed
// once the read-header timeout passes, instead of holding a goroutine
// and a descriptor open forever.
func TestServerClosesSilentConnection(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	srv := NewServer(NewRegistry(), nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.srv.IdleTimeout != IdleTimeout {
		t.Errorf("IdleTimeout = %v, want %v", srv.srv.IdleTimeout, IdleTimeout)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The guard deadline is far above the shortened timeout: hitting it
	// means the server kept the silent connection open.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("silent connection still open after %v", time.Since(start))
	}
}
