package taustream

import (
	"net/http"
	"sync"
	"testing"
	"time"

	"pdt/internal/tau"
)

// TestLoadThousandClients is the issue's load proof: 1000 simulated
// instrumented programs stream concurrently into one aggregator (run
// under -race in CI). Each client's buffer comfortably holds its whole
// run, so no events may be dropped, and the aggregate totals must be
// exact — the same additive-delta property the differential test pins,
// now under full contention on the aggregate's tables.
func TestLoadThousandClients(t *testing.T) {
	const (
		clients        = 1000
		scopesPerRun   = 8
		timersPerScope = 2 // outer() and inner() per scope
	)
	agg := NewAggregator(nil)
	ts := ingestServer(t, agg)

	// One shared transport with a bounded connection pool: the point is
	// 1000 concurrent emitters, not 1000 sockets — and the test must not
	// exhaust file descriptors on small CI runners.
	httpc := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     128,
			MaxIdleConnsPerHost: 128,
		},
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt := tau.NewRuntime(tau.VirtualClock)
			c := Dial(ts.URL, Options{Unit: UnitSteps, HTTPClient: httpc})
			rt.SetSink(c)
			for s := 0; s < scopesPerRun; s++ {
				rt.Start("outer()")
				rt.Start("inner() Grid<double>")
				rt.Stop()
				rt.Stop()
			}
			if err := c.Close(); err != nil {
				errs <- err
				return
			}
			if n := c.Dropped(); n != 0 {
				t.Errorf("client dropped %d events with a roomy buffer", n)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("client: %v", err)
	}

	s := agg.Snapshot()
	if s.Runs != clients {
		t.Errorf("runs = %d, want %d", s.Runs, clients)
	}
	if s.DroppedByClients != 0 {
		t.Errorf("dropped_by_clients = %d, want 0", s.DroppedByClients)
	}
	if len(s.Timers) != timersPerScope {
		t.Fatalf("timers = %+v, want %d names", s.Timers, timersPerScope)
	}
	for _, tm := range s.Timers {
		if tm.Calls != clients*scopesPerRun {
			t.Errorf("%s: calls = %d, want %d", tm.Name, tm.Calls, clients*scopesPerRun)
		}
	}
	// Every edge observation must have survived: <root>→outer and
	// outer→inner, once per scope per client.
	if len(s.Edges) != 2 {
		t.Fatalf("edges = %+v", s.Edges)
	}
	for _, e := range s.Edges {
		if e.Calls != clients*scopesPerRun {
			t.Errorf("%s→%s: calls = %d, want %d", e.Parent, e.Child, e.Calls, clients*scopesPerRun)
		}
	}
	if len(s.Templates) != 1 || s.Templates[0].Name != "Grid<double>" {
		t.Errorf("templates = %+v", s.Templates)
	}
}
