package taustream

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pdt/internal/obs"
	"pdt/internal/schema"
	"pdt/internal/tau"
)

// ErrMalformed marks an ingest payload the decoder rejected; the
// daemon maps it onto its bad-request envelope.
var ErrMalformed = errors.New("malformed profile stream")

// timerStats accumulates one timer name across runs. Counters are
// atomic so concurrent ingests hold the table lock only long enough to
// find the record, never while adding to it.
type timerStats struct {
	calls atomic.Uint64
	incl  atomic.Uint64
	excl  atomic.Uint64
}

// edgeStats accumulates one parent→child edge across runs.
type edgeStats struct {
	calls atomic.Uint64
	incl  atomic.Uint64
}

// Aggregator accumulates streamed profile events from many concurrent
// instrumented runs into per-routine (flat) and per-edge (call-path)
// statistics. Both tables sit behind one RWMutex: ingests find a
// known record under the read lock and take the write lock only to
// insert a name seen for the first time. Aggregation is additive and
// commutative: interleaving runs' batches in any order yields the
// same totals.
type Aggregator struct {
	metrics *obs.Metrics
	mu      sync.RWMutex
	timers  map[string]*timerStats
	edges   map[string]*edgeStats // key: parent + "\x1f" + child

	runs          atomic.Uint64
	stepsRuns     atomic.Uint64
	nanosRuns     atomic.Uint64
	clientDropped atomic.Uint64
	epoch         atomic.Uint64 // bumped on every state change (memo key)
}

// NewAggregator builds an empty aggregator reporting into m (nil
// disables instrumentation).
func NewAggregator(m *obs.Metrics) *Aggregator {
	return &Aggregator{
		metrics: m,
		timers:  map[string]*timerStats{},
		edges:   map[string]*edgeStats{},
	}
}

// Epoch returns a counter that changes whenever the aggregate state
// does; renderers memoize on it.
func (a *Aggregator) Epoch() uint64 { return a.epoch.Load() }

// Ingest decodes one posted batch and applies its events. It returns
// how many events were applied; decode failures return ErrMalformed
// (wrapped) without applying anything from the bad frame onward.
func (a *Aggregator) Ingest(r io.Reader) (int, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	a.metrics.Counter("ingest.bytes").Add(int64(len(data)))
	events, skipped, err := DecodeBatch(data)
	if err != nil {
		a.metrics.Counter("ingest.rejected").Add(1)
		return 0, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if skipped > 0 {
		a.metrics.Counter("ingest.unknown_kinds").Add(int64(skipped))
	}
	for i := range events {
		a.apply(&events[i])
	}
	a.metrics.Counter("ingest.events").Add(int64(len(events)))
	return len(events), nil
}

func (a *Aggregator) apply(ev *Event) {
	switch ev.Kind {
	case KindRunStart:
		a.runs.Add(1)
		if ev.Unit == UnitNanos {
			a.nanosRuns.Add(1)
		} else {
			a.stepsRuns.Add(1)
		}
	case KindSample:
		a.addSample(ev.Name, ev.Calls, ev.Inclusive, ev.Exclusive)
	case KindEdge:
		a.addEdge(ev.Parent, ev.Name, ev.Calls, ev.Inclusive)
	case KindRunEnd:
		a.clientDropped.Add(ev.Dropped)
		a.metrics.Counter("ingest.client_dropped").Add(int64(ev.Dropped))
	}
	a.epoch.Add(1)
}

func (a *Aggregator) addSample(name string, calls, incl, excl uint64) {
	ts := record(&a.mu, a.timers, name)
	ts.calls.Add(calls)
	ts.incl.Add(incl)
	ts.excl.Add(excl)
}

func (a *Aggregator) addEdge(parent, child string, calls, incl uint64) {
	es := record(&a.mu, a.edges, parent+"\x1f"+child)
	es.calls.Add(calls)
	es.incl.Add(incl)
}

// record returns the stats record for key in m, a table guarded by mu,
// inserting an empty one on first sight: a read-locked lookup, then a
// write-locked re-check and insert on a miss.
func record[T any](mu *sync.RWMutex, m map[string]*T, key string) *T {
	mu.RLock()
	r, ok := m[key]
	mu.RUnlock()
	if ok {
		return r
	}
	mu.Lock()
	defer mu.Unlock()
	if r, ok = m[key]; !ok {
		r = new(T)
		m[key] = r
	}
	return r
}

// AddRuntime applies a completed one-shot run's profile — the offline
// merge path. Streaming a run with zero drops and AddRuntime over the
// same run are interchangeable: the differential tests pin that N
// streamed runs and N AddRuntime calls render byte-identical
// snapshots.
func (a *Aggregator) AddRuntime(rt *tau.Runtime) {
	if rt == nil {
		return
	}
	a.apply(&Event{Kind: KindRunStart, Unit: UnitFor(rt.Unit())})
	for _, p := range rt.Profiles() {
		a.apply(&Event{Kind: KindSample, Name: p.Name, Calls: p.Calls,
			Inclusive: p.Inclusive, Exclusive: p.Exclusive})
	}
	for _, e := range rt.Edges() {
		a.apply(&Event{Kind: KindEdge, Parent: e.Parent, Name: e.Child,
			Calls: e.Calls, Inclusive: e.Inclusive})
	}
	a.apply(&Event{Kind: KindRunEnd})
}

// TimerStat is one aggregated timer in a snapshot.
type TimerStat struct {
	Name      string `json:"name"`
	Calls     uint64 `json:"calls"`
	Inclusive uint64 `json:"inclusive"`
	Exclusive uint64 `json:"exclusive"`
}

// EdgeStat is one aggregated call-path edge in a snapshot.
type EdgeStat struct {
	Parent    string `json:"parent"`
	Child     string `json:"child"`
	Calls     uint64 `json:"calls"`
	Inclusive uint64 `json:"inclusive"`
}

// TemplateStat groups timers by their CT(obj) instantiation type —
// the paper's per-template view, aggregated across every routine of
// that instantiation.
type TemplateStat struct {
	Name      string `json:"name"` // e.g. "Stack<int>"
	Timers    int    `json:"timers"`
	Calls     uint64 `json:"calls"`
	Inclusive uint64 `json:"inclusive"`
	Exclusive uint64 `json:"exclusive"`
}

// Snapshot is one deterministic view of the aggregate: flat timers
// sorted by exclusive time (the report order), call-path edges sorted
// by inclusive time, and the per-template-instantiation grouping.
type Snapshot struct {
	SchemaVersion    int            `json:"schema_version"`
	Unit             string         `json:"unit"` // "steps", "nsec", "mixed", "" before any run
	Runs             uint64         `json:"runs"`
	DroppedByClients uint64         `json:"dropped_by_clients"`
	Timers           []TimerStat    `json:"timers"`
	Edges            []EdgeStat     `json:"edges"`
	Templates        []TemplateStat `json:"templates"`
}

// Snapshot renders the current aggregate. Concurrent ingests may land
// mid-walk (each timer is internally consistent; the set is a moment's
// view); quiesced, the result is fully deterministic.
func (a *Aggregator) Snapshot() *Snapshot {
	s := &Snapshot{
		SchemaVersion:    schema.Version,
		Runs:             a.runs.Load(),
		DroppedByClients: a.clientDropped.Load(),
		Timers:           []TimerStat{},
		Edges:            []EdgeStat{},
		Templates:        []TemplateStat{},
	}
	switch steps, nanos := a.stepsRuns.Load(), a.nanosRuns.Load(); {
	case steps > 0 && nanos > 0:
		s.Unit = "mixed"
	case nanos > 0:
		s.Unit = UnitNanos.String()
	case steps > 0:
		s.Unit = UnitSteps.String()
	}

	a.mu.RLock()
	for name, ts := range a.timers {
		s.Timers = append(s.Timers, TimerStat{Name: name, Calls: ts.calls.Load(),
			Inclusive: ts.incl.Load(), Exclusive: ts.excl.Load()})
	}
	for key, es := range a.edges {
		parent, child, _ := strings.Cut(key, "\x1f")
		s.Edges = append(s.Edges, EdgeStat{Parent: parent, Child: child,
			Calls: es.calls.Load(), Inclusive: es.incl.Load()})
	}
	a.mu.RUnlock()

	sort.Slice(s.Timers, func(i, j int) bool {
		if s.Timers[i].Exclusive != s.Timers[j].Exclusive {
			return s.Timers[i].Exclusive > s.Timers[j].Exclusive
		}
		return s.Timers[i].Name < s.Timers[j].Name
	})

	sort.Slice(s.Edges, func(i, j int) bool {
		if s.Edges[i].Inclusive != s.Edges[j].Inclusive {
			return s.Edges[i].Inclusive > s.Edges[j].Inclusive
		}
		if s.Edges[i].Parent != s.Edges[j].Parent {
			return s.Edges[i].Parent < s.Edges[j].Parent
		}
		return s.Edges[i].Child < s.Edges[j].Child
	})

	groups := map[string]*TemplateStat{}
	for _, t := range s.Timers {
		inst, ok := instantiationOf(t.Name)
		if !ok {
			continue
		}
		g := groups[inst]
		if g == nil {
			g = &TemplateStat{Name: inst}
			groups[inst] = g
		}
		g.Timers++
		g.Calls += t.Calls
		g.Inclusive += t.Inclusive
		g.Exclusive += t.Exclusive
	}
	for _, g := range groups {
		s.Templates = append(s.Templates, *g)
	}
	sort.Slice(s.Templates, func(i, j int) bool {
		if s.Templates[i].Exclusive != s.Templates[j].Exclusive {
			return s.Templates[i].Exclusive > s.Templates[j].Exclusive
		}
		return s.Templates[i].Name < s.Templates[j].Name
	})
	return s
}

// instantiationOf extracts the run-time instantiation type from a
// timer display name: tau renders member-template timers as
// "name type" with the CT(obj) type last, e.g. "push() Stack<int>".
func instantiationOf(name string) (string, bool) {
	i := strings.LastIndexByte(name, ' ')
	if i < 0 {
		return "", false
	}
	typ := name[i+1:]
	if !strings.ContainsRune(typ, '<') {
		return "", false
	}
	return typ, true
}

// WriteJSON renders the snapshot as indented JSON (the /v1/profile
// body): deterministic for a quiesced aggregator, so differential
// tests compare bytes.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Template instantiation names are full of <>; render them
	// literally instead of as < escapes.
	enc.SetEscapeHTML(false)
	return enc.Encode(s)
}
