package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pdt/internal/obs"
)

// span is one traced interval: a call into one layer, recorded from
// outside it. Parent is the index of the enclosing span (-1 at the
// root). Spans derived from the program's own obs instruments carry
// Obs=true: obs records durations only, so such a span is placed at
// its parent's start and only its length is exact.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Obs    bool   `json:"obs,omitempty"`
}

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, so call sites trace unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// call wraps f in a span named name under parent.
func (t *tracer) call(name string, parent int, f func()) {
	id := t.begin(name, parent)
	f()
	t.end(id)
}

// graft adds an obs-derived child span of duration d under parent,
// starting at the parent's start.
func (t *tracer) graft(parent int, name string, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.spans[parent].Start
	t.spans = append(t.spans, span{Name: name, Start: at, End: at + d.Nanoseconds(), Parent: parent, Obs: true})
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns every span's self time: its length minus the part
// of it that its children cover.
func (t *tracer) selfTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			c := t.spans[k]
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if c.End >= 0 && b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]time.Duration {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += self[i]
	}
	return out
}

// snapshot returns a copy of the spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as JSON.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// exponent fits y = c·x^k by least squares on log-log axes and returns
// k: the scaling exponent of a cost y over an input size x. Points
// with a non-positive coordinate are skipped; fewer than two points
// give 0.
func exponent(xs, ys []float64) float64 {
	var n, sx, sy, sxx, sxy float64
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		n++
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	if n < 2 || n*sxx == sx*sx {
		return 0
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// mergeWork returns the time ductape.Merge ran inside one obs "merge"
// span of pdbio.Merge: the sum of its tree-reduction levels, or the
// whole span when pdbio took its single-fold path (one worker), which
// is one ductape.Merge call.
func mergeWork(s obs.SpanSnapshot) time.Duration {
	var sum time.Duration
	n := 0
	for _, c := range s.Children {
		if strings.HasPrefix(c.Name, "level-") {
			sum += time.Duration(c.DurNS)
			n++
		}
	}
	if n == 0 {
		return time.Duration(s.DurNS)
	}
	return sum
}
