package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimesSubtractsCoveredChildTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "pass", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: union 10-60
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent: 90-100
		{Name: "d", Start: 15, End: 20, Parent: 1},
	}}
	got := tr.selfTimes()
	want := []time.Duration{40, 25, 30, 30, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", tr.spans[i].Name, got[i], want[i])
		}
	}
}

func TestExponentRecoversPowerLaw(t *testing.T) {
	xs := []float64{250, 500, 1000}
	for _, k := range []float64{1, 2} {
		var ys []float64
		for _, x := range xs {
			ys = append(ys, 3*math.Pow(x, k))
		}
		if got := exponent(xs, ys); math.Abs(got-k) > 1e-9 {
			t.Errorf("exponent of x^%g = %g", k, got)
		}
	}
	if got := exponent([]float64{1}, []float64{1}); got != 0 {
		t.Errorf("one point: %g, want 0", got)
	}
}
