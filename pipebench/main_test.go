package main

import "testing"

func TestSumOfMediansIgnoresABurstOnOnePiece(t *testing.T) {
	// Three runs of a two-piece sequence; a burst makes piece 0 of the
	// second run ten times slower. The totals' median would be 14.
	samples := [][]float64{{1, 10}, {10, 11}, {2, 12}}
	if got := sumOfMedians(samples); got != 13 {
		t.Errorf("sumOfMedians = %g, want 2 + 11 = 13", got)
	}
	if got := sumOfMedians(nil); got != 0 {
		t.Errorf("no samples: %g, want 0", got)
	}
}
