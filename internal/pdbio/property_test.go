package pdbio_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"pdt/internal/ductape"
	"pdt/internal/pdbio"
	"pdt/internal/workload"
)

// randTreeMerge folds the databases with a random parenthesization:
// the list is split at a random point, each half merged recursively,
// and the two halves merged pairwise. Input order is preserved — only
// the tree shape varies — so by the order-associativity of
// ductape.Merge every shape must produce identical bytes.
func randTreeMerge(r *rand.Rand, dbs []*ductape.PDB) *ductape.PDB {
	if len(dbs) == 1 {
		return dbs[0]
	}
	cut := 1 + r.Intn(len(dbs)-1)
	return ductape.Merge(randTreeMerge(r, dbs[:cut]), randTreeMerge(r, dbs[cut:]))
}

// mergeUnitDBs compiles a GenMergeUnits workload into per-unit
// databases.
func mergeUnitDBs(tb testing.TB, m, sharedInsts, localClasses int) []*ductape.PDB {
	tb.Helper()
	hdr, units := workload.GenMergeUnits(m, sharedInsts, localClasses)
	dbs := make([]*ductape.PDB, len(units))
	for i, unit := range units {
		files := map[string]string{"shared.h": hdr, "unit.cpp": unit}
		dbs[i] = compileUnit(tb, files, "unit.cpp")
	}
	return dbs
}

// TestMergeAssociativityProperty: over seeded random input
// permutations AND random merge-tree shapes of a GenMergeUnits
// workload, the merge result must be byte-identical to the sequential
// left-to-right fold over the same input order, and pdbio.Merge must
// match that fold at every worker count.
func TestMergeAssociativityProperty(t *testing.T) {
	ctx := context.Background()
	dbs := mergeUnitDBs(t, 7, 4, 3)

	const trials = 12
	for seed := int64(0); seed < trials; seed++ {
		r := rand.New(rand.NewSource(seed))

		// A fresh input permutation per trial. The fold over the
		// permuted order is the reference for this trial (the merge is
		// order-associative, not order-commutative: different input
		// orders legitimately renumber differently).
		perm := make([]*ductape.PDB, len(dbs))
		for i, j := range r.Perm(len(dbs)) {
			perm[i] = dbs[j]
		}
		want := pdbText(t, ductape.Merge(perm...))

		// Random parenthesizations of the permuted list.
		for shape := 0; shape < 4; shape++ {
			if got := pdbText(t, randTreeMerge(r, perm)); got != want {
				t.Fatalf("seed %d shape %d: random merge tree differs from fold",
					seed, shape)
			}
		}

		// The engine itself over the same order, at assorted worker
		// counts.
		for _, workers := range []int{1, 2, 3, 8} {
			got, err := pdbio.Merge(ctx, perm, pdbio.WithWorkers(workers))
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if g := pdbText(t, got); g != want {
				t.Fatalf("seed %d workers %d: pdbio.Merge differs from fold",
					seed, workers)
			}
		}
	}
}

// TestMergeAssociativityPairs is the minimal three-way associativity
// law stated directly: (a+b)+c == a+(b+c) == fold(a,b,c).
func TestMergeAssociativityPairs(t *testing.T) {
	dbs := mergeUnitDBs(t, 3, 5, 2)
	a, b, c := dbs[0], dbs[1], dbs[2]
	fold := pdbText(t, ductape.Merge(a, b, c))
	left := pdbText(t, ductape.Merge(ductape.Merge(a, b), c))
	right := pdbText(t, ductape.Merge(a, ductape.Merge(b, c)))
	if left != fold {
		t.Error("(a+b)+c differs from fold(a,b,c)")
	}
	if right != fold {
		t.Error("a+(b+c) differs from fold(a,b,c)")
	}
	if !strings.Contains(fold, "<PDB") {
		t.Fatal("merged output is not a PDB")
	}
}
