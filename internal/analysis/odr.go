package analysis

import (
	"fmt"
	"sort"
	"strings"

	"pdt/internal/ductape"
)

// odrDuplicatePass reports one-definition-rule hazards that survive in
// a database: duplicate class definitions under one full name, routine
// declarations that differ only in return type (not a legal overload),
// and identical routine definitions recorded at several distinct
// sites. ductape.Merge keys classes by full name and routines by
// (owner, name, signature), so exactly these conflicts are what a
// merge of disagreeing translation units either silently collapses or
// carries through — this pass makes them visible before or after the
// merge.
type odrDuplicatePass struct{}

// NewODRDuplicatePass returns the duplicate/conflicting-definition
// pass.
func NewODRDuplicatePass() Pass { return odrDuplicatePass{} }

func (odrDuplicatePass) Name() string { return "odr-duplicate" }

func (odrDuplicatePass) Doc() string {
	return "conflicting or duplicate definitions that violate the one-definition rule"
}

func (odrDuplicatePass) Run(db *ductape.PDB) []Diagnostic {
	var out []Diagnostic
	out = append(out, duplicateClasses(db)...)
	out = append(out, conflictingRoutines(db)...)
	Sort(out)
	return out
}

func duplicateClasses(db *ductape.PDB) []Diagnostic {
	groups := map[string][]*ductape.Class{}
	for _, c := range db.Classes() {
		groups[c.FullName()] = append(groups[c.FullName()], c)
	}
	// Iterate groups by sorted name: the final Sort orders the report,
	// but building it deterministically keeps every intermediate state
	// (and any future tie) independent of Go's map iteration order.
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Diagnostic
	for _, name := range names {
		cs := groups[name]
		if len(cs) < 2 {
			continue
		}
		sort.Slice(cs, func(i, j int) bool { return classOrder(cs[i]) < classOrder(cs[j]) })
		diag := Diagnostic{
			Pass:     "odr-duplicate",
			Severity: Error,
			Loc:      LocationOf(cs[0].Location()),
			Message: fmt.Sprintf("class '%s' is defined %d times; pdbmerge would collapse these by name",
				name, len(cs)),
		}
		for _, other := range cs[1:] {
			diag.Related = append(diag.Related, Related{
				Message: fmt.Sprintf("also defined as cl#%d", other.ID()),
				Loc:     LocationOf(other.Location()),
			})
		}
		out = append(out, diag)
	}
	return out
}

// conflictingRoutines groups routines by owner, name, and parameter
// type list. Legal C++ overloads differ in their parameters, so two
// members of one group with different full signatures conflict
// (typically a return-type disagreement between translation units);
// two members with the same signature are duplicate definitions that
// ductape.Merge would have collapsed into one, silently preferring the
// richer body.
func conflictingRoutines(db *ductape.PDB) []Diagnostic {
	// const-ness participates in overload resolution, so const and
	// non-const members with equal parameters are distinct groups.
	type groupKey struct {
		owner, name, args string
		isConst           bool
	}
	// Nearly every key names one routine, so a key maps to the index of
	// its first routine, and a group is allocated only on a second
	// sighting. order lists the groups by that first index, i.e. in
	// db.Routines() order, which is deterministic; the caller's final
	// Sort normalizes the diagnostic order.
	routines := db.Routines()
	first := make(map[groupKey]int, len(routines))
	groups := map[groupKey][]*ductape.Routine{}
	var order []groupKey
	for i, r := range routines {
		key := groupKey{ownerOf(r), r.Name(), argSpelling(r), r.IsConst()}
		j, seen := first[key]
		if !seen {
			first[key] = i
			continue
		}
		if groups[key] == nil {
			groups[key] = []*ductape.Routine{routines[j]}
			order = append(order, key)
		}
		groups[key] = append(groups[key], r)
	}
	sort.Slice(order, func(a, b int) bool { return first[order[a]] < first[order[b]] })

	var out []Diagnostic
	for _, key := range order {
		rs := groups[key]
		sort.Slice(rs, func(i, j int) bool { return routineOrder(rs[i]) < routineOrder(rs[j]) })
		sigs := map[string]bool{}
		bodies := 0
		for _, r := range rs {
			sigs[sigSpelling(r)] = true
			if r.HasBody() {
				bodies++
			}
		}
		first := rs[0]
		switch {
		case len(sigs) > 1:
			diag := Diagnostic{
				Pass:     "odr-duplicate",
				Severity: Error,
				Loc:      LocationOf(first.Location()),
				Message: fmt.Sprintf("routine '%s' has %d conflicting signatures for the same parameter list",
					first.FullName(), len(sigs)),
			}
			for _, r := range rs[1:] {
				diag.Related = append(diag.Related, Related{
					Message: fmt.Sprintf("conflicting declaration with signature '%s'", sigSpelling(r)),
					Loc:     LocationOf(r.Location()),
				})
			}
			out = append(out, diag)
		case bodies > 1:
			diag := Diagnostic{
				Pass:     "odr-duplicate",
				Severity: Error,
				Loc:      LocationOf(first.Location()),
				Message:  fmt.Sprintf("routine '%s' is defined %d times", first.FullName(), bodies),
			}
			for _, r := range rs[1:] {
				if !r.HasBody() {
					continue
				}
				diag.Related = append(diag.Related, Related{
					Message: fmt.Sprintf("also defined as ro#%d", r.ID()),
					Loc:     LocationOf(r.Location()),
				})
			}
			out = append(out, diag)
		}
	}
	return out
}

func ownerOf(r *ductape.Routine) string {
	if c := r.ParentClass(); c != nil {
		return "cl:" + c.FullName()
	}
	if n := r.ParentNamespace(); n != nil && n.Name() != "" {
		return "na:" + n.Name()
	}
	return ""
}

func argSpelling(r *ductape.Routine) string {
	sig := r.Signature()
	if sig == nil {
		return ""
	}
	var parts []string
	for _, a := range sig.ArgumentTypes() {
		if a != nil {
			parts = append(parts, a.Name())
		}
	}
	return strings.Join(parts, ", ")
}

func sigSpelling(r *ductape.Routine) string {
	if sig := r.Signature(); sig != nil {
		return sig.Name()
	}
	return ""
}

func classOrder(c *ductape.Class) string {
	return fmt.Sprintf("%s|%08d", LocationOf(c.Location()), c.ID())
}

func routineOrder(r *ductape.Routine) string {
	return fmt.Sprintf("%s|%08d", LocationOf(r.Location()), r.ID())
}
