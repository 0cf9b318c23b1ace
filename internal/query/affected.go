package query

// AffectedSet is the transitive invalidation set of a changed-file
// list: every unit (source file) and entity whose analysis results a
// change to those files could alter. It is deliberately conservative —
// the incremental lint driver pairs it with exact content-addressed
// fingerprints, and the soundness contract (enforced by property
// tests) is that the set is always a superset of the units whose
// findings actually change.
type AffectedSet struct {
	g  *Graph
	in []bool // by node rank
	n  int    // nodes marked in
}

// Affected computes the invalidation closure of the changed files,
// named exactly or by path base. Influence propagates along:
//
//   - include edges, both directions: a changed header invalidates
//     every includer, and a changed includer can rewire cycles and
//     unused-include judgements anywhere below it;
//   - definition edges, both directions: a changed file invalidates
//     the entities it defines, and an invalidated entity drags in its
//     defining unit (so cached per-unit findings there cannot be
//     trusted);
//   - call, inherit, and instantiate edges, both directions: liveness
//     flows callee-ward, hierarchy and bloat findings anchor at either
//     end of their edges.
//
// Changed names that match no file node are ignored (a deleted file
// no longer has a node; its former dependents were re-fingerprinted
// away by the cache layer).
func (g *Graph) Affected(changed []string) *AffectedSet {
	set := &AffectedSet{g: g, in: make([]bool, len(g.ordered().nodes))}
	var frontier []*Node
	mark := func(n *Node) {
		if n != nil && !set.in[n.rank] {
			set.in[n.rank] = true
			set.n++
			frontier = append(frontier, n)
		}
	}
	for _, name := range changed {
		for _, n := range g.Lookup("file:" + name) {
			mark(n)
		}
		for _, n := range g.Lookup(name) {
			if n.Kind == KindFile {
				mark(n)
			}
		}
	}
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		for _, e := range n.out {
			mark(e.to)
		}
		for _, e := range n.in {
			mark(e.to)
		}
	}
	return set
}

// Contains reports whether the node is in the affected set.
func (s *AffectedSet) Contains(n *Node) bool {
	return s != nil && n != nil && n.rank < len(s.in) && s.g.ord.nodes[n.rank] == n && s.in[n.rank]
}

// Len returns the number of affected nodes.
func (s *AffectedSet) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Nodes returns every affected node sorted by key.
func (s *AffectedSet) Nodes() []*Node {
	if s == nil {
		return nil
	}
	out := make([]*Node, 0, s.n)
	for rank, in := range s.in {
		if in {
			out = append(out, s.g.ord.nodes[rank])
		}
	}
	return out
}

// Units returns the names of the affected units (file nodes), sorted.
// File keys share their "file:" prefix, so key order is name order.
func (s *AffectedSet) Units() []string {
	if s == nil {
		return nil
	}
	var out []string
	for rank, in := range s.in {
		if n := s.g.ord.nodes[rank]; in && n.Kind == KindFile {
			out = append(out, n.Name)
		}
	}
	return out
}

// ContainsUnit reports whether the named unit is affected.
func (s *AffectedSet) ContainsUnit(name string) bool {
	if s == nil {
		return false
	}
	n, ok := s.g.nodes["file:"+name]
	return ok && s.in[n.rank]
}
