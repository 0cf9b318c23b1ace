package query

import (
	"cmp"
	"slices"
)

// Deps returns every node the start nodes transitively depend on —
// the forward closure over outgoing edges, excluding the start nodes
// themselves. maxDepth bounds the walk (0 or negative = unbounded;
// 1 = direct dependencies only). Results are sorted by node key.
func (g *Graph) Deps(start []*Node, maxDepth int) []*Node {
	return g.closure(start, maxDepth, func(n *Node) []edge { return n.out })
}

// RevDeps returns every node that transitively depends on the start
// nodes — the reverse closure over incoming edges, excluding the start
// nodes themselves. maxDepth bounds the walk as in Deps.
func (g *Graph) RevDeps(start []*Node, maxDepth int) []*Node {
	return g.closure(start, maxDepth, func(n *Node) []edge { return n.in })
}

// WhatInputs returns every file for which any of the given files is a
// transitive input: the reverse dependency closure of the file nodes,
// filtered to file nodes. It answers "which translation units and
// headers would have to be revisited if these files changed" — the
// file-to-file projection of RevDeps.
func (g *Graph) WhatInputs(files []*Node) []*Node {
	var out []*Node
	for _, n := range g.RevDeps(files, 0) {
		if n.Kind == KindFile {
			out = append(out, n)
		}
	}
	return out
}

// Reaches reports whether from transitively depends on to.
func (g *Graph) Reaches(from, to *Node) bool {
	return g.SomePath(from, to) != nil
}

// SomePath returns one shortest dependency chain from -> ... -> to as
// a list of traversed edges, nil if none exists, and an empty slice
// when from == to. Among equally short paths the lexicographically
// smallest (by node key at each hop) is returned, so the answer is
// deterministic.
func (g *Graph) SomePath(from, to *Node) []Edge {
	if from == nil || to == nil {
		return nil
	}
	if from == to {
		return []Edge{}
	}
	// BFS with sorted expansion: the first discovery of each node is
	// via the smallest-key predecessor at the shallowest depth.
	type hop struct {
		prev *Node
		via  EdgeKind
		seen bool
	}
	visited := make([]hop, len(g.ordered().nodes))
	visited[from.rank].seen = true
	frontier := []*Node{from}
	for len(frontier) > 0 && !visited[to.rank].seen {
		var next []*Node
		for _, n := range frontier {
			for _, e := range sortedEdges(n.out) {
				if visited[e.to.rank].seen {
					continue
				}
				visited[e.to.rank] = hop{prev: n, via: e.kind, seen: true}
				next = append(next, e.to)
			}
		}
		g.sortNodes(next)
		frontier = next
	}
	if !visited[to.rank].seen {
		return nil
	}
	var rev []Edge
	for n := to; n != from; {
		h := visited[n.rank]
		rev = append(rev, Edge{Kind: h.via, From: h.prev.Key(), To: n.Key()})
		n = h.prev
	}
	out := make([]Edge, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// closure walks BFS over next(n), excluding the start set from the
// result, bounded by maxDepth levels.
func (g *Graph) closure(start []*Node, maxDepth int, next func(*Node) []edge) []*Node {
	seen := make([]bool, len(g.ordered().nodes))
	for _, n := range start {
		if n != nil {
			seen[n.rank] = true
		}
	}
	frontier := append([]*Node(nil), start...)
	var out []*Node
	for depth := 0; len(frontier) > 0 && (maxDepth <= 0 || depth < maxDepth); depth++ {
		var nf []*Node
		for _, n := range frontier {
			if n == nil {
				continue
			}
			for _, e := range next(n) {
				if seen[e.to.rank] {
					continue
				}
				seen[e.to.rank] = true
				out = append(out, e.to)
				nf = append(nf, e.to)
			}
		}
		frontier = nf
	}
	g.sortNodes(out)
	return out
}

// sortedEdges orders edges by target key (then edge kind), for
// deterministic traversal. The caller has built the key order.
func sortedEdges(es []edge) []edge {
	out := slices.Clone(es)
	slices.SortFunc(out, func(a, b edge) int {
		if c := cmp.Compare(a.to.rank, b.to.rank); c != 0 {
			return c
		}
		return cmp.Compare(a.kind, b.kind)
	})
	return out
}
