package query

import (
	"sort"
	"strings"
)

// The oracle below is the query layer as it was before the graph kept
// a key order: every answer collected nodes from maps and sorted them
// with a string comparator that rebuilds "kind:name" on each compare.
// The byte-identity tests hold the rank-ordered answers to it.

// oracleKey is the node identity rebuilt from kind and name, not the key
// stored at construction.
func oracleKey(n *Node) string { return string(n.Kind) + ":" + n.Name }

func oracleSort(ns []*Node) {
	sort.Slice(ns, func(i, j int) bool { return oracleKey(ns[i]) < oracleKey(ns[j]) })
}

// OracleNodes is Graph.Nodes by map walk and string sort.
func OracleNodes(g *Graph) []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	oracleSort(out)
	return out
}

// OracleLookup is Graph.Lookup by a scan of every node.
func OracleLookup(g *Graph, spec string) []*Node {
	for _, n := range g.nodes {
		if oracleKey(n) == spec {
			return []*Node{n}
		}
	}
	var out []*Node
	for _, n := range g.nodes {
		if n.Name == spec || oracleMatchesBase(n, spec) || oracleBareName(n) == spec {
			out = append(out, n)
		}
	}
	oracleSort(out)
	return out
}

func oracleBareName(n *Node) string {
	if n.Kind == KindFile {
		return n.Name
	}
	name := n.Name
	if i := strings.LastIndex(name, "@"); i >= 0 {
		name = name[:i]
	} else if i := strings.LastIndex(name, "#"); i >= 0 {
		name = name[:i]
	}
	return name
}

func oracleMatchesBase(n *Node, spec string) bool {
	if n.Kind != KindFile {
		return false
	}
	name := n.Name
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' {
			return name[i+1:] == spec
		}
	}
	return false
}

// OracleDeps and OracleRevDeps are Graph.Deps and Graph.RevDeps over a
// map-based visited set.
func OracleDeps(start []*Node, maxDepth int) []*Node {
	return oracleClosure(start, maxDepth, func(n *Node) []edge { return n.out })
}

func OracleRevDeps(start []*Node, maxDepth int) []*Node {
	return oracleClosure(start, maxDepth, func(n *Node) []edge { return n.in })
}

func oracleClosure(start []*Node, maxDepth int, next func(*Node) []edge) []*Node {
	seen := map[*Node]bool{}
	for _, n := range start {
		if n != nil {
			seen[n] = true
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
				if seen[e.to] {
					continue
				}
				seen[e.to] = true
				out = append(out, e.to)
				nf = append(nf, e.to)
			}
		}
		frontier = nf
	}
	oracleSort(out)
	return out
}

// OracleWhatInputs is Graph.WhatInputs over OracleRevDeps.
func OracleWhatInputs(files []*Node) []*Node {
	var out []*Node
	for _, n := range OracleRevDeps(files, 0) {
		if n.Kind == KindFile {
			out = append(out, n)
		}
	}
	return out
}

// OracleSomePath is Graph.SomePath over a map of hops and string-sorted
// expansion.
func OracleSomePath(from, to *Node) []Edge {
	if from == nil || to == nil {
		return nil
	}
	if from == to {
		return []Edge{}
	}
	type hop struct {
		prev *Node
		via  EdgeKind
	}
	visited := map[*Node]hop{from: {}}
	frontier := []*Node{from}
	for len(frontier) > 0 && visited[to] == (hop{}) {
		var next []*Node
		for _, n := range frontier {
			es := append([]edge(nil), n.out...)
			sort.Slice(es, func(i, j int) bool {
				if oracleKey(es[i].to) != oracleKey(es[j].to) {
					return oracleKey(es[i].to) < oracleKey(es[j].to)
				}
				return es[i].kind < es[j].kind
			})
			for _, e := range es {
				if _, seen := visited[e.to]; seen {
					continue
				}
				visited[e.to] = hop{prev: n, via: e.kind}
				next = append(next, e.to)
			}
		}
		oracleSort(next)
		frontier = next
	}
	end, ok := visited[to]
	if !ok || end.prev == nil {
		return nil
	}
	var rev []Edge
	for n := to; n != from; {
		h := visited[n]
		rev = append(rev, Edge{Kind: h.via, From: oracleKey(h.prev), To: oracleKey(n)})
		n = h.prev
	}
	out := make([]Edge, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// OracleAffected is Graph.Affected over a map-based set; it returns the
// set's nodes and unit names, both sorted.
func OracleAffected(g *Graph, changed []string) (nodes []*Node, units []string) {
	set := map[*Node]bool{}
	var frontier []*Node
	mark := func(n *Node) {
		if n != nil && !set[n] {
			set[n] = true
			frontier = append(frontier, n)
		}
	}
	for _, name := range changed {
		for _, n := range OracleLookup(g, "file:"+name) {
			mark(n)
		}
		for _, n := range OracleLookup(g, name) {
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
	nodes = make([]*Node, 0, len(set))
	for n := range set {
		nodes = append(nodes, n)
		if n.Kind == KindFile {
			units = append(units, n.Name)
		}
	}
	oracleSort(nodes)
	sort.Strings(units)
	return nodes, units
}
