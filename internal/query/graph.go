// Package query is an in-memory dependency-graph layer over a DUCTAPE
// program database — the PDB seen as what it fundamentally is: a graph
// of units (source files), classes, templates, and routines connected
// by include, inherit, instantiate, call, and definition edges.
//
// The query suite follows the shape of build-graph query tools
// (please's src/query/): deps and revdeps walk the graph forward and
// backward, somepath finds a connecting chain, reaches answers
// reachability, whatinputs maps a source file to everything that takes
// it as an input, and Affected computes the transitive invalidation
// set of a changed-file list — the computation the incremental pdblint
// driver (internal/analysis.RunIncremental) and the pdbquery CLI share.
//
// Edge direction follows dependency: an edge X -> Y means "X depends
// on Y" (X includes Y, X inherits from Y, X was instantiated from Y,
// X calls Y, X is defined in Y). Deps walks outgoing edges, RevDeps
// incoming ones. All query results are deterministically ordered by
// node key regardless of map iteration or build order: the graph sorts
// its nodes by key once, on the first ordered answer, and every answer
// after that compares the nodes' ranks in that order instead of their
// key strings.
package query

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"pdt/internal/ductape"
)

// Kind classifies a graph node.
type Kind string

// Node kinds.
const (
	KindFile     Kind = "file"
	KindClass    Kind = "class"
	KindRoutine  Kind = "routine"
	KindTemplate Kind = "template"
)

// EdgeKind classifies a dependency edge.
type EdgeKind string

// Edge kinds, in the canonical presentation order.
const (
	EdgeInclude     EdgeKind = "include"     // file -> file it includes
	EdgeInherit     EdgeKind = "inherit"     // class -> base class
	EdgeInstantiate EdgeKind = "instantiate" // class/routine -> its template
	EdgeCall        EdgeKind = "call"        // routine -> callee
	EdgeDefine      EdgeKind = "define"      // entity -> file defining it
)

// Node is one graph vertex. Name is the canonical, merge-stable
// identity within the kind: the file name for files, the qualified
// name (plus signature for routines) for entities, suffixed with the
// definition location when one qualified name has several distinct
// definitions (ODR duplicates survive as distinct nodes).
type Node struct {
	Kind Kind
	Name string

	key  string // "kind:name", shared with the graph's map key
	rank int    // position in the key order; valid once the order is built

	out []edge // dependencies (this node depends on edge.to)
	in  []edge // dependents   (edge.to depends on this node)
}

type edge struct {
	kind EdgeKind
	to   *Node
}

// Key returns the unique "kind:name" identity of the node.
func (n *Node) Key() string { return n.key }

func (n *Node) String() string { return n.Key() }

// Edge is one resolved dependency edge, as reported by path queries.
type Edge struct {
	Kind EdgeKind `json:"kind"`
	From string   `json:"from"`
	To   string   `json:"to"`
}

// Graph is the dependency graph of one program database.
type Graph struct {
	db    *ductape.PDB
	nodes map[string]*Node // by Key()

	fileNode     map[*ductape.File]*Node
	classNode    map[*ductape.Class]*Node
	routineNode  map[*ductape.Routine]*Node
	templateNode map[*ductape.Template]*Node

	orderOnce sync.Once
	ord       order
}

// order is the graph's key order, built once on the first answer that
// needs it (see ordered).
type order struct {
	nodes []*Node            // every node sorted by key; nodes[i].rank == i
	alias map[string][]*Node // bare and base names -> nodes in key order
}

// kinds lists every node kind, for resolving a name to its keys.
var kinds = [...]Kind{KindClass, KindFile, KindRoutine, KindTemplate}

// New builds the dependency graph of db. Building is O(items + edges);
// the graph holds pointers into the database and stays valid as long
// as the database does.
func New(db *ductape.PDB) *Graph {
	g, _ := NewContext(context.Background(), db)
	return g
}

// buildCheckEvery is how many items/edge groups construction processes
// between context checks: small enough that an abandoned build on a
// monorepo-scale database stops within microseconds of cancellation,
// large enough that the check is free on the hot path.
const buildCheckEvery = 1024

// NewContext builds the dependency graph like New but honors ctx the
// way pdbio.LoadAll does: construction polls for cancellation between
// batches of items and returns ctx.Err() instead of a graph, so a
// server whose client disconnected mid-build does not keep burning a
// core on an abandoned graph. A nil error means the graph is complete.
func NewContext(ctx context.Context, db *ductape.PDB) (*Graph, error) {
	g := &Graph{
		db:           db,
		nodes:        map[string]*Node{},
		fileNode:     map[*ductape.File]*Node{},
		classNode:    map[*ductape.Class]*Node{},
		routineNode:  map[*ductape.Routine]*Node{},
		templateNode: map[*ductape.Template]*Node{},
	}
	if err := g.build(ctx); err != nil {
		return nil, err
	}
	return g, nil
}

// DB returns the database the graph was built from.
func (g *Graph) DB() *ductape.PDB { return g.db }

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int {
	n := 0
	for _, nd := range g.nodes {
		n += len(nd.out)
	}
	return n
}

// Nodes returns every node sorted by key.
func (g *Graph) Nodes() []*Node {
	return slices.Clone(g.ordered().nodes)
}

// Lookup resolves a node by exact "kind:name" key, by bare name, or —
// for files — by base name. A bare name or base name that matches
// several nodes returns them all, sorted by key; the caller decides
// whether ambiguity is an error.
func (g *Graph) Lookup(spec string) []*Node {
	if n, ok := g.nodes[spec]; ok {
		return []*Node{n}
	}
	out := slices.Clone(g.ordered().alias[spec])
	// A node named spec has the key "kind:spec"; no node is found
	// both by its name and by an alias, which differs from its name.
	var buf [64]byte
	for _, kind := range kinds {
		key := append(append(append(buf[:0], kind...), ':'), spec...)
		if n, ok := g.nodes[string(key)]; ok {
			out = append(out, n)
		}
	}
	g.sortNodes(out)
	return out
}

// ordered returns the key order, building it on first use. The sort
// is paid once per graph, and only by a graph that answers ordered
// queries; a graph built just to be counted never sorts. sync.Once
// makes the ranks written here visible to every goroutine that reads
// them after calling ordered.
func (g *Graph) ordered() *order {
	g.orderOnce.Do(func() {
		nodes := make([]*Node, 0, len(g.nodes))
		for _, n := range g.nodes {
			nodes = append(nodes, n)
		}
		slices.SortFunc(nodes, func(a, b *Node) int { return strings.Compare(a.key, b.key) })
		alias := map[string][]*Node{}
		for i, n := range nodes {
			n.rank = i
			if bare := bareEntityName(n); bare != n.Name {
				alias[bare] = append(alias[bare], n)
			}
			if base, ok := baseName(n); ok {
				alias[base] = append(alias[base], n)
			}
		}
		g.ord = order{nodes: nodes, alias: alias}
	})
	return &g.ord
}

// sortNodes orders nodes of g by key, comparing ranks.
func (g *Graph) sortNodes(ns []*Node) {
	g.ordered()
	slices.SortFunc(ns, func(a, b *Node) int { return cmp.Compare(a.rank, b.rank) })
}

// bareEntityName strips the disambiguating "@file:line" and "#n"
// suffixes so every duplicate definition is found by the shared
// qualified name (the ODR-clash lookup case).
func bareEntityName(n *Node) string {
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

// baseName returns the path base of a file node whose name has a
// directory ("matrix.h" for "include/matrix.h"), the name a spec may
// use for it.
func baseName(n *Node) (string, bool) {
	if n.Kind != KindFile {
		return "", false
	}
	i := strings.LastIndexByte(n.Name, '/')
	if i < 0 {
		return "", false
	}
	return n.Name[i+1:], true
}

// --- construction -----------------------------------------------------------

func (g *Graph) build(ctx context.Context) error {
	db := g.db
	if err := ctx.Err(); err != nil {
		return err
	}

	// tick polls the context once per buildCheckEvery items so an
	// abandoned build stops promptly without paying a per-item check.
	step := 0
	tick := func() error {
		if step++; step%buildCheckEvery == 0 {
			return ctx.Err()
		}
		return nil
	}

	for _, f := range db.Files() {
		g.fileNode[f] = g.addNode(KindFile, f.Name())
		if err := tick(); err != nil {
			return err
		}
	}
	// Entity names can collide (ODR duplicates, unresolved overloads);
	// collisions get a "@file:line" location suffix, and a further "#n"
	// ordinal only if even the located name repeats.
	for _, c := range db.Classes() {
		g.classNode[c] = g.addEntityNode(KindClass, c.FullName(), locSuffix(c.Location()))
		if err := tick(); err != nil {
			return err
		}
	}
	for _, r := range db.Routines() {
		g.routineNode[r] = g.addEntityNode(KindRoutine, r.FullName(), locSuffix(r.Location()))
		if err := tick(); err != nil {
			return err
		}
	}
	for _, t := range db.Templates() {
		g.templateNode[t] = g.addEntityNode(KindTemplate, t.Name(), locSuffix(t.Location()))
		if err := tick(); err != nil {
			return err
		}
	}

	for _, f := range db.Files() {
		from := g.fileNode[f]
		for _, inc := range f.Includes() {
			g.addEdge(EdgeInclude, from, g.fileNode[inc])
		}
		if err := tick(); err != nil {
			return err
		}
	}
	for _, c := range db.Classes() {
		from := g.classNode[c]
		for _, b := range c.BaseClasses() {
			if b.Class != nil {
				g.addEdge(EdgeInherit, from, g.classNode[b.Class])
			}
		}
		if te := c.Template(); te != nil {
			g.addEdge(EdgeInstantiate, from, g.templateNode[te])
		}
		if loc := c.Location(); loc.File != nil {
			g.addEdge(EdgeDefine, from, g.fileNode[loc.File])
		}
		if err := tick(); err != nil {
			return err
		}
	}
	for _, r := range db.Routines() {
		from := g.routineNode[r]
		for _, call := range r.Callees() {
			g.addEdge(EdgeCall, from, g.routineNode[call.Call()])
		}
		if te := r.Template(); te != nil {
			g.addEdge(EdgeInstantiate, from, g.templateNode[te])
		}
		if loc := r.Location(); loc.File != nil {
			g.addEdge(EdgeDefine, from, g.fileNode[loc.File])
		}
		if err := tick(); err != nil {
			return err
		}
	}
	for _, t := range db.Templates() {
		if loc := t.Location(); loc.File != nil {
			g.addEdge(EdgeDefine, g.templateNode[t], g.fileNode[loc.File])
		}
		if err := tick(); err != nil {
			return err
		}
	}
	return nil
}

func locSuffix(l ductape.Location) string {
	if !l.Valid() {
		return ""
	}
	return fmt.Sprintf("@%s:%d", l.File.Name(), l.Line)
}

func (g *Graph) addNode(kind Kind, name string) *Node {
	key := string(kind) + ":" + name
	if _, taken := g.nodes[key]; taken {
		for i := 2; ; i++ {
			key = fmt.Sprintf("%s:%s#%d", kind, name, i)
			if _, taken := g.nodes[key]; !taken {
				break
			}
		}
	}
	// Name shares the key's bytes.
	n := &Node{Kind: kind, Name: key[len(kind)+1:], key: key}
	g.nodes[key] = n
	return n
}

// addEntityNode names an entity by its qualified name, falling back to
// the location-suffixed name when the bare name is already taken —
// duplicate definitions stay distinct, and unique names stay short.
func (g *Graph) addEntityNode(kind Kind, name, suffix string) *Node {
	if _, taken := g.nodes[string(kind)+":"+name]; taken && suffix != "" {
		return g.addNode(kind, name+suffix)
	}
	return g.addNode(kind, name)
}

func (g *Graph) addEdge(kind EdgeKind, from, to *Node) {
	if from == nil || to == nil || from == to {
		return
	}
	for _, e := range from.out {
		if e.kind == kind && e.to == to {
			return
		}
	}
	from.out = append(from.out, edge{kind, to})
	to.in = append(to.in, edge{kind, from})
}

// NodeFor returns the node of a database object (a *ductape.File,
// *Class, *Routine, or *Template), or nil.
func (g *Graph) NodeFor(obj any) *Node {
	switch v := obj.(type) {
	case *ductape.File:
		return g.fileNode[v]
	case *ductape.Class:
		return g.classNode[v]
	case *ductape.Routine:
		return g.routineNode[v]
	case *ductape.Template:
		return g.templateNode[v]
	}
	return nil
}
