package corpus

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"pdt/internal/query"
	"pdt/internal/schema"
)

// Request-classification errors. The CLI folds both into its usage
// exit code; the daemon maps ErrNotFound to HTTP 404 and ErrBadRequest
// to HTTP 400.
var (
	// ErrBadRequest marks a malformed request: unknown command, wrong
	// argument count, ambiguous endpoint node.
	ErrBadRequest = errors.New("bad request")
	// ErrNotFound marks a well-formed request naming something that
	// does not exist (no node matches the spec, unknown HTML page).
	ErrNotFound = errors.New("not found")
)

// Query commands, exactly the pdbquery CLI command set.
const (
	CmdNodes      = "nodes"
	CmdLookup     = "lookup"
	CmdDeps       = "deps"
	CmdRevDeps    = "revdeps"
	CmdSomePath   = "somepath"
	CmdReaches    = "reaches"
	CmdWhatInputs = "whatinputs"
	CmdAffected   = "affected"
)

// ExitNoPath is the query-specific finding exit code: a somepath or
// reaches query completed but found no connection.
const ExitNoPath = 1

// QueryRequest is one graph query: a command, its arguments (node
// specs for most commands, file names for whatinputs/affected, a
// from/to pair for somepath/reaches), and the traversal depth bound
// for deps/revdeps (0 = unbounded).
type QueryRequest struct {
	Command string
	Args    []string
	Depth   int
}

// QueryResult is the outcome of one graph query, holding exactly one
// of the result shapes plus everything the renderers need.
type QueryResult struct {
	Command string

	Nodes    []*query.Node      // nodes, lookup, deps, revdeps, whatinputs
	Path     []query.Edge       // somepath (nil = no path)
	HasPath  bool               // somepath, reaches
	Affected *query.AffectedSet // affected
	Units    []string           // affected: Affected.Units(), computed once
}

// Query runs one graph query against the corpus. The graph is built
// on first use, honoring ctx. Malformed requests return ErrBadRequest;
// specs that match nothing return ErrNotFound.
func (c *Corpus) Query(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	g, err := c.Graph(ctx)
	if err != nil {
		return nil, err
	}
	res := &QueryResult{Command: req.Command}
	switch req.Command {
	case CmdNodes:
		if len(req.Args) != 0 {
			return nil, fmt.Errorf("%w: nodes takes no arguments", ErrBadRequest)
		}
		res.Nodes = g.Nodes()
	case CmdLookup:
		nodes, err := resolveAll(g, req.Args)
		if err != nil {
			return nil, err
		}
		res.Nodes = nodes
	case CmdDeps, CmdRevDeps:
		nodes, err := resolveAll(g, req.Args)
		if err != nil {
			return nil, err
		}
		if req.Command == CmdDeps {
			res.Nodes = g.Deps(nodes, req.Depth)
		} else {
			res.Nodes = g.RevDeps(nodes, req.Depth)
		}
	case CmdWhatInputs:
		nodes, err := resolveFiles(g, req.Args)
		if err != nil {
			return nil, err
		}
		res.Nodes = g.WhatInputs(nodes)
	case CmdSomePath, CmdReaches:
		if len(req.Args) != 2 {
			return nil, fmt.Errorf("%w: %s takes exactly a from and a to node", ErrBadRequest, req.Command)
		}
		from, err := resolveOne(g, req.Args[0])
		if err != nil {
			return nil, err
		}
		to, err := resolveOne(g, req.Args[1])
		if err != nil {
			return nil, err
		}
		res.Path = g.SomePath(from, to)
		res.HasPath = res.Path != nil
	case CmdAffected:
		if len(req.Args) == 0 {
			return nil, fmt.Errorf("%w: affected takes at least one changed file", ErrBadRequest)
		}
		res.Affected = g.Affected(req.Args)
		res.Units = res.Affected.Units()
		c.opts.Metrics.Counter("query.affected_units").Add(int64(len(res.Units)))
	default:
		return nil, fmt.Errorf("%w: unknown command %q", ErrBadRequest, req.Command)
	}
	return res, nil
}

// ExitCode returns the CLI exit code the result implies: ExitNoPath
// when a somepath/reaches query found no connection, 0 otherwise.
func (r *QueryResult) ExitCode() int {
	if (r.Command == CmdSomePath || r.Command == CmdReaches) && !r.HasPath {
		return ExitNoPath
	}
	return 0
}

// Write renders the result in the requested format ("text" or "json").
// This is THE renderer: the pdbquery CLI and the pdbd /v1/query
// endpoints both call it, so their bytes agree by construction.
func (r *QueryResult) Write(w io.Writer, format string) error {
	switch r.Command {
	case CmdSomePath:
		return writePath(w, format, r.Path)
	case CmdReaches:
		return writeBool(w, format, r.HasPath)
	case CmdAffected:
		return writeAffected(w, format, r.Affected, r.Units)
	default:
		return writeNodes(w, format, r.Nodes)
	}
}

// resolveAll resolves every spec, requiring at least one node each;
// ambiguous specs contribute all their matches.
func resolveAll(g *query.Graph, specs []string) ([]*query.Node, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("%w: at least one node is required", ErrBadRequest)
	}
	var out []*query.Node
	for _, spec := range specs {
		ns := g.Lookup(spec)
		if len(ns) == 0 {
			return nil, fmt.Errorf("%w: no node matches %q", ErrNotFound, spec)
		}
		out = append(out, ns...)
	}
	return out, nil
}

// resolveFiles is resolveAll restricted to file nodes.
func resolveFiles(g *query.Graph, specs []string) ([]*query.Node, error) {
	nodes, err := resolveAll(g, specs)
	if err != nil {
		return nil, err
	}
	for _, n := range nodes {
		if n.Kind != query.KindFile {
			return nil, fmt.Errorf("%w: whatinputs takes files, %q is a %s", ErrBadRequest, n.Name, n.Kind)
		}
	}
	return nodes, nil
}

// resolveOne resolves a spec that must name exactly one node.
func resolveOne(g *query.Graph, spec string) (*query.Node, error) {
	ns := g.Lookup(spec)
	switch len(ns) {
	case 1:
		return ns[0], nil
	case 0:
		return nil, fmt.Errorf("%w: no node matches %q", ErrNotFound, spec)
	default:
		keys := make([]string, 0, len(ns))
		for _, n := range ns {
			keys = append(keys, n.Key())
		}
		return nil, fmt.Errorf("%w: %q is ambiguous: %s", ErrBadRequest, spec, strings.Join(keys, ", "))
	}
}

// --- renderers --------------------------------------------------------------

type nodeJSON struct {
	Kind string `json:"kind"`
	Name string `json:"name"`
}

func marshalNodes(ns []*query.Node) []nodeJSON {
	out := make([]nodeJSON, 0, len(ns))
	for _, n := range ns {
		out = append(out, nodeJSON{Kind: string(n.Kind), Name: n.Name})
	}
	return out
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func writeNodes(w io.Writer, format string, ns []*query.Node) error {
	if format == "json" {
		return writeJSON(w, struct {
			SchemaVersion int        `json:"schema_version"`
			Nodes         []nodeJSON `json:"nodes"`
		}{schema.Version, marshalNodes(ns)})
	}
	return writeKeys(w, ns)
}

// writeKeys writes one node key per line with a single Write.
func writeKeys(w io.Writer, ns []*query.Node) error {
	size := 0
	for _, n := range ns {
		size += len(n.Key()) + 1
	}
	buf := make([]byte, 0, size)
	for _, n := range ns {
		buf = append(buf, n.Key()...)
		buf = append(buf, '\n')
	}
	_, err := w.Write(buf)
	return err
}

func writeBool(w io.Writer, format string, v bool) error {
	if format == "json" {
		return writeJSON(w, struct {
			SchemaVersion int  `json:"schema_version"`
			Reaches       bool `json:"reaches"`
		}{schema.Version, v})
	}
	_, err := fmt.Fprintln(w, v)
	return err
}

func writePath(w io.Writer, format string, path []query.Edge) error {
	if format == "json" {
		p := path
		if p == nil {
			p = []query.Edge{}
		}
		return writeJSON(w, struct {
			SchemaVersion int          `json:"schema_version"`
			Found         bool         `json:"found"`
			Path          []query.Edge `json:"path"`
		}{schema.Version, path != nil, p})
	}
	if path == nil {
		_, err := fmt.Fprintln(w, "no path")
		return err
	}
	var buf []byte
	for i, e := range path {
		if i == 0 {
			buf = append(append(buf, e.From...), '\n')
		}
		buf = append(append(buf, "  -"...), e.Kind...)
		buf = append(append(buf, "-> "...), e.To...)
		buf = append(buf, '\n')
	}
	_, err := w.Write(buf)
	return err
}

func writeAffected(w io.Writer, format string, set *query.AffectedSet, units []string) error {
	if format == "json" {
		if units == nil {
			units = []string{}
		}
		return writeJSON(w, struct {
			SchemaVersion int        `json:"schema_version"`
			Units         []string   `json:"units"`
			Nodes         []nodeJSON `json:"nodes"`
		}{schema.Version, units, marshalNodes(set.Nodes())})
	}
	return writeKeys(w, set.Nodes())
}
