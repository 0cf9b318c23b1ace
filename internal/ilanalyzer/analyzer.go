// Package ilanalyzer implements the IL Analyzer of the paper's §3.1: it
// walks the IL tree produced by the frontend and emits a program
// database (internal/pdb). Mirroring the paper, it performs *separate
// traversals* for source files, templates, routines, classes, types,
// namespaces, and macros, and it determines the template an
// instantiation came from by matching source locations against a
// pre-built template list — because the IL records that an entity
// *is* an instantiation, not which template produced it.
//
// The paper notes the location scan cannot attribute explicit
// specializations to their templates ("it is currently not possible to
// determine the originating template for a specialization") and
// proposes a front-end modification adding direct template IDs. Both
// behaviours are implemented: OriginScan (default, paper-faithful) and
// OriginDirect (the proposed modification) — compared in the D2
// ablation benchmark.
package ilanalyzer

import (
	"math"
	"slices"
	"strings"

	"pdt/internal/cpp/ast"
	"pdt/internal/cpp/pp"
	"pdt/internal/il"
	"pdt/internal/pdb"
	"pdt/internal/source"
)

// OriginMode selects how instantiations are linked to templates.
type OriginMode int

const (
	// OriginScan matches instantiations to templates by finding, in
	// the template list, the narrowest definition span containing the
	// instantiation's location (the paper's implementation).
	OriginScan OriginMode = iota
	// OriginDirect follows the IL's direct back-pointers (the paper's
	// proposed EDG modification).
	OriginDirect
)

// Options configure the analyzer.
type Options struct {
	TemplateOrigin OriginMode
}

// Analyzer converts one IL unit into a PDB.
type Analyzer struct {
	unit *il.Unit
	opts Options
	out  *pdb.PDB

	fileIDs      map[*source.File]int
	templateIDs  map[*il.Template]int
	routineIDs   map[*il.Routine]int
	classIDs     map[*il.Class]int
	namespaceIDs map[*il.Namespace]int

	// templateSpans is the pre-built template list for the location
	// match: (template, definition span). origins indexes it by file.
	templateSpans []templateSpan
	origins       map[*source.File]*fileOrigins
}

type templateSpan struct {
	t    *il.Template
	span source.Span
}

// New returns an analyzer for the unit.
func New(unit *il.Unit, opts Options) *Analyzer {
	return &Analyzer{
		unit: unit, opts: opts, out: &pdb.PDB{},
		fileIDs:      map[*source.File]int{},
		templateIDs:  map[*il.Template]int{},
		routineIDs:   map[*il.Routine]int{},
		classIDs:     map[*il.Class]int{},
		namespaceIDs: map[*il.Namespace]int{},
	}
}

// Analyze runs every traversal and returns the PDB.
func Analyze(unit *il.Unit, opts Options) *pdb.PDB {
	a := New(unit, opts)
	a.assignIDs()
	if opts.TemplateOrigin == OriginScan {
		a.buildTemplateList()
	}
	a.emitFiles()
	a.emitTemplates()
	a.emitRoutines()
	a.emitClasses()
	a.emitTypes()
	a.emitNamespaces()
	a.emitMacros()
	return a.out
}

// assignIDs gives every emitted entity a stable PDB ID in traversal
// order.
func (a *Analyzer) assignIDs() {
	for i, f := range a.unit.Files {
		a.fileIDs[f] = i + 1
	}
	for i, t := range a.unit.AllTemplates {
		a.templateIDs[t] = i + 1
	}
	for i, r := range a.unit.AllRoutines {
		a.routineIDs[r] = i + 1
	}
	for i, c := range a.unit.AllClasses {
		a.classIDs[c] = i + 1
	}
	id := 1
	var walk func(ns *il.Namespace)
	walk = func(ns *il.Namespace) {
		if ns.Parent != nil { // skip the global namespace
			a.namespaceIDs[ns] = id
			id++
		}
		for _, sub := range ns.Namespaces {
			walk(sub)
		}
	}
	walk(a.unit.Global)
}

// buildTemplateList prepares the scan table: the paper's "list of
// templates [created] in advance". Spans come from the unit's
// supplemental location table — deliberately not from the template
// node itself (§3.1). It then indexes the list by file, so that
// finding an instantiation's template is one lookup, not a walk of the
// whole list.
func (a *Analyzer) buildTemplateList() {
	a.templateSpans = make([]templateSpan, 0, len(a.unit.AllTemplates))
	for _, t := range a.unit.AllTemplates {
		span, ok := a.unit.SuppLocs[t]
		if !ok {
			span = source.Span{Begin: t.Header.Begin, End: t.Body.End}
		}
		a.templateSpans = append(a.templateSpans, templateSpan{t: t, span: span})
	}
	a.origins = indexOrigins(a.templateSpans)
}

// templateForLoc finds the template whose definition span contains
// loc. This reproduces the paper's matching: instantiations carry their
// template's source location, so containment identifies the origin;
// specializations live outside any template's span and find nothing.
//
// Containment is by line only. Member-function templates defined
// in-class nest inside the class template's span; the narrowest
// containing span is the correct origin (Figure 3: ro#7 push links to
// te#566 push, not te#559 Stack). A tie goes to the span that comes
// first in the template list.
func (a *Analyzer) templateForLoc(loc source.Loc) *il.Template {
	if fo := a.origins[loc.File]; fo != nil {
		return fo.lookup(loc.Line)
	}
	return nil
}

// openSpanSize is the size of a span with no valid end: it contains
// every line from its begin on, and any finite span narrower than this
// beats it.
const openSpanSize = 1 << 29

// fileOrigins holds the origin of every line of one file. The lines are
// cut into segments at each span's begin line and at the line after
// each span's end, so every line of a segment lies in the same spans
// and has the same origin.
type fileOrigins struct {
	starts []int          // first line of each segment, ascending
	owner  []*il.Template // origin of the lines starts[i] .. starts[i+1]-1
}

func (fo *fileOrigins) lookup(line int) *il.Template {
	i, found := slices.BinarySearch(fo.starts, line)
	if !found {
		if i == 0 {
			return nil
		}
		i--
	}
	return fo.owner[i]
}

// originSpan is one template span of a file, ready to paint; last is
// math.MaxInt for a span with no valid end.
type originSpan struct {
	t                 *il.Template
	first, last, size int
}

// indexOrigins builds the per-file origin tables in O(n log n) for n
// spans. The spans of a file are painted narrowest first, ties in list
// order, and each segment keeps the first span that reaches it: that is
// the span the narrowest-containing-span rule picks for its lines.
func indexOrigins(spans []templateSpan) map[*source.File]*fileOrigins {
	byFile := map[*source.File][]originSpan{}
	for _, ts := range spans {
		if !ts.span.Valid() {
			continue
		}
		sp := originSpan{t: ts.t, first: ts.span.Begin.Line, last: math.MaxInt, size: openSpanSize}
		if ts.span.End.Valid() {
			sp.last = ts.span.End.Line
			sp.size = sp.last - sp.first
			// A span ending before it begins contains no line, and the
			// match ignores spans 1<<30 or more lines wide.
			if sp.size < 0 || sp.size >= 1<<30 {
				continue
			}
		}
		f := ts.span.Begin.File
		byFile[f] = append(byFile[f], sp)
	}
	out := make(map[*source.File]*fileOrigins, len(byFile))
	for f, sps := range byFile {
		out[f] = paintOrigins(sps)
	}
	return out
}

func paintOrigins(sps []originSpan) *fileOrigins {
	starts := make([]int, 0, 2*len(sps))
	for _, sp := range sps {
		starts = append(starts, sp.first)
		if sp.last < math.MaxInt {
			starts = append(starts, sp.last+1)
		}
	}
	slices.Sort(starts)
	starts = slices.Compact(starts)
	fo := &fileOrigins{starts: starts, owner: make([]*il.Template, len(starts))}

	// next[i] leads, through path-halving, to the first unpainted
	// segment at or after i; len(starts) means none is left.
	next := make([]int, len(starts)+1)
	for i := range next {
		next[i] = i
	}
	find := func(i int) int {
		for next[i] != i {
			next[i] = next[next[i]]
			i = next[i]
		}
		return i
	}
	slices.SortStableFunc(sps, func(x, y originSpan) int { return x.size - y.size })
	for _, sp := range sps {
		lo, _ := slices.BinarySearch(starts, sp.first)
		hi := len(starts)
		if sp.last < math.MaxInt {
			hi, _ = slices.BinarySearch(starts, sp.last+1)
		}
		for i := find(lo); i < hi; i = find(i) {
			fo.owner[i] = sp.t
			next[i] = i + 1
		}
	}
	return fo
}

// originOf resolves the template reference for an instantiated entity
// under the configured mode.
func (a *Analyzer) originOf(direct *il.Template, loc source.Loc, isSpecialization bool) pdb.Ref {
	switch a.opts.TemplateOrigin {
	case OriginDirect:
		return a.templateRef(direct)
	default:
		if isSpecialization {
			// The paper-faithful scan cannot attribute specializations.
			return pdb.Ref{}
		}
		return a.templateRef(a.templateForLoc(loc))
	}
}

// --- reference helpers ----------------------------------------------------

func (a *Analyzer) fileRef(f *source.File) pdb.Ref {
	if f == nil {
		return pdb.Ref{}
	}
	if id, ok := a.fileIDs[f]; ok {
		return pdb.Ref{Prefix: pdb.PrefixSourceFile, ID: id}
	}
	return pdb.Ref{}
}

func (a *Analyzer) loc(l source.Loc) pdb.Loc {
	if !l.Valid() {
		return pdb.Loc{}
	}
	return pdb.Loc{File: a.fileRef(l.File), Line: l.Line, Col: l.Col}
}

func (a *Analyzer) pos(header, body source.Span) pdb.Pos {
	return pdb.Pos{
		HeaderBegin: a.loc(header.Begin),
		HeaderEnd:   a.loc(header.End),
		BodyBegin:   a.loc(body.Begin),
		BodyEnd:     a.loc(body.End),
	}
}

func (a *Analyzer) templateRef(t *il.Template) pdb.Ref {
	if t == nil {
		return pdb.Ref{}
	}
	if id, ok := a.templateIDs[t]; ok {
		return pdb.Ref{Prefix: pdb.PrefixTemplate, ID: id}
	}
	return pdb.Ref{}
}

func (a *Analyzer) routineRef(r *il.Routine) pdb.Ref {
	if r == nil {
		return pdb.Ref{}
	}
	if id, ok := a.routineIDs[r]; ok {
		return pdb.Ref{Prefix: pdb.PrefixRoutine, ID: id}
	}
	return pdb.Ref{}
}

func (a *Analyzer) classRef(c *il.Class) pdb.Ref {
	if c == nil {
		return pdb.Ref{}
	}
	if id, ok := a.classIDs[c]; ok {
		return pdb.Ref{Prefix: pdb.PrefixClass, ID: id}
	}
	return pdb.Ref{}
}

func (a *Analyzer) namespaceRef(n *il.Namespace) pdb.Ref {
	if n == nil || n.Parent == nil {
		return pdb.Ref{}
	}
	if id, ok := a.namespaceIDs[n]; ok {
		return pdb.Ref{Prefix: pdb.PrefixNamespace, ID: id}
	}
	return pdb.Ref{}
}

func (a *Analyzer) typeRef(t *il.Type) pdb.Ref {
	if t == nil {
		return pdb.Ref{}
	}
	return pdb.Ref{Prefix: pdb.PrefixType, ID: t.ID}
}

// --- traversals -------------------------------------------------------------

func (a *Analyzer) emitFiles() {
	for _, f := range a.unit.Files {
		item := &pdb.SourceFile{ID: a.fileIDs[f], Name: f.Name, System: f.System}
		for _, inc := range f.Includes {
			item.Includes = append(item.Includes, a.fileRef(inc))
		}
		a.out.Files = append(a.out.Files, item)
	}
}

func (a *Analyzer) emitTemplates() {
	for _, t := range a.unit.AllTemplates {
		item := &pdb.Template{
			ID:   a.templateIDs[t],
			Name: t.Name,
			Loc:  a.loc(t.Loc),
			Kind: t.Kind.String(),
			Text: truncateTemplateText(t.Text),
			Pos:  a.pos(t.Header, t.Body),
		}
		switch p := t.Parent.(type) {
		case *il.Class:
			item.Class = a.classRef(p)
		case *il.Namespace:
			item.Namespace = a.namespaceRef(p)
		}
		if t.Access != ast.NoAccess {
			item.Access = t.Access.String()
		}
		a.out.Templates = append(a.out.Templates, item)
	}
}

// truncateTemplateText elides the body of a template's text, keeping
// the declaration head — matching the paper's Figure 3, which shows
// "ttext template <class Object> class Stack {...};".
func truncateTemplateText(text string) string {
	if i := strings.IndexByte(text, '{'); i >= 0 {
		return strings.TrimRight(text[:i], " \t") + " {...};"
	}
	return text
}

func (a *Analyzer) emitRoutines() {
	for _, r := range a.unit.AllRoutines {
		item := &pdb.Routine{
			ID:        a.routineIDs[r],
			Name:      r.Name,
			Loc:       a.loc(r.Loc),
			Class:     a.classRef(r.Class),
			Namespace: a.namespaceRef(r.Namespace),
			Access:    r.Access.String(),
			Signature: a.typeRef(r.Signature),
			Linkage:   r.Linkage,
			Storage:   r.Storage.String(),
			Kind:      routineKindString(r.Kind),
			Static:    r.Static,
			Inline:    r.Inline,
			Const:     r.Const,
		}
		switch {
		case r.PureVirtual:
			item.Virtual = "pure"
		case r.Virtual:
			item.Virtual = "virt"
		default:
			item.Virtual = "no"
		}
		if r.IsInstantiation {
			spec := r.Class != nil && r.Class.IsSpecialization
			item.Template = a.originOf(r.Origin, r.Loc, spec)
		}
		for _, cs := range r.Calls {
			item.Calls = append(item.Calls, pdb.Call{
				Callee:  a.routineRef(cs.Callee),
				Virtual: cs.Virtual,
				Loc:     a.loc(cs.Loc),
			})
		}
		if r.HasBody {
			item.Pos = a.pos(r.Header, r.BodySpan)
		} else {
			item.Pos = a.pos(r.Header, source.Span{})
		}
		a.out.Routines = append(a.out.Routines, item)
	}
}

func routineKindString(k ast.RoutineKind) string {
	switch k {
	case ast.Constructor:
		return "ctor"
	case ast.Destructor:
		return "dtor"
	case ast.Operator:
		return "op"
	case ast.Conversion:
		return "conv"
	default:
		return "fun"
	}
}

func (a *Analyzer) emitClasses() {
	for _, c := range a.unit.AllClasses {
		item := &pdb.Class{
			ID:             a.classIDs[c],
			Name:           c.Name,
			Loc:            a.loc(c.Loc),
			Kind:           c.Kind.String(),
			Instantiation:  c.IsInstantiation,
			Specialization: c.IsSpecialization,
			Pos:            a.pos(c.Header, c.Body),
		}
		switch p := c.Parent.(type) {
		case *il.Class:
			item.Parent = a.classRef(p)
		case *il.Namespace:
			item.Namespace = a.namespaceRef(p)
		}
		if c.Access != ast.NoAccess {
			item.Access = c.Access.String()
		}
		if c.IsInstantiation || c.IsSpecialization {
			item.Template = a.originOf(c.Origin, c.Loc, c.IsSpecialization)
		}
		for _, b := range c.Bases {
			item.Bases = append(item.Bases, pdb.BaseClass{
				Access:  b.Access.String(),
				Virtual: b.Virtual,
				Class:   a.classRef(b.Class),
				Loc:     a.loc(b.Loc),
			})
		}
		for _, f := range c.Friends {
			item.Friends = append(item.Friends, f.Name)
		}
		for _, m := range c.Methods {
			item.Funcs = append(item.Funcs, pdb.FuncRef{
				Routine: a.routineRef(m),
				Loc:     a.loc(m.Loc),
			})
		}
		for _, v := range c.Members {
			item.Members = append(item.Members, pdb.Member{
				Name:   v.Name,
				Loc:    a.loc(v.Loc),
				Access: v.Access.String(),
				Kind:   v.Kind,
				Type:   a.typeRef(v.Type),
				Static: v.Storage == ast.Static,
			})
		}
		a.out.Classes = append(a.out.Classes, item)
	}
}

func (a *Analyzer) emitTypes() {
	for _, t := range a.unit.Types.All() {
		if t.Kind == il.TError {
			continue
		}
		item := &pdb.Type{
			ID:   t.ID,
			Name: t.String(),
			Kind: t.Kind.String(),
		}
		if t.Kind.IsInteger() {
			item.IntKind = intKindOf(t.Kind)
		}
		switch t.Kind {
		case il.TPtr, il.TRef:
			item.Elem = a.typeRef(t.Elem)
		case il.TArray:
			item.Elem = a.typeRef(t.Elem)
			item.ArrayLen = t.ArrayLen
		case il.TTref:
			item.Tref = a.typeRef(t.Elem)
			if t.Const {
				item.Qual = append(item.Qual, "const")
			}
			if t.Volatile {
				item.Qual = append(item.Qual, "volatile")
			}
		case il.TClass:
			item.Class = a.classRef(t.Class)
		case il.TEnum:
			// Enums have no separate item type in Table 1; the type
			// item carries the name.
		case il.TFunc:
			item.Ret = a.typeRef(t.Ret)
			for _, p := range t.Params {
				item.Args = append(item.Args, a.typeRef(p))
			}
			item.Ellipsis = t.Variadic
			if t.ConstMethod {
				item.Qual = append(item.Qual, "const")
			}
		}
		a.out.Types = append(a.out.Types, item)
	}
}

// intKindOf maps integral kinds to the "yikind" attribute, which names
// the underlying integer representation (Figure 3 shows bool with
// "yikind char").
func intKindOf(k il.TypeKind) string {
	switch k {
	case il.TBool, il.TChar, il.TSChar, il.TUChar:
		return "char"
	case il.TShort, il.TUShort:
		return "short"
	case il.TInt, il.TUInt:
		return "int"
	case il.TLong, il.TULong:
		return "long"
	case il.TLongLong, il.TULongLong:
		return "llong"
	default:
		return ""
	}
}

func (a *Analyzer) emitNamespaces() {
	var walk func(ns *il.Namespace)
	walk = func(ns *il.Namespace) {
		if ns.Parent != nil {
			item := &pdb.Namespace{
				ID:      a.namespaceIDs[ns],
				Name:    ns.Name,
				Loc:     a.loc(ns.Loc),
				Parent:  a.namespaceRef(ns.Parent),
				Members: ns.MemberNames(),
			}
			a.out.Namespaces = append(a.out.Namespaces, item)
		}
		// Aliases in name order: ranging over the map would number
		// them differently from run to run.
		names := make([]string, 0, len(ns.Aliases))
		for name := range ns.Aliases {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			a.out.Namespaces = append(a.out.Namespaces, &pdb.Namespace{
				ID:    len(a.namespaceIDs) + len(a.out.Namespaces) + 1,
				Name:  name,
				Alias: ns.Aliases[name].QualifiedName(),
			})
		}
		for _, sub := range ns.Namespaces {
			walk(sub)
		}
	}
	walk(a.unit.Global)
}

func (a *Analyzer) emitMacros() {
	id := 1
	for _, rec := range a.unit.Macros {
		if rec.Loc.File == nil || len(rec.Loc.File.Name) == 0 || rec.Loc.File.Name[0] == '<' {
			continue // predefined/builtin macros are not user items
		}
		kind := "def"
		if rec.Kind == pp.Undef {
			kind = "undef"
		}
		a.out.Macros = append(a.out.Macros, &pdb.Macro{
			ID:   id,
			Name: rec.Name,
			Loc:  a.loc(rec.Loc),
			Kind: kind,
			Text: rec.Text,
		})
		id++
	}
}
