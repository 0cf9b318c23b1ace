package ductape

import (
	"io"
	"os"
	"sort"
	"sync"

	"pdt/internal/durable"
	"pdt/internal/pdb"
)

// PDB represents an entire program database file: it owns the resolved
// object graph and provides the global views of the paper's §3.3 — the
// source file inclusion tree, the static call tree, and the class
// hierarchy — plus lists of all items by kind.
type PDB struct {
	raw *pdb.PDB

	files      []*File
	routines   []*Routine
	classes    []*Class
	types      []*Type
	templates  []*Template
	namespaces []*Namespace
	macros     []*Macro

	fileByID      map[int]*File
	routineByID   map[int]*Routine
	classByIDm    map[int]*Class
	typeByIDm     map[int]*Type
	templateByIDm map[int]*Template
	namespByIDm   map[int]*Namespace
}

// parallelBuildThreshold is the item count above which FromRaw builds
// the per-kind indices concurrently. Small databases stay on the
// sequential path: goroutine hand-off costs more than the work saved.
const parallelBuildThreshold = 4096

// FromRaw wraps a parsed pdb.PDB into the navigable object graph.
func FromRaw(raw *pdb.PDB) *PDB {
	p := &PDB{
		raw:           raw,
		fileByID:      make(map[int]*File, len(raw.Files)),
		routineByID:   make(map[int]*Routine, len(raw.Routines)),
		classByIDm:    make(map[int]*Class, len(raw.Classes)),
		typeByIDm:     make(map[int]*Type, len(raw.Types)),
		templateByIDm: make(map[int]*Template, len(raw.Templates)),
		namespByIDm:   make(map[int]*Namespace, len(raw.Namespaces)),
	}
	// Files first: every other kind's loc() resolves through fileByID.
	p.files = make([]*File, len(raw.Files))
	for i, rf := range raw.Files {
		f := &File{p: p, raw: rf}
		p.files[i] = f
		p.fileByID[rf.ID] = f
	}
	// The remaining kinds only read fileByID and each writes its own
	// slice and map, so on large databases they build concurrently
	// without any locking.
	builders := []func(){
		func() {
			p.types = make([]*Type, len(raw.Types))
			for i, rt := range raw.Types {
				t := &Type{p: p, raw: rt}
				p.types[i] = t
				p.typeByIDm[rt.ID] = t
			}
		},
		func() {
			p.namespaces = make([]*Namespace, len(raw.Namespaces))
			for i, rn := range raw.Namespaces {
				n := &Namespace{p: p, raw: rn, loc: p.loc(rn.Loc)}
				p.namespaces[i] = n
				p.namespByIDm[rn.ID] = n
			}
		},
		func() {
			p.templates = make([]*Template, len(raw.Templates))
			for i, rt := range raw.Templates {
				t := &Template{p: p, raw: rt, loc: p.loc(rt.Loc), pos: p.pos(rt.Pos)}
				p.templates[i] = t
				p.templateByIDm[rt.ID] = t
			}
		},
		func() {
			p.classes = make([]*Class, len(raw.Classes))
			for i, rc := range raw.Classes {
				c := &Class{p: p, raw: rc, loc: p.loc(rc.Loc), pos: p.pos(rc.Pos)}
				p.classes[i] = c
				p.classByIDm[rc.ID] = c
			}
		},
		func() {
			p.routines = make([]*Routine, len(raw.Routines))
			for i, rr := range raw.Routines {
				r := &Routine{p: p, raw: rr, loc: p.loc(rr.Loc), pos: p.pos(rr.Pos)}
				p.routines[i] = r
				p.routineByID[rr.ID] = r
			}
		},
	}
	if raw.ItemCount() >= parallelBuildThreshold {
		var wg sync.WaitGroup
		for _, build := range builders {
			wg.Add(1)
			go func(build func()) {
				defer wg.Done()
				build()
			}(build)
		}
		wg.Wait()
	} else {
		for _, build := range builders {
			build()
		}
	}
	p.link()
	return p
}

// Read parses a PDB file and builds the object graph.
func Read(r io.Reader) (*PDB, error) {
	raw, err := pdb.Read(r)
	if err != nil {
		return nil, err
	}
	return FromRaw(raw), nil
}

// ReadFile reads a PDB from disk and builds the object graph. It is
// the canonical single-file constructor; tools that ingest many files,
// need cancellation, or want the chunked parallel parser should use
// internal/pdbio instead.
func ReadFile(path string) (*PDB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Write serializes the database in the ASCII text encoding.
func (p *PDB) Write(w io.Writer) error { return p.raw.Write(w) }

// WriteBinary serializes the database in the PDTB binary encoding.
func (p *PDB) WriteBinary(w io.Writer) error { return p.raw.WriteBinary(w) }

// Save writes the database to disk atomically and durably: the bytes
// are staged to a same-directory temp file and renamed over path only
// on an error-free commit, so a crash or full disk never leaves a
// torn database — path holds the old bytes or the new, never a
// prefix.
func (p *PDB) Save(path string) error {
	w, err := durable.Create(path)
	if err != nil {
		return err
	}
	if err := p.Write(w); err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

// Raw returns the underlying document model.
func (p *PDB) Raw() *pdb.PDB { return p.raw }

// link resolves cross-references into pointers and builds the derived
// and caller back-links.
func (p *PDB) link() {
	for _, f := range p.files {
		for _, inc := range f.raw.Includes {
			if target := p.fileByID[inc.ID]; target != nil {
				f.includes = append(f.includes, target)
				target.includedBy = append(target.includedBy, f)
			}
		}
	}
	for _, c := range p.classes {
		for _, b := range c.raw.Bases {
			base := p.classByIDm[b.Class.ID]
			c.bases = append(c.bases, Base{Class: base, Access: b.Access,
				Virtual: b.Virtual, Loc: p.loc(b.Loc)})
			if base != nil {
				base.derived = append(base.derived, c)
			}
		}
		for _, fr := range c.raw.Funcs {
			if r := p.routineByID[fr.Routine.ID]; r != nil {
				c.funcs = append(c.funcs, r)
			}
		}
		for _, m := range c.raw.Members {
			c.members = append(c.members, Member{Name: m.Name, Loc: p.loc(m.Loc),
				Access: m.Access, Kind: m.Kind, Type: p.typeByIDm[m.Type.ID],
				Static: m.Static})
		}
		if t := p.templateByIDm[c.raw.Template.ID]; t != nil {
			t.instClasses = append(t.instClasses, c)
		}
	}
	for _, r := range p.routines {
		for _, cs := range r.raw.Calls {
			callee := p.routineByID[cs.Callee.ID]
			if callee == nil {
				continue
			}
			r.callees = append(r.callees, &Call{p: p, callee: callee,
				virtual: cs.Virtual, loc: p.loc(cs.Loc)})
			callee.callers = append(callee.callers, r)
		}
		if t := p.templateByIDm[r.raw.Template.ID]; t != nil {
			t.instRoutines = append(t.instRoutines, r)
		}
	}
}

func (p *PDB) loc(l pdb.Loc) Location {
	if !l.Valid() {
		return Location{}
	}
	return Location{File: p.fileByID[l.File.ID], Line: l.Line, Col: l.Col}
}

func (p *PDB) pos(fp pdb.Pos) fourPos {
	return fourPos{
		hb: p.loc(fp.HeaderBegin), he: p.loc(fp.HeaderEnd),
		bb: p.loc(fp.BodyBegin), be: p.loc(fp.BodyEnd),
	}
}

func (p *PDB) typeByID(id int) *Type           { return p.typeByIDm[id] }
func (p *PDB) classByID(id int) *Class         { return p.classByIDm[id] }
func (p *PDB) templateByID(id int) *Template   { return p.templateByIDm[id] }
func (p *PDB) namespaceByID(id int) *Namespace { return p.namespByIDm[id] }

// --- item lists (the getXXXVec methods of the paper's PDB class) -----------

// Files returns all source files.
func (p *PDB) Files() []*File { return p.files }

// Routines returns all routines.
func (p *PDB) Routines() []*Routine { return p.routines }

// Classes returns all classes.
func (p *PDB) Classes() []*Class { return p.classes }

// Types returns all types.
func (p *PDB) Types() []*Type { return p.types }

// Templates returns all templates (the paper's getTemplateVec).
func (p *PDB) Templates() []*Template { return p.templates }

// Namespaces returns all namespaces.
func (p *PDB) Namespaces() []*Namespace { return p.namespaces }

// Macros returns all macros.
func (p *PDB) Macros() []*Macro {
	if p.macros == nil {
		for _, rm := range p.raw.Macros {
			p.macros = append(p.macros, &Macro{p: p, raw: rm, loc: p.loc(rm.Loc)})
		}
	}
	return p.macros
}

// Items returns every item in the database as SimpleItems.
func (p *PDB) Items() []SimpleItem {
	var out []SimpleItem
	for _, f := range p.files {
		out = append(out, f)
	}
	for _, t := range p.templates {
		out = append(out, t)
	}
	for _, r := range p.routines {
		out = append(out, r)
	}
	for _, c := range p.classes {
		out = append(out, c)
	}
	for _, t := range p.types {
		out = append(out, t)
	}
	for _, n := range p.namespaces {
		out = append(out, n)
	}
	for _, m := range p.Macros() {
		out = append(out, m)
	}
	return out
}

// TemplateItems returns every template-instantiable entity (class or
// routine) — the heterogeneous list the paper's internal base classes
// enable ("list<pdbTemplateItem> can store a list of all template
// instantiations").
func (p *PDB) TemplateItems() []TemplateItem {
	var out []TemplateItem
	for _, c := range p.classes {
		out = append(out, c)
	}
	for _, r := range p.routines {
		out = append(out, r)
	}
	return out
}

// LookupRoutine finds the first routine whose FullName or Name matches.
func (p *PDB) LookupRoutine(name string) *Routine {
	for _, r := range p.routines {
		if r.Name() == name || r.FullName() == name {
			return r
		}
	}
	return nil
}

// LookupClass finds a class by name or full name.
func (p *PDB) LookupClass(name string) *Class {
	for _, c := range p.classes {
		if c.Name() == name || c.FullName() == name {
			return c
		}
	}
	return nil
}

// LookupFile finds a source file by name.
func (p *PDB) LookupFile(name string) *File {
	for _, f := range p.files {
		if f.Name() == name {
			return f
		}
	}
	return nil
}

// --- global views (§3.3: inclusion tree, call tree, class hierarchy) -------

// RootFiles returns the files not included by any other file — the
// roots of the source file inclusion tree.
func (p *PDB) RootFiles() []*File {
	var out []*File
	for _, f := range p.files {
		if len(f.includedBy) == 0 {
			out = append(out, f)
		}
	}
	return out
}

// RootClasses returns the classes with no base classes — the roots of
// the class hierarchy.
func (p *PDB) RootClasses() []*Class {
	var out []*Class
	for _, c := range p.classes {
		if len(c.bases) == 0 {
			out = append(out, c)
		}
	}
	return out
}

// RootRoutines returns routines that have callees but no callers — the
// roots of the static call tree ("main" first when present).
func (p *PDB) RootRoutines() []*Routine {
	var out []*Routine
	for _, r := range p.routines {
		if len(r.callers) == 0 && len(r.callees) > 0 {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if (out[i].Name() == "main") != (out[j].Name() == "main") {
			return out[i].Name() == "main"
		}
		return out[i].ID() < out[j].ID()
	})
	return out
}

// ResetFlags clears all traversal flags.
func (p *PDB) ResetFlags() {
	for _, r := range p.routines {
		r.Flag = Inactive
	}
	for _, c := range p.classes {
		c.Flag = Inactive
	}
}
