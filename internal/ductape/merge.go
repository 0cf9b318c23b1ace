package ductape

import (
	"fmt"

	"pdt/internal/pdb"
)

// Merge combines several program databases into one, eliminating
// duplicate template instantiations (and other entities compiled into
// more than one translation unit) in the process — the semantics of the
// paper's pdbmerge utility (Table 2).
//
// Matching keys: files by name; types by canonical spelling; templates
// by (name, kind, location); classes by full name; routines by
// (owner, name, signature spelling); namespaces by qualified name;
// macros by (name, kind, location). IDs are renumbered densely in the
// merged output.
func Merge(dbs ...*PDB) *PDB {
	m := newMerger()
	for _, db := range dbs {
		m.add(db)
	}
	return FromRaw(m.out)
}

type merger struct {
	out *pdb.PDB

	nextFile, nextType, nextTemplate          int
	nextClass, nextRoutine, nextNS, nextMacro int

	fileKeys, typeKeys, templateKeys, classKeys map[string]int
	routineKeys, nsKeys, macroKeys              map[string]int
}

func newMerger() *merger {
	return &merger{
		out:      &pdb.PDB{},
		fileKeys: map[string]int{}, typeKeys: map[string]int{},
		templateKeys: map[string]int{}, classKeys: map[string]int{},
		routineKeys: map[string]int{}, nsKeys: map[string]int{},
		macroKeys: map[string]int{},
	}
}

// idMap carries per-source-db ID remappings.
type idMap struct {
	file, typ, template, class, routine, ns map[int]int
}

func (m *merger) add(db *PDB) {
	ids := idMap{
		file: make(map[int]int, len(db.files)), typ: make(map[int]int, len(db.types)),
		template: make(map[int]int, len(db.templates)), class: make(map[int]int, len(db.classes)),
		routine: make(map[int]int, len(db.routines)), ns: make(map[int]int, len(db.namespaces)),
	}

	// Pass 1: assign merged IDs for every item (matching or fresh).
	for _, f := range db.files {
		key := f.Name()
		id, ok := m.fileKeys[key]
		if !ok {
			m.nextFile++
			id = m.nextFile
			m.fileKeys[key] = id
			m.out.Files = append(m.out.Files, &pdb.SourceFile{
				ID: id, Name: f.raw.Name, System: f.raw.System})
		}
		ids.file[f.ID()] = id
	}
	for _, t := range db.types {
		key := t.raw.Kind + "|" + t.Name()
		id, ok := m.typeKeys[key]
		if !ok {
			m.nextType++
			id = m.nextType
			m.typeKeys[key] = id
			cp := *t.raw
			cp.ID = id
			m.out.Types = append(m.out.Types, &cp)
		}
		ids.typ[t.ID()] = id
	}
	for _, n := range db.namespaces {
		key := namespaceFullName(n)
		id, ok := m.nsKeys[key]
		if !ok {
			m.nextNS++
			id = m.nextNS
			m.nsKeys[key] = id
			cp := *n.raw
			cp.ID = id
			m.out.Namespaces = append(m.out.Namespaces, &cp)
		}
		ids.ns[n.ID()] = id
	}
	for _, t := range db.templates {
		key := fmt.Sprintf("%s|%s|%s", t.raw.Kind, t.Name(), t.Location())
		id, ok := m.templateKeys[key]
		if !ok {
			m.nextTemplate++
			id = m.nextTemplate
			m.templateKeys[key] = id
			cp := *t.raw
			cp.ID = id
			m.out.Templates = append(m.out.Templates, &cp)
		}
		ids.template[t.ID()] = id
	}
	for _, c := range db.classes {
		key := c.FullName()
		id, ok := m.classKeys[key]
		if !ok {
			m.nextClass++
			id = m.nextClass
			m.classKeys[key] = id
			cp := *c.raw
			cp.ID = id
			m.out.Classes = append(m.out.Classes, &cp)
		}
		ids.class[c.ID()] = id
	}
	for _, r := range db.routines {
		key := routineKey(r)
		id, ok := m.routineKeys[key]
		if !ok {
			m.nextRoutine++
			id = m.nextRoutine
			m.routineKeys[key] = id
			cp := *r.raw
			cp.ID = id
			m.out.Routines = append(m.out.Routines, &cp)
		}
		ids.routine[r.ID()] = id
	}
	for _, mc := range db.Macros() {
		key := fmt.Sprintf("%s|%s|%s", mc.Kind(), mc.Name(), mc.Location())
		if _, ok := m.macroKeys[key]; !ok {
			m.nextMacro++
			m.macroKeys[key] = m.nextMacro
			cp := *mc.raw
			cp.ID = m.nextMacro
			// Remap the location here (macros have no pass-2 rewrite):
			// a stale file ref would point into the source db's ID space
			// and corrupt the dedup key of any subsequent merge.
			cp.Loc = remapLocFiles(cp.Loc, ids.file)
			m.out.Macros = append(m.out.Macros, &cp)
		}
	}

	// Pass 2: rewrite the references of the items newly copied from
	// this db. (Matched duplicates keep the references of their first
	// appearance; the merge prefers richer items, so when the incoming
	// duplicate has a body/calls and the existing one does not, it
	// replaces the payload.)
	m.rewriteRefs(db, ids)
}

func routineKey(r *Routine) string {
	owner := ""
	if c := r.ParentClass(); c != nil {
		owner = "cl:" + c.FullName()
	} else if n := r.ParentNamespace(); n != nil {
		owner = "na:" + namespaceFullName(n)
	}
	sig := ""
	if s := r.Signature(); s != nil {
		sig = s.Name()
	}
	return owner + "|" + r.Name() + "|" + sig
}

// remapRef rewrites one reference through a per-source-db ID table.
func remapRef(ref pdb.Ref, table map[int]int) pdb.Ref {
	if !ref.Valid() {
		return pdb.Ref{}
	}
	if nid, ok := table[ref.ID]; ok {
		return pdb.Ref{Prefix: ref.Prefix, ID: nid}
	}
	return pdb.Ref{}
}

// remapLocFiles is the file-reference rewrite shared by pass 1
// (macros) and pass 2 (everything else).
func remapLocFiles(l pdb.Loc, files map[int]int) pdb.Loc {
	if !l.Valid() {
		return pdb.Loc{}
	}
	return pdb.Loc{File: remapRef(l.File, files), Line: l.Line, Col: l.Col}
}

// rewriteRefs resolves each copied item by indexing the output slice
// directly: merged IDs are dense, start at 1, and are assigned in
// append order, so the item with merged ID id sits at index id-1.
func (m *merger) rewriteRefs(db *PDB, ids idMap) {
	remapLoc := func(l pdb.Loc) pdb.Loc { return remapLocFiles(l, ids.file) }
	remapPos := func(p pdb.Pos) pdb.Pos {
		return pdb.Pos{
			HeaderBegin: remapLoc(p.HeaderBegin), HeaderEnd: remapLoc(p.HeaderEnd),
			BodyBegin: remapLoc(p.BodyBegin), BodyEnd: remapLoc(p.BodyEnd),
		}
	}

	for _, f := range db.files {
		dst := m.out.Files[ids.file[f.ID()]-1]
		if len(dst.Includes) > 0 {
			continue // already populated by a previous unit
		}
		for _, inc := range f.raw.Includes {
			dst.Includes = append(dst.Includes, remapRef(inc, ids.file))
		}
	}
	for _, t := range db.types {
		dst := m.out.Types[ids.typ[t.ID()]-1]
		if dst.Elem.Valid() || dst.Ret.Valid() || dst.Tref.Valid() ||
			dst.Class.Valid() || len(dst.Args) > 0 {
			// References already rewritten for this merged type.
			if dst.Elem.ID != 0 || dst.Ret.ID != 0 {
				continue
			}
		}
		dst.Elem = remapRef(t.raw.Elem, ids.typ)
		dst.Tref = remapRef(t.raw.Tref, ids.typ)
		dst.Class = remapRef(t.raw.Class, ids.class)
		dst.Enum = t.raw.Enum
		dst.Ret = remapRef(t.raw.Ret, ids.typ)
		dst.Args = nil
		for _, a := range t.raw.Args {
			dst.Args = append(dst.Args, remapRef(a, ids.typ))
		}
	}
	for _, n := range db.namespaces {
		dst := m.out.Namespaces[ids.ns[n.ID()]-1]
		dst.Parent = remapRef(n.raw.Parent, ids.ns)
		dst.Loc = remapLoc(n.raw.Loc)
		// Union the member lists.
		seen := map[string]bool{}
		for _, mem := range dst.Members {
			seen[mem] = true
		}
		for _, mem := range n.raw.Members {
			if !seen[mem] {
				dst.Members = append(dst.Members, mem)
				seen[mem] = true
			}
		}
	}
	for _, t := range db.templates {
		dst := m.out.Templates[ids.template[t.ID()]-1]
		dst.Loc = remapLoc(t.raw.Loc)
		dst.Class = remapRef(t.raw.Class, ids.class)
		dst.Namespace = remapRef(t.raw.Namespace, ids.ns)
		dst.Pos = remapPos(t.raw.Pos)
	}
	for _, c := range db.classes {
		dst := m.out.Classes[ids.class[c.ID()]-1]
		richer := len(c.raw.Funcs) >= len(dst.Funcs)
		if !richer {
			continue
		}
		dst.Loc = remapLoc(c.raw.Loc)
		dst.Parent = remapRef(c.raw.Parent, ids.class)
		dst.Namespace = remapRef(c.raw.Namespace, ids.ns)
		dst.Template = remapRef(c.raw.Template, ids.template)
		dst.Pos = remapPos(c.raw.Pos)
		dst.Bases = nil
		for _, b := range c.raw.Bases {
			dst.Bases = append(dst.Bases, pdb.BaseClass{Access: b.Access,
				Virtual: b.Virtual, Class: remapRef(b.Class, ids.class),
				Loc: remapLoc(b.Loc)})
		}
		dst.Friends = c.raw.Friends
		dst.Funcs = nil
		for _, fr := range c.raw.Funcs {
			dst.Funcs = append(dst.Funcs, pdb.FuncRef{
				Routine: remapRef(fr.Routine, ids.routine), Loc: remapLoc(fr.Loc)})
		}
		dst.Members = nil
		for _, mem := range c.raw.Members {
			cp := mem
			cp.Loc = remapLoc(mem.Loc)
			cp.Type = remapRef(mem.Type, ids.typ)
			dst.Members = append(dst.Members, cp)
		}
	}
	for _, r := range db.routines {
		dst := m.out.Routines[ids.routine[r.ID()]-1]
		// Prefer the definition (with body and calls) over a bare
		// declaration when units disagree.
		richer := r.raw.Pos.BodyBegin.Valid() || len(r.raw.Calls) >= len(dst.Calls)
		if dst.Pos.BodyBegin.Valid() && !r.raw.Pos.BodyBegin.Valid() {
			richer = false
		}
		if !richer {
			continue
		}
		dst.Loc = remapLoc(r.raw.Loc)
		dst.Class = remapRef(r.raw.Class, ids.class)
		dst.Namespace = remapRef(r.raw.Namespace, ids.ns)
		dst.Signature = remapRef(r.raw.Signature, ids.typ)
		dst.Template = remapRef(r.raw.Template, ids.template)
		dst.Pos = remapPos(r.raw.Pos)
		dst.Calls = nil
		for _, cs := range r.raw.Calls {
			dst.Calls = append(dst.Calls, pdb.Call{
				Callee:  remapRef(cs.Callee, ids.routine),
				Virtual: cs.Virtual,
				Loc:     remapLoc(cs.Loc),
			})
		}
	}
}
