package sema

import (
	"pdt/internal/cpp/ast"
	"pdt/internal/il"
	"pdt/internal/source"
)

// collectFunction lowers a namespace-scope function declaration or
// definition: free functions, free function templates, and out-of-line
// member definitions (both plain and templated).
func (s *Sema) collectFunction(fd *ast.FunctionDecl, access ast.Access, linkage string, friend bool) {
	if friend {
		if c := s.currentClass(); c != nil {
			c.Friends = append(c.Friends, il.Friend{Name: fd.Name.String(), Loc: fd.Name.Loc()})
		}
		// A friend definition also introduces a namespace-scope
		// function.
		if fd.Body == nil {
			return
		}
	}

	if fd.Template != nil && !fd.Template.IsSpecialization() {
		if len(fd.Name.Segs) > 1 {
			s.collectTemplateMemberDef(fd)
			return
		}
		s.collectFunctionTemplate(fd, access)
		return
	}

	if len(fd.Name.Segs) > 1 {
		s.collectOutOfLineDef(fd)
		return
	}

	// Plain free function: merge a prior declaration when this is the
	// definition.
	ns := s.currentNS()
	name := fd.Name.Terminal().Name
	if fd.Body != nil {
		for _, r := range ns.Routines {
			if r.Name == name && !r.HasBody && len(r.Params) == len(fd.Params) {
				r.Decl = fd
				r.HasBody = true
				r.Loc = fd.Name.Terminal().Loc
				r.Header = fd.Header
				r.BodySpan = fd.Body2
				s.queueBody(r)
				return
			}
		}
	}
	r := s.buildRoutine(fd, nil, ns, access, linkage, nil)
	if r.HasBody {
		s.queueBody(r)
	}
}

// collectFunctionTemplate registers a free function template.
func (s *Sema) collectFunctionTemplate(fd *ast.FunctionDecl, access ast.Access) {
	ns := s.currentNS()
	name := fd.Name.Terminal().Name
	// Merge declaration/definition pairs.
	if t := s.templateIn(ns, name, il.TemplFunc); t != nil {
		if fd.Body != nil && (t.FuncDecl == nil || t.FuncDecl.Body == nil) {
			t.FuncDecl = fd
			t.Text = fd.Template.Text
			t.Header = fd.Header
			t.Body = fd.Body2
		}
		return
	}
	t := &il.Template{
		Name: name, Kind: il.TemplFunc, Parent: ns, Access: access,
		Loc: fd.Name.Terminal().Loc, Header: fd.Header, Body: fd.Body2,
		Text: fd.Template.Text, Params: fd.Template.Params, FuncDecl: fd,
	}
	s.registerTemplate(t)
	s.unit.SuppLocs[t] = source.Span{Begin: fd.Header.Begin, End: fd.Body2.End}
}

// collectTemplateMemberDef records an out-of-line member definition of
// a class template ("template<class T> void Stack<T>::push(...)"),
// updating the corresponding member-template entity to point at the
// definition (as the EDG IL does — Figure 3's te#566).
func (s *Sema) collectTemplateMemberDef(fd *ast.FunctionDecl) {
	ownerSeg := fd.Name.Segs[len(fd.Name.Segs)-2]
	memberName := fd.Name.Terminal().Name
	tmpl := s.lookupTemplateByName(ownerSeg.Name)
	if tmpl == nil {
		s.errorf(ownerSeg.Loc, "out-of-line member of unknown class template %s", ownerSeg.Name)
		return
	}
	defs := s.memberDefs[tmpl]
	if defs == nil {
		defs = map[string][]*ast.FunctionDecl{}
		s.memberDefs[tmpl] = defs
	}
	defs[memberName] = append(defs[memberName], fd)

	mt := s.lookupMemberTemplate(tmpl, memberName)
	if mt == nil {
		kind := il.TemplMemFunc
		if fd.Storage == ast.Static {
			kind = il.TemplStatMem
		}
		mt = &il.Template{Name: memberName, Kind: kind, Parent: tmpl.Parent,
			Params: fd.Template.Params, FuncDecl: fd}
		s.registerTemplate(mt)
		s.memberTemplate(tmpl, memberName, mt)
	}
	mt.Loc = fd.Name.Terminal().Loc
	mt.Header = fd.Header
	mt.Body = fd.Body2
	mt.Text = fd.Template.Text
	mt.FuncDecl = fd
	s.unit.SuppLocs[mt] = source.Span{Begin: fd.Header.Begin, End: fd.Body2.End}
}

// collectOutOfLineDef attaches "bool Stack::isFull() const { ... }"
// (non-template) to its class method or namespace routine.
func (s *Sema) collectOutOfLineDef(fd *ast.FunctionDecl) {
	prefix := fd.Name
	prefix.Segs = prefix.Segs[:len(prefix.Segs)-1]
	memberName := fd.Name.Terminal().Name

	// Try a class first (including instantiations/specializations named
	// with template-ids, e.g. "Stack<int>::push").
	clsName := prefix.String()
	if c := s.unit.LookupClass(clsName); c != nil {
		for _, m := range c.Methods {
			if m.Name == memberName && len(m.Params) == paramCount(fd) && m.Const == fd.Const {
				s.attachDefinition(m, fd)
				return
			}
		}
		// Arity-relaxed second pass (default arguments).
		for _, m := range c.Methods {
			if m.Name == memberName {
				s.attachDefinition(m, fd)
				return
			}
		}
		s.errorf(fd.Name.Loc(), "no member %s declared in %s", memberName, clsName)
		return
	}
	// Then a namespace-qualified free function.
	if ns := s.lookupNamespace(prefix); ns != nil {
		for _, r := range ns.Routines {
			if r.Name == memberName && len(r.Params) == paramCount(fd) {
				s.attachDefinition(r, fd)
				return
			}
		}
		s.nsStack = append(s.nsStack, ns)
		r := s.buildRoutine(fd, nil, ns, ast.NoAccess, "C++", nil)
		s.nsStack = s.nsStack[:len(s.nsStack)-1]
		if r.HasBody {
			s.queueBody(r)
		}
		return
	}
	s.errorf(fd.Name.Loc(), "cannot resolve qualified definition %s", fd.Name.String())
}

func paramCount(fd *ast.FunctionDecl) int {
	n := 0
	for _, p := range fd.Params {
		if !p.Ellipsis {
			n++
		}
	}
	return n
}

// attachDefinition merges an out-of-line definition into a declared
// routine: the routine's reported location moves to the definition, as
// in the paper's Figure 3 (ro#7 push located at StackAr.cpp).
func (s *Sema) attachDefinition(r *il.Routine, fd *ast.FunctionDecl) {
	if fd.Body == nil {
		return
	}
	r.Decl = fd
	r.HasBody = true
	r.Loc = fd.Name.Terminal().Loc
	r.Header = fd.Header
	r.BodySpan = fd.Body2
	s.queueBody(r)
}

// buildRoutine creates an il.Routine from a declaration, resolving its
// signature under bindings b. It registers the routine with its class
// or namespace and the unit.
func (s *Sema) buildRoutine(fd *ast.FunctionDecl, c *il.Class, ns *il.Namespace, access ast.Access, linkage string, b bindings) *il.Routine {
	tt := s.unit.Types
	r := &il.Routine{
		Name: fd.Name.Terminal().Name, Kind: fd.Kind, Class: c,
		Namespace: ns, Access: access,
		Loc:    fd.Name.Terminal().Loc,
		Header: fd.Header, BodySpan: fd.Body2,
		Virtual: fd.Virtual, PureVirtual: fd.PureVirtual,
		Static: fd.Storage == ast.Static, Inline: fd.Inline,
		Const: fd.Const, Explicit: fd.Explicit,
		Linkage: linkage, Storage: fd.Storage,
		Decl: fd, HasBody: fd.Body != nil && (c == nil || !c.IsInstantiation),
		Bindings: b,
	}
	if c != nil && c.IsInstantiation {
		r.IsInstantiation = true
		if c.Origin != nil {
			r.Origin = s.lookupMemberTemplate(c.Origin, r.Name)
		}
	}

	// Return type: constructors/destructors have none; conversions
	// return their target type.
	var ret *il.Type
	switch fd.Kind {
	case ast.Constructor, ast.Destructor:
		ret = tt.Builtin(il.TVoid)
	default:
		if fd.Ret != nil {
			ret = s.resolveType(fd.Ret, b)
		} else {
			ret = tt.Builtin(il.TInt) // implicit int (pre-standard tolerance)
		}
	}
	r.Ret = ret

	var paramTypes []*il.Type
	variadic := false
	for _, p := range fd.Params {
		if p.Ellipsis {
			variadic = true
			continue
		}
		pt := s.resolveType(p.Type, b)
		paramTypes = append(paramTypes, pt)
		r.Params = append(r.Params, &il.Var{Name: p.Name, Type: pt,
			Loc: p.NameLoc, Default: p.Default, Kind: "param"})
	}
	r.Signature = tt.Func(ret, paramTypes, variadic, fd.Const)

	// A method overriding a virtual base method is itself virtual.
	if c != nil && !r.Virtual {
		for _, base := range c.AllBases(nil) {
			for _, m := range base.Methods {
				if m.Name == r.Name && m.Virtual && len(m.Params) == len(r.Params) {
					r.Virtual = true
				}
			}
		}
	}

	if c != nil {
		c.Methods = append(c.Methods, r)
	} else if ns != nil {
		ns.Routines = append(ns.Routines, r)
	}
	s.unit.AddRoutine(r)
	return r
}

// resolveClassBody lowers the members of a class definition (plain,
// specialization, or instantiation under bindings b).
func (s *Sema) resolveClassBody(c *il.Class, d *ast.ClassDecl, b bindings) {
	// Bases.
	for _, base := range d.Bases {
		bt := s.resolveNamedType(base.Name, b, nil)
		u := bt.Unqualified()
		if u.Kind != il.TClass || u.Class == nil {
			s.errorf(base.Name.Loc(), "base %s of %s is not a class",
				base.Name.String(), c.Name)
			continue
		}
		if !u.Class.Complete {
			s.errorf(base.Name.Loc(), "base class %s is incomplete", u.Class.Name)
		}
		c.Bases = append(c.Bases, il.Base{Class: u.Class, Access: base.Access,
			Virtual: base.Virtual, Loc: base.Name.Loc()})
	}

	s.classStack = append(s.classStack, c)
	defer func() { s.classStack = s.classStack[:len(s.classStack)-1] }()

	for _, m := range d.Members {
		switch md := m.Decl.(type) {
		case *ast.FunctionDecl:
			if m.Friend {
				c.Friends = append(c.Friends, il.Friend{Name: md.Name.String(), Loc: md.Name.Loc()})
				continue
			}
			if md.Template != nil && !md.Template.IsSpecialization() {
				// Member function template of a plain class.
				kind := il.TemplMemFunc
				if md.Storage == ast.Static {
					kind = il.TemplStatMem
				}
				t := &il.Template{Name: md.Name.Terminal().Name, Kind: kind,
					Parent: c, Access: m.Access, Loc: md.Name.Terminal().Loc,
					Header: md.Header, Body: md.Body2,
					Text: md.Template.Text, Params: md.Template.Params, FuncDecl: md}
				s.registerTemplate(t)
				continue
			}
			r := s.buildRoutine(md, c, nil, m.Access, "C++", b)
			if !c.IsInstantiation && r.HasBody {
				s.queueBody(r)
			}
		case *ast.VarDecl:
			s.addDataMember(c, md, m.Access, b)
		case *ast.DeclGroup:
			for _, inner := range md.Decls {
				if vd, ok := inner.(*ast.VarDecl); ok {
					s.addDataMember(c, vd, m.Access, b)
				}
			}
		case *ast.EnumDecl:
			s.collectEnum(md, m.Access)
		case *ast.TypedefDecl:
			s.collectTypedefIn(c, md, m.Access, b)
		case *ast.ClassDecl:
			if m.Friend {
				c.Friends = append(c.Friends, il.Friend{Name: md.Name, Loc: md.NameLoc})
				continue
			}
			if b != nil {
				s.errorf(md.NameLoc, "nested classes inside class templates are not supported")
				continue
			}
			s.collectClass(md, m.Access, false)
		case *ast.UsingDecl:
			// no lowering needed
		}
	}
}

func (s *Sema) addDataMember(c *il.Class, vd *ast.VarDecl, access ast.Access, b bindings) {
	if vd.Name == "" {
		return
	}
	ty := s.resolveType(vd.Type, b)
	v := &il.Var{Name: vd.Name, Type: ty, Loc: vd.NameLoc, Access: access,
		Storage: vd.Storage, Class: c, Init: vd.Init, Kind: "var"}
	c.Members = append(c.Members, v)
	s.unit.AllVars = append(s.unit.AllVars, v)
}

func (s *Sema) collectTypedefIn(c *il.Class, d *ast.TypedefDecl, access ast.Access, b bindings) {
	ty := s.resolveType(d.Type, b)
	td := &il.Typedef{Name: d.Name, Type: ty, Parent: c, Access: access, Loc: d.NameLoc}
	c.Typedefs = append(c.Typedefs, td)
	s.unit.AllTypedefs = append(s.unit.AllTypedefs, td)
}
