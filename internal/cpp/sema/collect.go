package sema

import (
	"strings"

	"pdt/internal/cpp/ast"
	"pdt/internal/il"
	"pdt/internal/source"
)

// collectDecls walks a declaration list, building IL entities.
func (s *Sema) collectDecls(decls []ast.Decl, access ast.Access) {
	for _, d := range decls {
		s.collectDecl(d, access, false)
	}
}

func (s *Sema) collectDecl(d ast.Decl, access ast.Access, friend bool) {
	switch d := d.(type) {
	case *ast.NamespaceDecl:
		s.collectNamespace(d)
	case *ast.UsingDirective:
		if ns := s.lookupNamespace(d.Namespace); ns != nil {
			s.usingNS = append(s.usingNS, ns)
		}
	case *ast.UsingDecl:
		// Using-declarations are recorded but need no lowering in the
		// subset: lookups already search enclosing scopes.
	case *ast.LinkageSpec:
		for _, inner := range d.Decls {
			s.collectLinkageDecl(inner, d.Lang)
		}
	case *ast.ClassDecl:
		s.collectClass(d, access, friend)
	case *ast.EnumDecl:
		s.collectEnum(d, access)
	case *ast.TypedefDecl:
		s.collectTypedef(d, access)
	case *ast.VarDecl:
		s.collectVar(d, access)
	case *ast.DeclGroup:
		for _, inner := range d.Decls {
			s.collectDecl(inner, access, friend)
		}
	case *ast.FunctionDecl:
		s.collectFunction(d, access, "C++", friend)
	case *ast.ExplicitInstantiation:
		s.collectExplicitInstantiation(d)
	case *ast.BadDecl:
		// already diagnosed by the parser
	}
}

func (s *Sema) collectLinkageDecl(d ast.Decl, lang string) {
	if fd, ok := d.(*ast.FunctionDecl); ok {
		s.collectFunction(fd, ast.NoAccess, lang, false)
		return
	}
	s.collectDecl(d, ast.NoAccess, false)
}

func (s *Sema) collectNamespace(d *ast.NamespaceDecl) {
	parent := s.currentNS()
	if d.Alias != nil {
		if target := s.lookupNamespace(*d.Alias); target != nil {
			parent.Aliases[d.Name] = target
		} else {
			s.errorf(d.NameLoc, "unknown namespace %s in alias", d.Alias.String())
		}
		return
	}
	var ns *il.Namespace
	for _, existing := range parent.Namespaces {
		if existing.Name == d.Name {
			ns = existing // reopened namespace
			break
		}
	}
	if ns == nil {
		ns = &il.Namespace{Name: d.Name, Parent: parent, Loc: d.NameLoc,
			Aliases: map[string]*il.Namespace{}}
		parent.Namespaces = append(parent.Namespaces, ns)
	}
	s.nsStack = append(s.nsStack, ns)
	s.collectDecls(d.Decls, ast.NoAccess)
	s.nsStack = s.nsStack[:len(s.nsStack)-1]
}

// collectClass lowers a class declaration: plain classes are resolved
// fully; templated classes are registered as il.Template entities and
// resolved only at instantiation; explicit specializations are resolved
// fully and registered with their template.
func (s *Sema) collectClass(d *ast.ClassDecl, access ast.Access, friend bool) {
	if friend && !d.IsDefinition {
		// "friend class X;" — record on the enclosing class only.
		if c := s.currentClass(); c != nil {
			c.Friends = append(c.Friends, il.Friend{Name: d.Name, Loc: d.NameLoc})
		}
		return
	}
	switch {
	case d.Template != nil && !d.Template.IsSpecialization():
		s.collectClassTemplate(d, access)
	case d.Template != nil && d.Template.IsSpecialization():
		s.collectClassSpecialization(d, access)
	default:
		s.collectPlainClass(d, access)
	}
}

// collectPlainClass resolves a non-template class definition (or
// forward declaration) immediately.
func (s *Sema) collectPlainClass(d *ast.ClassDecl, access ast.Access) *il.Class {
	scope := s.currentScope()
	// Merge with a forward declaration if present.
	c := s.findClassInScope(scope, d.Name)
	if c == nil {
		c = &il.Class{Name: d.Name, Kind: d.Kind, Parent: scope,
			Access: access, Loc: d.NameLoc, Decl: d}
		s.registerClass(c)
	}
	c.Header = d.Header
	if !d.IsDefinition {
		return c
	}
	if c.Complete {
		s.errorf(d.NameLoc, "redefinition of class %s", d.Name)
		return c
	}
	c.Body = d.Body
	c.Complete = true
	c.Decl = d
	s.resolveClassBody(c, d, nil)
	return c
}

// registerClass attaches c to its scope and the flat index.
func (s *Sema) registerClass(c *il.Class) {
	switch p := c.Parent.(type) {
	case *il.Namespace:
		p.Classes = append(p.Classes, c)
	case *il.Class:
		p.Nested = append(p.Nested, c)
	}
	s.unit.AllClasses = append(s.unit.AllClasses, c)
}

func (s *Sema) findClassInScope(scope il.Scope, name string) *il.Class {
	switch p := scope.(type) {
	case *il.Namespace:
		for _, c := range p.Classes {
			if c.Name == name {
				return c
			}
		}
	case *il.Class:
		for _, c := range p.Nested {
			if c.Name == name {
				return c
			}
		}
	}
	return nil
}

// collectClassTemplate registers a class template; its body is kept as
// AST and instantiated on demand. Member-function templates get their
// own il.Template entities (PDB tkind memfunc / statmem), as in the
// paper's Figure 3 (te#566 push).
func (s *Sema) collectClassTemplate(d *ast.ClassDecl, access ast.Access) {
	scope := s.currentScope()
	t := &il.Template{
		Name: d.Name, Kind: il.TemplClass, Parent: scope, Access: access,
		Loc: d.NameLoc, Header: d.Header, Body: d.Body,
		Text: d.Template.Text, Params: d.Template.Params, ClassDecl: d,
	}
	s.registerTemplate(t)
	s.unit.SuppLocs[t] = source.Span{Begin: d.Header.Begin, End: d.Body.End}

	// Create member-function template entities for every function
	// member declared in the class body.
	for _, m := range d.Members {
		fd, ok := m.Decl.(*ast.FunctionDecl)
		if !ok || m.Friend {
			continue
		}
		kind := il.TemplMemFunc
		if fd.Storage == ast.Static {
			kind = il.TemplStatMem
		}
		mt := &il.Template{
			Name: fd.Name.Terminal().Name, Kind: kind, Parent: scope,
			Access: m.Access, Loc: fd.Name.Terminal().Loc,
			Header: fd.Header, Body: fd.Body2,
			Params: d.Template.Params, FuncDecl: fd,
		}
		s.registerTemplate(mt)
		s.memberTemplate(t, mt.Name, mt)
	}
}

// memberTemplates maps (class template, member name) → member template.
// Stored lazily in a side map.
var _ = 0 // (placeholder to keep section comment attached)

func (s *Sema) memberTemplate(classT *il.Template, name string, mt *il.Template) {
	if s.memberTemplates == nil {
		s.memberTemplates = map[*il.Template]map[string]*il.Template{}
	}
	m := s.memberTemplates[classT]
	if m == nil {
		m = map[string]*il.Template{}
		s.memberTemplates[classT] = m
	}
	m[name] = mt
}

func (s *Sema) lookupMemberTemplate(classT *il.Template, name string) *il.Template {
	if m, ok := s.memberTemplates[classT]; ok {
		return m[name]
	}
	return nil
}

// registerTemplate adds t to its scope's and the unit's template lists
// and indexes it if it is the first of its name and kind in either.
func (s *Sema) registerTemplate(t *il.Template) {
	switch p := t.Parent.(type) {
	case *il.Namespace:
		p.Templates = append(p.Templates, t)
		s.indexTemplate(p, t)
	case *il.Class:
		p.Templates = append(p.Templates, t)
		s.indexTemplate(p, t)
	}
	s.unit.AllTemplates = append(s.unit.AllTemplates, t)
	s.indexTemplate(nil, t)
}

// templateKey names the templates of one name and kind in one scope; a
// nil scope stands for the whole unit.
type templateKey struct {
	scope il.Scope
	name  string
	kind  il.TemplateKind
}

func (s *Sema) indexTemplate(scope il.Scope, t *il.Template) {
	k := templateKey{scope, t.Name, t.Kind}
	if _, ok := s.firstTemplate[k]; !ok {
		s.firstTemplate[k] = t
	}
}

// templateIn returns the first template registered in scope (nil: in
// the unit) with the given name and kind: what a walk of that scope's
// template list would find.
func (s *Sema) templateIn(scope il.Scope, name string, kind il.TemplateKind) *il.Template {
	return s.firstTemplate[templateKey{scope, name, kind}]
}

// collectClassSpecialization resolves "template<> class Stack<int>"
// fully and registers it both as a class and with its template.
func (s *Sema) collectClassSpecialization(d *ast.ClassDecl, access ast.Access) {
	tmpl := s.lookupTemplateByName(d.Name)
	if tmpl == nil {
		s.errorf(d.NameLoc, "specialization of unknown template %s", d.Name)
		return
	}
	args := s.resolveTemplateArgs(d.SpecArgs, nil)
	name := instantiatedName(d.Name, args)
	c := &il.Class{Name: name, Kind: d.Kind, Parent: tmpl.Parent,
		Access: access, Loc: d.NameLoc, Header: d.Header, Body: d.Body,
		Complete: d.IsDefinition, IsSpecialization: true, Decl: d,
		Args: args,
		// Origin intentionally recorded (the paper's proposed front-end
		// modification); the analyzer's default scan mode cannot see it.
		Origin: tmpl,
	}
	s.registerClass(c)
	tmpl.Specs = append(tmpl.Specs, &il.TemplateSpec{Args: args, Class: c})
	s.classInsts[qualifiedKey(tmpl, name)] = c
	if d.IsDefinition {
		s.resolveClassBody(c, d, nil)
	}
}

// collectEnum lowers an enumeration, evaluating enumerator values.
func (s *Sema) collectEnum(d *ast.EnumDecl, access ast.Access) {
	scope := s.currentScope()
	e := &il.Enum{Name: d.Name, Parent: scope, Access: access, Loc: d.NameLoc}
	next := int64(0)
	for _, en := range d.Enumerators {
		if en.Value != nil {
			if v, ok := s.evalConst(en.Value, nil); ok {
				next = v
			} else {
				s.errorf(en.Loc, "enumerator %s value is not a constant expression", en.Name)
			}
		}
		e.Values = append(e.Values, il.EnumValue{Name: en.Name, Value: next, Loc: en.Loc})
		s.enumConsts[en.Name] = next
		next++
	}
	switch p := scope.(type) {
	case *il.Namespace:
		p.Enums = append(p.Enums, e)
	case *il.Class:
		p.Enums = append(p.Enums, e)
	}
	s.unit.AllEnums = append(s.unit.AllEnums, e)
}

func (s *Sema) collectTypedef(d *ast.TypedefDecl, access ast.Access) {
	scope := s.currentScope()
	ty := s.resolveType(d.Type, nil)
	td := &il.Typedef{Name: d.Name, Type: ty, Parent: scope, Access: access, Loc: d.NameLoc}
	switch p := scope.(type) {
	case *il.Namespace:
		p.Typedefs = append(p.Typedefs, td)
	case *il.Class:
		p.Typedefs = append(p.Typedefs, td)
	}
	s.unit.AllTypedefs = append(s.unit.AllTypedefs, td)
}

func (s *Sema) collectVar(d *ast.VarDecl, access ast.Access) {
	if d.Name == "" {
		return
	}
	// Out-of-line static member definition "C::count".
	if strings.Contains(d.Name, "::") {
		s.attachStaticMemberDef(d)
		return
	}
	scope := s.currentScope()
	ty := s.resolveType(d.Type, nil)
	v := &il.Var{Name: d.Name, Type: ty, Loc: d.NameLoc, Access: access,
		Storage: d.Storage, Init: d.Init, Kind: "var"}
	switch p := scope.(type) {
	case *il.Namespace:
		p.Vars = append(p.Vars, v)
	case *il.Class:
		v.Class = p
		p.Members = append(p.Members, v)
	}
	s.unit.AllVars = append(s.unit.AllVars, v)
}

func (s *Sema) attachStaticMemberDef(d *ast.VarDecl) {
	parts := strings.Split(d.Name, "::")
	clsName := strings.Join(parts[:len(parts)-1], "::")
	member := parts[len(parts)-1]
	if c := s.unit.LookupClass(clsName); c != nil {
		if v := c.FindMember(member); v != nil {
			v.Init = d.Init
			return
		}
	}
	// Template static member definitions attach at instantiation time.
}

// collectExplicitInstantiation handles "template class Stack<int>;" by
// instantiating the class and, per the standard, all of its members.
func (s *Sema) collectExplicitInstantiation(d *ast.ExplicitInstantiation) {
	nt, ok := d.Type.(*ast.NamedType)
	if !ok {
		s.errorf(d.Pos.Begin, "explicit instantiation requires a template-id")
		return
	}
	ty := s.resolveType(nt, nil)
	cls := ty.Unqualified()
	if cls.Kind != il.TClass || cls.Class == nil {
		s.errorf(d.Pos.Begin, "explicit instantiation of non-class %s", nt.Name.String())
		return
	}
	// Explicit instantiation forces every member.
	for _, m := range cls.Class.Methods {
		s.useRoutine(m)
	}
	s.drainPending()
}
