package sema

import (
	"pdt/internal/cpp/ast"
	"pdt/internal/il"
)

// bindings map template parameter names to bound argument values while
// resolving inside an instantiation.
type bindings = map[string]il.TemplateArgValue

// resolveType lowers a syntactic type to an interned IL type.
func (s *Sema) resolveType(te ast.TypeExpr, b bindings) *il.Type {
	tt := s.unit.Types
	switch te := te.(type) {
	case nil:
		return tt.Builtin(il.TError)
	case *ast.BuiltinType:
		return tt.Builtin(builtinKind(te.Spec))
	case *ast.ConstType:
		return tt.ConstOf(s.resolveType(te.Elem, b))
	case *ast.VolatileType:
		inner := s.resolveType(te.Elem, b)
		if inner.Kind == il.TTref {
			return tt.Intern(&il.Type{Kind: il.TTref, Elem: inner.Elem, Const: inner.Const, Volatile: true})
		}
		return tt.Intern(&il.Type{Kind: il.TTref, Elem: inner, Volatile: true})
	case *ast.PointerType:
		return tt.PtrTo(s.resolveType(te.Elem, b))
	case *ast.RefType:
		return tt.RefTo(s.resolveType(te.Elem, b))
	case *ast.ArrayType:
		n := int64(-1)
		if te.Size != nil {
			if v, ok := s.evalConst(te.Size, b); ok {
				n = v
			} else {
				s.errorf(te.Pos, "array bound is not a constant expression")
			}
		}
		return tt.ArrayOf(s.resolveType(te.Elem, b), n)
	case *ast.FuncType:
		params := make([]*il.Type, 0, len(te.Params))
		variadic := false
		for _, p := range te.Params {
			if p.Ellipsis {
				variadic = true
				continue
			}
			params = append(params, s.resolveType(p.Type, b))
		}
		return tt.Func(s.resolveType(te.Ret, b), params, variadic, te.Const)
	case *ast.NamedType:
		return s.resolveNamedType(te.Name, b, te)
	default:
		return tt.Builtin(il.TError)
	}
}

func builtinKind(spec string) il.TypeKind {
	switch spec {
	case "void":
		return il.TVoid
	case "bool":
		return il.TBool
	case "char":
		return il.TChar
	case "signed char":
		return il.TSChar
	case "unsigned char":
		return il.TUChar
	case "short":
		return il.TShort
	case "unsigned short":
		return il.TUShort
	case "int":
		return il.TInt
	case "unsigned", "unsigned int":
		return il.TUInt
	case "long":
		return il.TLong
	case "unsigned long":
		return il.TULong
	case "long long":
		return il.TLongLong
	case "unsigned long long":
		return il.TULongLong
	case "float":
		return il.TFloat
	case "double":
		return il.TDouble
	case "long double":
		return il.TLongDouble
	default:
		return il.TError
	}
}

// resolveNamedType resolves a possibly-qualified, possibly-templated
// name in type context.
func (s *Sema) resolveNamedType(q ast.QualName, b bindings, te *ast.NamedType) *il.Type {
	tt := s.unit.Types
	if len(q.Segs) == 0 {
		return tt.Builtin(il.TError)
	}
	// Single unqualified segment.
	if len(q.Segs) == 1 && !q.Global {
		seg := q.Segs[0]
		if !seg.HasArgs {
			if b != nil {
				if v, ok := b[seg.Name]; ok {
					if v.IsInt {
						s.errorf(seg.Loc, "non-type template parameter %s used as a type", seg.Name)
						return tt.Builtin(il.TError)
					}
					return v.Type
				}
			}
			if t := s.lookupTypeName(seg.Name, s.currentScopeChain()); t != nil {
				return t
			}
			s.errorf(seg.Loc, "unknown type name %q", seg.Name)
			return tt.Builtin(il.TError)
		}
		// Template-id: instantiate.
		tmpl := s.lookupTemplateByName(seg.Name)
		if tmpl == nil {
			s.errorf(seg.Loc, "unknown template %q", seg.Name)
			return tt.Builtin(il.TError)
		}
		args := s.resolveTemplateArgs(seg.Args, b)
		c := s.instantiateClass(tmpl, args, seg.Loc)
		if c == nil {
			return tt.Builtin(il.TError)
		}
		return tt.ClassType(c)
	}
	// Qualified name: resolve the prefix to a namespace or class, then
	// the terminal inside it.
	scope, rest := s.resolveQualPrefix(q, b)
	if scope == nil {
		s.errorf(q.Loc(), "cannot resolve qualifier of %s", q.String())
		return tt.Builtin(il.TError)
	}
	if len(rest) != 1 {
		s.errorf(q.Loc(), "cannot resolve %s", q.String())
		return tt.Builtin(il.TError)
	}
	seg := rest[0]
	switch sc := scope.(type) {
	case *il.Namespace:
		if seg.HasArgs {
			if tmpl := s.templateIn(sc, seg.Name, il.TemplClass); tmpl != nil {
				args := s.resolveTemplateArgs(seg.Args, b)
				if c := s.instantiateClass(tmpl, args, seg.Loc); c != nil {
					return tt.ClassType(c)
				}
			}
			s.errorf(seg.Loc, "unknown template %s in namespace %s", seg.Name, sc.QualifiedName())
			return tt.Builtin(il.TError)
		}
		if t := s.lookupTypeNameIn(sc, seg.Name); t != nil {
			return t
		}
	case *il.Class:
		if t := s.lookupTypeInClass(sc, seg.Name); t != nil {
			return t
		}
	}
	s.errorf(seg.Loc, "unknown type %s", q.String())
	return tt.Builtin(il.TError)
}

// resolveQualPrefix resolves all but the last segment of a qualified
// name to a scope (namespace or class). Template-id segments resolve to
// their instantiations.
func (s *Sema) resolveQualPrefix(q ast.QualName, b bindings) (il.Scope, []ast.Seg) {
	segs := q.Segs
	var scope il.Scope
	if q.Global {
		scope = s.unit.Global
	}
	for len(segs) > 1 {
		seg := segs[0]
		next := s.resolveScopeSeg(scope, seg, b)
		if next == nil {
			return nil, segs
		}
		scope = next
		segs = segs[1:]
	}
	return scope, segs
}

// resolveScopeSeg resolves one qualifier segment inside scope (nil
// scope = search the current scope chain).
func (s *Sema) resolveScopeSeg(scope il.Scope, seg ast.Seg, b bindings) il.Scope {
	if seg.HasArgs {
		var tmpl *il.Template
		if scope == nil {
			tmpl = s.lookupTemplateByName(seg.Name)
		} else if ns, ok := scope.(*il.Namespace); ok {
			tmpl = s.templateIn(ns, seg.Name, il.TemplClass)
		}
		if tmpl == nil {
			return nil
		}
		args := s.resolveTemplateArgs(seg.Args, b)
		return s.instantiateClass(tmpl, args, seg.Loc)
	}
	if scope == nil {
		// Search current chain for a namespace, class, or binding.
		if b != nil {
			if v, ok := b[seg.Name]; ok && v.Type != nil {
				if u := v.Type.Unqualified(); u.Kind == il.TClass {
					return u.Class
				}
			}
		}
		for _, ns := range s.nsChain() {
			for _, sub := range ns.Namespaces {
				if sub.Name == seg.Name {
					return sub
				}
			}
			if target, ok := ns.Aliases[seg.Name]; ok {
				return target
			}
			for _, c := range ns.Classes {
				if c.Name == seg.Name {
					return c
				}
			}
		}
		return nil
	}
	switch sc := scope.(type) {
	case *il.Namespace:
		for _, sub := range sc.Namespaces {
			if sub.Name == seg.Name {
				return sub
			}
		}
		if target, ok := sc.Aliases[seg.Name]; ok {
			return target
		}
		for _, c := range sc.Classes {
			if c.Name == seg.Name {
				return c
			}
		}
	case *il.Class:
		for _, c := range sc.Nested {
			if c.Name == seg.Name {
				return c
			}
		}
	}
	return nil
}

// nsChain returns the namespace stack innermost-first plus active
// using-directive targets.
func (s *Sema) nsChain() []*il.Namespace {
	var out []*il.Namespace
	for i := len(s.nsStack) - 1; i >= 0; i-- {
		out = append(out, s.nsStack[i])
	}
	out = append(out, s.usingNS...)
	return out
}

// currentScopeChain returns the class stack (innermost first) for
// member lookups; namespaces are handled separately.
func (s *Sema) currentScopeChain() []*il.Class {
	var out []*il.Class
	for i := len(s.classStack) - 1; i >= 0; i-- {
		out = append(out, s.classStack[i])
	}
	return out
}

// lookupTypeName searches classes then namespaces for a type name.
func (s *Sema) lookupTypeName(name string, classes []*il.Class) *il.Type {
	for _, c := range classes {
		if t := s.lookupTypeInClass(c, name); t != nil {
			return t
		}
	}
	for _, ns := range s.nsChain() {
		if t := s.lookupTypeNameIn(ns, name); t != nil {
			return t
		}
	}
	return nil
}

func (s *Sema) lookupTypeNameIn(ns *il.Namespace, name string) *il.Type {
	tt := s.unit.Types
	for _, c := range ns.Classes {
		if c.Name == name {
			return tt.ClassType(c)
		}
	}
	for _, e := range ns.Enums {
		if e.Name == name {
			return tt.EnumType(e)
		}
	}
	for _, td := range ns.Typedefs {
		if td.Name == name {
			return td.Type
		}
	}
	return nil
}

func (s *Sema) lookupTypeInClass(c *il.Class, name string) *il.Type {
	tt := s.unit.Types
	for _, n := range c.Nested {
		if n.Name == name {
			return tt.ClassType(n)
		}
	}
	for _, e := range c.Enums {
		if e.Name == name {
			return tt.EnumType(e)
		}
	}
	for _, td := range c.Typedefs {
		if td.Name == name {
			return td.Type
		}
	}
	for _, b := range c.Bases {
		if b.Class != nil {
			if t := s.lookupTypeInClass(b.Class, name); t != nil {
				return t
			}
		}
	}
	return nil
}

// lookupTemplateByName finds a class template by unqualified name,
// searching the current class stack (member templates), namespace
// chain, then the whole unit.
func (s *Sema) lookupTemplateByName(name string) *il.Template {
	for _, c := range s.currentScopeChain() {
		if t := s.templateIn(c, name, il.TemplClass); t != nil {
			return t
		}
	}
	for _, ns := range s.nsChain() {
		if t := s.templateIn(ns, name, il.TemplClass); t != nil {
			return t
		}
	}
	return s.templateIn(nil, name, il.TemplClass)
}

// lookupNamespace resolves a namespace path from the current chain.
func (s *Sema) lookupNamespace(q ast.QualName) *il.Namespace {
	var cur *il.Namespace
	for i, seg := range q.Segs {
		if i == 0 && !q.Global {
			for _, ns := range s.nsChain() {
				for _, sub := range ns.Namespaces {
					if sub.Name == seg.Name {
						cur = sub
						break
					}
				}
				if cur == nil {
					if target, ok := ns.Aliases[seg.Name]; ok {
						cur = target
					}
				}
				if cur != nil {
					break
				}
			}
			if cur == nil {
				return nil
			}
			continue
		}
		if cur == nil {
			cur = s.unit.Global
		}
		var next *il.Namespace
		for _, sub := range cur.Namespaces {
			if sub.Name == seg.Name {
				next = sub
				break
			}
		}
		if next == nil {
			if target, ok := cur.Aliases[seg.Name]; ok {
				next = target
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

// --- constant expression evaluation -------------------------------------

// evalConst evaluates an integral constant expression (enumerators,
// bound non-type template parameters, literals, arithmetic).
func (s *Sema) evalConst(e ast.Expr, b bindings) (int64, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, true
	case *ast.CharLit:
		return e.Value, true
	case *ast.BoolLit:
		if e.Value {
			return 1, true
		}
		return 0, true
	case *ast.ParenExpr:
		return s.evalConst(e.E, b)
	case *ast.NameExpr:
		name := e.Name.Terminal().Name
		if b != nil {
			if v, ok := b[name]; ok && v.IsInt {
				return v.Const, true
			}
		}
		if v, ok := s.enumConsts[name]; ok && e.Name.IsSimple() {
			return v, true
		}
		// Qualified enumerator: E::A or Class::A.
		if len(e.Name.Segs) >= 2 {
			if v, ok := s.lookupQualifiedConst(e.Name); ok {
				return v, true
			}
		}
		// const int globals with constant initializers.
		if e.Name.IsSimple() {
			for _, ns := range s.nsChain() {
				for _, v := range ns.Vars {
					if v.Name == name && v.Init != nil && v.Type != nil && v.Type.IsConst() {
						return s.evalConst(v.Init, b)
					}
				}
			}
		}
		return 0, false
	case *ast.UnaryExpr:
		v, ok := s.evalConst(e.Operand, b)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case ast.Neg:
			return -v, true
		case ast.Pos_:
			return v, true
		case ast.BitNot:
			return ^v, true
		case ast.LogNot:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case *ast.BinaryExpr:
		l, ok1 := s.evalConst(e.L, b)
		r, ok2 := s.evalConst(e.R, b)
		if !ok1 || !ok2 {
			return 0, false
		}
		return applyIntOp(e.Op, l, r)
	case *ast.CondExpr:
		c, ok := s.evalConst(e.C, b)
		if !ok {
			return 0, false
		}
		if c != 0 {
			return s.evalConst(e.T, b)
		}
		return s.evalConst(e.F, b)
	case *ast.SizeofExpr:
		if e.Type != nil {
			return s.sizeOf(s.resolveType(e.Type, b)), true
		}
		return 0, false
	case *ast.CastExpr:
		return s.evalConst(e.Operand, b)
	default:
		return 0, false
	}
}

func (s *Sema) lookupQualifiedConst(q ast.QualName) (int64, bool) {
	owner := q.Segs[len(q.Segs)-2].Name
	name := q.Terminal().Name
	for _, e := range s.unit.AllEnums {
		if e.Name == owner {
			if v, ok := e.Lookup(name); ok {
				return v, true
			}
		}
	}
	// Class-scoped enumerator: Class::Value.
	for _, c := range s.unit.AllClasses {
		if c.Name == owner {
			for _, e := range c.Enums {
				if v, ok := e.Lookup(name); ok {
					return v, true
				}
			}
		}
	}
	return 0, false
}

func applyIntOp(op ast.BinOp, l, r int64) (int64, bool) {
	switch op {
	case ast.Add:
		return l + r, true
	case ast.Sub:
		return l - r, true
	case ast.Mul:
		return l * r, true
	case ast.Div:
		if r == 0 {
			return 0, false
		}
		return l / r, true
	case ast.Rem:
		if r == 0 {
			return 0, false
		}
		return l % r, true
	case ast.BAnd:
		return l & r, true
	case ast.BOr:
		return l | r, true
	case ast.BXor:
		return l ^ r, true
	case ast.ShlOp:
		return l << uint(r&63), true
	case ast.ShrOp:
		return l >> uint(r&63), true
	case ast.LAnd:
		return b2i(l != 0 && r != 0), true
	case ast.LOr:
		return b2i(l != 0 || r != 0), true
	case ast.EqOp:
		return b2i(l == r), true
	case ast.NeOp:
		return b2i(l != r), true
	case ast.LtOp:
		return b2i(l < r), true
	case ast.GtOp:
		return b2i(l > r), true
	case ast.LeOp:
		return b2i(l <= r), true
	case ast.GeOp:
		return b2i(l >= r), true
	default:
		return 0, false
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// sizeOf returns the ABI size model used for sizeof in constant
// expressions (an LP64 model).
func (s *Sema) sizeOf(t *il.Type) int64 {
	switch u := t.Unqualified(); u.Kind {
	case il.TBool, il.TChar, il.TSChar, il.TUChar:
		return 1
	case il.TShort, il.TUShort:
		return 2
	case il.TInt, il.TUInt, il.TFloat, il.TEnum:
		return 4
	case il.TLong, il.TULong, il.TLongLong, il.TULongLong, il.TDouble,
		il.TPtr, il.TRef:
		return 8
	case il.TLongDouble:
		return 16
	case il.TArray:
		if u.ArrayLen < 0 {
			return 8
		}
		return u.ArrayLen * s.sizeOf(u.Elem)
	case il.TClass:
		if u.Class == nil {
			return 8
		}
		var total int64
		for _, m := range u.Class.Members {
			total += s.sizeOf(m.Type)
		}
		for _, b := range u.Class.Bases {
			if b.Class != nil {
				total += s.sizeOf(s.unit.Types.ClassType(b.Class))
			}
		}
		if total == 0 {
			total = 1
		}
		return total
	default:
		return 8
	}
}
